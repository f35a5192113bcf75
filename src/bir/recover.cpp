#include "bir/recover.h"

#include <algorithm>
#include <map>
#include <set>

#include "isa/decoder.h"
#include "isa/semantics.h"
#include "isa/target.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::bir {

namespace {

using support::check;
using support::ErrorKind;

struct RecoveryState {
  const elf::Image* image = nullptr;
  const isa::Target* target = nullptr;
  const elf::Segment* text = nullptr;
  std::map<std::uint64_t, isa::Decoded> decoded;
  std::set<std::uint64_t> code_label_addresses;
  std::set<std::uint64_t> data_label_addresses;

  [[nodiscard]] bool in_text(std::uint64_t address) const noexcept {
    return text->contains(address);
  }
  [[nodiscard]] const elf::Segment* data_segment_of(std::uint64_t address) const noexcept {
    const elf::Segment* segment = image->segment_containing(address);
    if (segment == nullptr || (segment->flags & elf::kExecute) != 0) return nullptr;
    return segment;
  }
};

/// Recursive-descent pass: decode every reachable instruction.
void explore(RecoveryState& state, std::uint64_t start) {
  std::vector<std::uint64_t> worklist{start};
  while (!worklist.empty()) {
    std::uint64_t address = worklist.back();
    worklist.pop_back();
    while (state.in_text(address) && !state.decoded.contains(address)) {
      const std::size_t offset = address - state.text->vaddr;
      const std::span<const std::uint8_t> window(state.text->data.data() + offset,
                                                 state.text->data.size() - offset);
      isa::Decoded decoded;
      try {
        decoded = state.target->decode(window, address);
      } catch (const support::Error& error) {
        support::fail(ErrorKind::kRecovery,
                      "undecodable instruction at " + support::hex_string(address) +
                          ": " + error.what());
      }
      const std::uint64_t next = address + decoded.length;
      const isa::Instruction& instr =
          state.decoded.emplace(address, std::move(decoded)).first->second.instr;

      const isa::Flow flow = isa::effects(instr, *state.target).flow;
      if (flow == isa::Flow::kJump || flow == isa::Flow::kBranch || flow == isa::Flow::kCall) {
        const auto target = static_cast<std::uint64_t>(
            std::get<isa::ImmOperand>(instr.op(0)).value);
        if (!state.in_text(target)) {
          support::fail(ErrorKind::kRecovery,
                        "branch target outside .text at " + support::hex_string(address));
        }
        state.code_label_addresses.insert(target);
        worklist.push_back(target);
      }
      if (!isa::falls_through(flow)) break;
      address = next;
    }
  }
}

/// Notes data references found in one instruction's operands and rewrites
/// them to symbolic form (labels resolved at reassembly).
void symbolize(RecoveryState& state, isa::Instruction& instr) {
  if (instr.mnemonic == isa::Mnemonic::kJmp || instr.mnemonic == isa::Mnemonic::kJcc ||
      instr.mnemonic == isa::Mnemonic::kCall) {
    // Branch targets become labels in the caller (needs the label map).
    return;
  }
  for (isa::Operand& op : instr.operands) {
    if (auto* mem = std::get_if<isa::MemOperand>(&op)) {
      if (mem->rip_relative) {
        const auto target = static_cast<std::uint64_t>(mem->disp);
        if (state.data_segment_of(target) == nullptr) {
          support::fail(ErrorKind::kRecovery, "rip-relative reference to non-data address " +
                                                  support::hex_string(target));
        }
        state.data_label_addresses.insert(target);
        mem->label = "";  // filled by caller once label names exist
        continue;
      }
      if (!mem->base && !mem->index && mem->disp != 0) {
        const auto target = static_cast<std::uint64_t>(mem->disp);
        if (state.data_segment_of(target) != nullptr) {
          state.data_label_addresses.insert(target);
        }
      }
      continue;
    }
    if (auto* imm = std::get_if<isa::ImmOperand>(&op);
        imm != nullptr && instr.mnemonic == isa::Mnemonic::kMov &&
        instr.width == state.target->natural_width()) {
      // Full-width mov immediate pointing into a data segment: treat as a
      // reference (the UROBOROS-style heuristic; see docs/architecture.md,
      // "Lifting assumptions"). On x64 this is the movabs form; on rv32i
      // the fused lui+addi mov.
      const auto value = static_cast<std::uint64_t>(imm->value);
      if (state.data_segment_of(value) != nullptr) {
        state.data_label_addresses.insert(value);
      }
    }
  }
}

}  // namespace

Module recover(const elf::Image& image) {
  obs::Span span("bir.recover");
  const auto arch = isa::arch_from_elf_machine(image.machine);
  check(arch.has_value(), ErrorKind::kRecovery,
        "image has an e_machine no registered target handles");
  RecoveryState state;
  state.image = &image;
  state.target = &isa::target(*arch);
  for (const auto& segment : image.segments) {
    if ((segment.flags & elf::kExecute) != 0) {
      check(state.text == nullptr, ErrorKind::kRecovery,
            "multiple executable segments are not supported");
      state.text = &segment;
    }
  }
  check(state.text != nullptr, ErrorKind::kRecovery, "no executable segment");

  // Seed exploration with the entry point and all code symbols.
  state.code_label_addresses.insert(image.entry);
  explore(state, image.entry);
  for (const auto& symbol : image.symbols) {
    if (symbol.is_code && state.in_text(symbol.value)) {
      state.code_label_addresses.insert(symbol.value);
      explore(state, symbol.value);
    }
  }

  // First symbolization sweep: collect referenced data addresses.
  for (auto& [address, decoded] : state.decoded) {
    symbolize(state, decoded.instr);
  }

  // --- name maps -------------------------------------------------------------
  std::map<std::uint64_t, std::string> code_names;
  std::map<std::uint64_t, std::string> data_names;
  for (const auto& symbol : image.symbols) {
    if (symbol.is_code) {
      code_names.emplace(symbol.value, symbol.name);
    } else {
      data_names.emplace(symbol.value, symbol.name);
    }
  }
  for (const std::uint64_t address : state.code_label_addresses) {
    code_names.try_emplace(address, "L_" + support::hex_string(address).substr(2));
  }
  for (const std::uint64_t address : state.data_label_addresses) {
    data_names.try_emplace(address, "D_" + support::hex_string(address).substr(2));
  }

  // --- build text items --------------------------------------------------------
  Module module;
  module.arch = *arch;
  module.text_base = state.text->vaddr;

  const std::uint64_t text_end = state.text->vaddr + state.text->data.size();
  std::uint64_t address = state.text->vaddr;
  while (address < text_end) {
    const auto it = state.decoded.find(address);
    if (it == state.decoded.end()) {
      // Unreached gap: preserve verbatim up to the next decoded address.
      std::uint64_t gap_end = text_end;
      const auto next = state.decoded.upper_bound(address);
      if (next != state.decoded.end()) gap_end = next->first;
      CodeItem item;
      if (const auto name = code_names.find(address); name != code_names.end()) {
        item.labels.push_back(name->second);
      }
      const std::size_t offset = address - state.text->vaddr;
      item.raw.assign(
          state.text->data.begin() + static_cast<std::ptrdiff_t>(offset),
          state.text->data.begin() + static_cast<std::ptrdiff_t>(offset + (gap_end - address)));
      item.address = address;
      module.text.push_back(std::move(item));
      address = gap_end;
      continue;
    }

    CodeItem item;
    item.address = address;
    if (const auto name = code_names.find(address); name != code_names.end()) {
      item.labels.push_back(name->second);
    }
    isa::Instruction instr = it->second.instr;

    // Rewrite branch targets and data references to symbolic form.
    if (instr.mnemonic == isa::Mnemonic::kJmp || instr.mnemonic == isa::Mnemonic::kJcc ||
        instr.mnemonic == isa::Mnemonic::kCall) {
      const auto target =
          static_cast<std::uint64_t>(std::get<isa::ImmOperand>(instr.op(0)).value);
      instr.operands[0] = isa::LabelOperand{code_names.at(target)};
    } else {
      for (isa::Operand& op : instr.operands) {
        if (auto* mem = std::get_if<isa::MemOperand>(&op)) {
          if (mem->rip_relative) {
            const auto target = static_cast<std::uint64_t>(mem->disp);
            mem->label = data_names.at(target);
            mem->disp = 0;
          } else if (!mem->base && !mem->index && mem->disp != 0) {
            const auto target = static_cast<std::uint64_t>(mem->disp);
            if (const auto name = data_names.find(target); name != data_names.end()) {
              mem->label = name->second;
              mem->disp = 0;
            }
          }
        } else if (auto* imm = std::get_if<isa::ImmOperand>(&op);
                   imm != nullptr && instr.mnemonic == isa::Mnemonic::kMov &&
                   instr.width == state.target->natural_width()) {
          const auto value = static_cast<std::uint64_t>(imm->value);
          if (const auto name = data_names.find(value); name != data_names.end()) {
            imm->label = name->second;
          }
        }
      }
    }
    item.instr = std::move(instr);
    module.text.push_back(std::move(item));
    address += it->second.length;
  }

  // --- data sections -----------------------------------------------------------
  for (const auto& segment : image.segments) {
    if ((segment.flags & elf::kExecute) != 0) continue;
    if (segment.name == "[stack]") continue;
    DataSection section;
    section.name = segment.name;
    section.flags = segment.flags;
    section.base = segment.vaddr;
    section.mem_size = segment.size_in_memory();

    // Split points: every named/referenced address inside this segment.
    std::set<std::uint64_t> cuts{segment.vaddr};
    for (const auto& [addr, name] : data_names) {
      if (segment.contains(addr) && addr < segment.vaddr + segment.data.size()) {
        cuts.insert(addr);
      }
    }
    std::vector<std::uint64_t> points(cuts.begin(), cuts.end());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint64_t begin = points[i];
      const std::uint64_t end =
          i + 1 < points.size() ? points[i + 1] : segment.vaddr + segment.data.size();
      DataBlock block;
      block.address = begin;
      if (const auto name = data_names.find(begin); name != data_names.end()) {
        block.labels.push_back(name->second);
      }
      const std::size_t offset = begin - segment.vaddr;
      block.bytes.assign(segment.data.begin() + static_cast<std::ptrdiff_t>(offset),
                         segment.data.begin() + static_cast<std::ptrdiff_t>(offset + (end - begin)));
      section.blocks.push_back(std::move(block));
    }
    module.data_sections.push_back(std::move(section));
  }

  // --- entry + globals ------------------------------------------------------------
  module.entry_symbol = code_names.at(image.entry);
  for (const auto& symbol : image.symbols) {
    if (symbol.global) module.globals.push_back(symbol.name);
  }
  if (module.globals.empty()) module.globals.push_back(module.entry_symbol);
  return module;
}

}  // namespace r2r::bir
