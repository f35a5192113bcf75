#include "bir/assemble.h"

#include <algorithm>
#include <map>

#include "isa/printer.h"
#include "isa/target.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::bir {

namespace {

using support::check;
using support::ErrorKind;

using SymbolMap = std::map<std::string, std::uint64_t, std::less<>>;

/// " (line N: <instr>)" context for layout errors, empty when the item was
/// synthesized (no source line to point at).
std::string item_context(const CodeItem& item, const isa::Target& target) {
  std::string context;
  if (item.source_line != 0) {
    context = " (line " + std::to_string(item.source_line);
    if (item.is_instruction()) context += ": " + target.print(*item.instr);
    context += ")";
  } else if (item.is_instruction()) {
    context = " (in " + target.print(*item.instr) + ")";
  }
  return context;
}

/// Resolves `instr`'s symbolic operands into `out`, which is overwritten
/// (a reused scratch instruction keeps its operand list's capacity).
/// Text-label branch targets become ImmOperand{address-or-placeholder}.
/// Returns false when an operand names a symbol not yet defined; with
/// `allow_unknown` that operand holds `placeholder_for_unknown`, otherwise
/// it is an error. `item` is the referencing item; errors cite its source
/// line (the context string is only built on the failure path).
bool resolve(const isa::Instruction& instr, const SymbolMap& symbols,
             std::uint64_t placeholder_for_unknown, bool allow_unknown,
             const CodeItem& item, const isa::Target& target, isa::Instruction& out) {
  // Error messages (and the item context) are only built on the failure
  // path — resolve() runs for every instruction of every assemble() pass.
  const auto fail_item = [&item, &target](const std::string& message) {
    support::fail(ErrorKind::kRewrite, message + item_context(item, target));
  };
  // A mov keeps a symbol immediate's label: it forces the fixed-size
  // movabs form. No other encoding reads an immediate's label.
  const bool keep_labels = instr.mnemonic == isa::Mnemonic::kMov;
  bool complete = true;
  out = instr;
  for (isa::Operand& op : out.operands) {
    if (auto* label = std::get_if<isa::LabelOperand>(&op)) {
      const auto it = symbols.find(label->name);
      if (it != symbols.end()) {
        std::string name = keep_labels ? std::move(label->name) : std::string();
        op = isa::ImmOperand{static_cast<std::int64_t>(it->second), std::move(name)};
      } else {
        if (!allow_unknown) fail_item("undefined label: '" + label->name + "'");
        op = isa::ImmOperand{static_cast<std::int64_t>(placeholder_for_unknown), {}};
        complete = false;
      }
      continue;
    }
    if (auto* mem = std::get_if<isa::MemOperand>(&op); mem != nullptr && !mem->label.empty()) {
      const auto it = symbols.find(mem->label);
      if (it == symbols.end()) {
        fail_item("undefined symbol in memory operand: '" + mem->label +
                  "' (data symbols must be laid out before code)");
      }
      if (mem->rip_relative) {
        mem->disp = static_cast<std::int64_t>(it->second) + mem->disp;
      } else {
        mem->disp += static_cast<std::int64_t>(it->second);
      }
      mem->label.clear();
      continue;
    }
    if (auto* imm = std::get_if<isa::ImmOperand>(&op); imm != nullptr && !imm->label.empty()) {
      const auto it = symbols.find(imm->label);
      if (it != symbols.end()) {
        imm->value = static_cast<std::int64_t>(it->second);
        // Known symbols resolve to the same value in the sizing and final
        // passes (data bases are fixed), so any instruction may use them.
        if (!keep_labels) imm->label.clear();
      } else {
        if (!allow_unknown) {
          fail_item("undefined symbol in immediate: '" + imm->label + "'");
        }
        // An unknown (not-yet-laid-out text) symbol would make the encoding
        // size depend on its final value; only movabs is size-stable.
        if (!keep_labels) {
          fail_item(
              "forward symbol immediates are only supported in mov (movabs) "
              "context");
        }
        complete = false;
      }
    }
  }
  return complete;
}

}  // namespace

elf::Image assemble(Module& module) {
  obs::Span span("bir.assemble");
  const isa::Target& target = isa::target(module.arch);
  SymbolMap symbols;
  const auto define = [&symbols](const std::string& name, std::uint64_t address) {
    const auto [it, inserted] = symbols.emplace(name, address);
    check(inserted || it->second == address, ErrorKind::kRewrite, "duplicate symbol: ", name);
  };

  // --- data layout (bases are fixed, so this is final) ----------------------
  for (DataSection& section : module.data_sections) {
    std::uint64_t cursor = section.base;
    for (DataBlock& block : section.blocks) {
      if (block.align > 1) {
        cursor = (cursor + block.align - 1) & ~(block.align - 1);
      }
      block.address = cursor;
      for (const std::string& label : block.labels) define(label, cursor);
      cursor += block.bytes.size();
    }
  }

  // --- text layout: one encode per instruction ---------------------------------
  // Data bases are fixed and every earlier label already holds its final
  // address, so an instruction whose symbols are all defined when it is
  // reached gets its final bytes here. One that names a text label defined
  // later (a forward branch or call, a mov of a later label) is encoded
  // with a placeholder target: every such encoding has a fixed size
  // (rel32 branches, movabs / fused-mov symbol immediates), and the
  // forward pass below writes the real bytes over the placeholder.
  struct Forward {
    std::size_t index;  ///< into module.text
    std::size_t size;   ///< placeholder bytes
  };
  std::vector<Forward> forwards;
  std::vector<std::uint8_t> text_bytes;
  isa::Instruction scratch;
  std::uint64_t cursor = module.text_base;
  for (std::size_t index = 0; index < module.text.size(); ++index) {
    CodeItem& item = module.text[index];
    item.address = cursor;
    for (const std::string& label : item.labels) define(label, cursor);
    if (item.is_instruction()) {
      const bool complete = resolve(*item.instr, symbols, cursor, true, item, target, scratch);
      const isa::Encoding bytes = target.encode(scratch, item.address);
      if (!complete) forwards.push_back(Forward{index, bytes.size()});
      text_bytes.insert(text_bytes.end(), bytes.begin(), bytes.end());
    } else {
      text_bytes.insert(text_bytes.end(), item.raw.begin(), item.raw.end());
    }
    cursor = module.text_base + text_bytes.size();
  }

  // --- forward references: every label is defined now ------------------------
  for (const Forward& forward : forwards) {
    const CodeItem& item = module.text[forward.index];
    resolve(*item.instr, symbols, 0, false, item, target, scratch);
    const isa::Encoding bytes = target.encode(scratch, item.address);
    if (bytes.size() != forward.size) {
      support::fail(ErrorKind::kRewrite, "layout drift at " + target.print(*item.instr));
    }
    std::copy(bytes.begin(), bytes.end(),
              text_bytes.begin() + static_cast<std::ptrdiff_t>(item.address - module.text_base));
  }
  text_bytes.shrink_to_fit();  // the image holds .text for as long as it lives

  // --- image assembly ------------------------------------------------------------
  elf::Image image;
  image.machine = isa::elf_machine(module.arch);
  elf::Segment text_segment;
  text_segment.name = ".text";
  text_segment.vaddr = module.text_base;
  text_segment.flags = elf::kRead | elf::kExecute;
  text_segment.data = std::move(text_bytes);
  image.segments.push_back(std::move(text_segment));

  for (const DataSection& section : module.data_sections) {
    elf::Segment segment;
    segment.name = section.name;
    segment.vaddr = section.base;
    segment.flags = section.flags != 0 ? section.flags : (elf::kRead | elf::kWrite);
    std::uint64_t end = section.base;
    for (const DataBlock& block : section.blocks) end = block.address + block.bytes.size();
    segment.data.assign(static_cast<std::size_t>(end - section.base), 0);
    for (const DataBlock& block : section.blocks) {
      std::copy(block.bytes.begin(), block.bytes.end(),
                segment.data.begin() +
                    static_cast<std::ptrdiff_t>(block.address - section.base));
      for (const auto& [offset, symbol] : block.symbol_refs) {
        const auto it = symbols.find(symbol);
        if (it == symbols.end()) {
          support::fail(ErrorKind::kRewrite,
                        "undefined symbol in data: '" + symbol + "'" +
                            (block.source_line != 0
                                 ? " (line " + std::to_string(block.source_line) + ")"
                                 : ""));
        }
        const std::size_t at = block.address - section.base + offset;
        for (int i = 0; i < 8; ++i) {
          segment.data[at + static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(it->second >> (8 * i));
        }
      }
    }
    segment.mem_size = section.mem_size > segment.data.size() ? section.mem_size
                                                              : segment.data.size();
    image.segments.push_back(std::move(segment));
  }

  // --- symbols + entry -------------------------------------------------------------
  const auto is_global = [&module](const std::string& name) {
    for (const auto& g : module.globals) {
      if (g == name) return true;
    }
    return false;
  };
  for (const CodeItem& item : module.text) {
    for (const std::string& label : item.labels) {
      image.symbols.push_back(elf::Symbol{label, item.address, is_global(label), true});
    }
  }
  for (const DataSection& section : module.data_sections) {
    for (const DataBlock& block : section.blocks) {
      for (const std::string& label : block.labels) {
        image.symbols.push_back(elf::Symbol{label, block.address, is_global(label), false});
      }
    }
  }

  const auto entry = symbols.find(module.entry_symbol);
  check(entry != symbols.end(), ErrorKind::kRewrite, "entry symbol not defined: ",
        module.entry_symbol);
  image.entry = entry->second;
  return image;
}

}  // namespace r2r::bir
