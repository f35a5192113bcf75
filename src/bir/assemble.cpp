#include "bir/assemble.h"

#include <algorithm>
#include <map>

#include "isa/printer.h"
#include "isa/target.h"
#include "obs/trace.h"
#include "support/bits.h"
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

/// Defines `name` at `address` (a second definition must agree) and
/// returns its entry, which stays put while `symbols` grows.
std::uint64_t& define(SymbolMap& symbols, const std::string& name, std::uint64_t address) {
  const auto [it, inserted] = symbols.emplace(name, address);
  check(inserted || it->second == address, ErrorKind::kRewrite, "duplicate symbol: ", name);
  return it->second;
}

/// Lays .text out with every branch at full width and returns its bytes.
///
/// Data bases are fixed and every earlier label already holds its final
/// address, so an instruction whose symbols are all defined when it is
/// reached gets its final bytes at once. One that names a text label
/// defined later (a forward branch or call, a mov of a later label) is
/// encoded with a placeholder target: every such encoding has a fixed size
/// (rel32 branches, movabs / fused-mov symbol immediates), and the forward
/// pass writes the real bytes over the placeholder.
std::vector<std::uint8_t> layout_text(Module& module, const isa::Target& target,
                                      SymbolMap& symbols) {
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
    for (const std::string& label : item.labels) define(symbols, label, cursor);
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

  // Forward references: every label is defined now.
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
  return text_bytes;
}

/// A jmp or jcc to a label: the branches relaxation may shorten.
bool is_label_branch(const isa::Instruction& instr) {
  return (instr.mnemonic == isa::Mnemonic::kJmp || instr.mnemonic == isa::Mnemonic::kJcc) &&
         instr.arity() == 1 && isa::is_label(instr.operands[0]);
}

/// Writes `branch` (a label branch) into `out` resolved to `destination`,
/// without the copy of its label and the lookup that resolve() makes.
void resolve_branch(const isa::Instruction& branch, std::uint64_t destination,
                    isa::Instruction& out) {
  isa::refill(out, branch.mnemonic, branch.width,
              isa::ImmOperand{static_cast<std::int64_t>(destination), {}});
  out.cond = branch.cond;
}

/// True when `instr`'s bytes depend on where it or a text label lands: a
/// label operand, a symbol immediate, or a rip-relative or symbolic memory
/// operand.
bool moves_with_layout(const isa::Instruction& instr) {
  for (const isa::Operand& op : instr.operands) {
    if (isa::is_label(op)) return true;
    if (const auto* imm = std::get_if<isa::ImmOperand>(&op);
        imm != nullptr && !imm->label.empty()) {
      return true;
    }
    if (const auto* mem = std::get_if<isa::MemOperand>(&op);
        mem != nullptr && (mem->rip_relative || !mem->label.empty())) {
      return true;
    }
  }
  return false;
}

/// Lays .text out with branch relaxation and returns its bytes. Every
/// label branch starts in the target's short form and grows to full width
/// only when its displacement does not fit; sizes only grow, so the
/// fix-point ends after at most one round per branch. Each instruction is
/// encoded once while sizing; only label branches and instructions whose
/// bytes move with the layout are encoded again, at their final address.
std::vector<std::uint8_t> layout_relaxed_text(Module& module, const isa::Target& target,
                                              SymbolMap& symbols) {
  const std::size_t short_length = target.short_branch_length();
  /// An item encoded again once the layout is final.
  struct Fixup {
    std::size_t index;       ///< into module.text
    std::uint64_t offset;    ///< in the all-short layout
    std::size_t size;        ///< bytes in the all-short layout
    bool branch = false;     ///< a label branch
    std::size_t growth = 0;  ///< a branch's full minus short length
    const std::uint64_t* destination = nullptr;  ///< a branch's label value
    bool full = false;       ///< a branch whose short form does not reach
  };
  struct TextLabel {
    std::uint64_t* address;  ///< its entry in `symbols`
    std::uint64_t offset;    ///< in the all-short layout
  };
  std::vector<Fixup> fixups;
  std::vector<TextLabel> labels;
  std::vector<std::uint8_t> sized;  ///< the all-short layout; fixups are placeholders
  isa::Instruction scratch;

  for (std::size_t index = 0; index < module.text.size(); ++index) {
    CodeItem& item = module.text[index];
    const std::uint64_t offset = sized.size();
    item.address = module.text_base + offset;
    for (const std::string& label : item.labels) {
      labels.push_back(TextLabel{&define(symbols, label, item.address), offset});
    }
    if (!item.is_instruction()) {
      sized.insert(sized.end(), item.raw.begin(), item.raw.end());
      continue;
    }
    if (is_label_branch(*item.instr)) {
      resolve_branch(*item.instr, item.address, scratch);  // for its full length
      const std::size_t full_length = target.encode(scratch, item.address).size();
      fixups.push_back(Fixup{index, offset, short_length, true, full_length - short_length});
      sized.resize(sized.size() + short_length);
      continue;
    }
    resolve(*item.instr, symbols, item.address, true, item, target, scratch);
    const isa::Encoding bytes = target.encode(scratch, item.address);
    if (moves_with_layout(*item.instr)) fixups.push_back(Fixup{index, offset, bytes.size()});
    sized.insert(sized.end(), bytes.begin(), bytes.end());
  }
  for (Fixup& fixup : fixups) {
    if (!fixup.branch) continue;
    const isa::Instruction& branch = *module.text[fixup.index].instr;
    const auto it = symbols.find(std::get<isa::LabelOperand>(branch.operands[0]).name);
    // An undefined label stays full width; its final encode reports it.
    fixup.full = it == symbols.end();
    if (!fixup.full) fixup.destination = &it->second;
  }

  // Each round places labels and branches after the branches grown in
  // earlier rounds, then grows every short branch that does not reach. A
  // branch grown in this round moves nothing until the next, so no
  // branch is measured against a stale label.
  std::uint64_t growth = 0;  ///< of every full branch, once the rounds end
  for (bool grew = true; grew;) {
    grew = false;
    std::size_t next = 0;
    growth = 0;
    for (const TextLabel& label : labels) {
      for (; next < fixups.size() && fixups[next].offset < label.offset; ++next) {
        if (fixups[next].full) growth += fixups[next].growth;
      }
      *label.address = module.text_base + label.offset + growth;
    }
    growth = 0;
    for (Fixup& fixup : fixups) {
      if (fixup.full) {
        growth += fixup.growth;
      } else if (fixup.branch) {
        const std::uint64_t end = module.text_base + fixup.offset + growth + short_length;
        fixup.full = !support::fits_int8(static_cast<std::int64_t>(*fixup.destination - end));
        grew |= fixup.full;
      }
    }
  }

  // Final addresses, then the bytes: the runs between fixups are copied,
  // each fixup is encoded at its final address.
  std::uint64_t shift = 0;
  std::size_t next = 0;
  for (std::size_t index = 0; index < module.text.size(); ++index) {
    for (; next < fixups.size() && fixups[next].index < index; ++next) {
      if (fixups[next].full) shift += fixups[next].growth;
    }
    module.text[index].address += shift;
  }
  std::vector<std::uint8_t> text_bytes;
  text_bytes.reserve(sized.size() + growth);
  std::uint64_t copied = 0;
  for (const Fixup& fixup : fixups) {
    text_bytes.insert(text_bytes.end(), sized.begin() + static_cast<std::ptrdiff_t>(copied),
                      sized.begin() + static_cast<std::ptrdiff_t>(fixup.offset));
    const CodeItem& item = module.text[fixup.index];
    if (fixup.destination != nullptr) {
      resolve_branch(*item.instr, *fixup.destination, scratch);
    } else {
      resolve(*item.instr, symbols, 0, false, item, target, scratch);
    }
    const bool short_form = fixup.branch && !fixup.full;
    const isa::Encoding bytes = short_form ? target.encode_short_branch(scratch, item.address)
                                           : target.encode(scratch, item.address);
    if (bytes.size() != fixup.size + (fixup.full ? fixup.growth : 0)) {
      support::fail(ErrorKind::kRewrite, "layout drift at " + target.print(*item.instr));
    }
    text_bytes.insert(text_bytes.end(), bytes.begin(), bytes.end());
    copied = fixup.offset + fixup.size;
  }
  text_bytes.insert(text_bytes.end(), sized.begin() + static_cast<std::ptrdiff_t>(copied),
                    sized.end());
  return text_bytes;
}

}  // namespace

elf::Image assemble(Module& module) {
  obs::Span span("bir.assemble");
  const isa::Target& target = isa::target(module.arch);
  SymbolMap symbols;

  // --- data layout (bases are fixed, so this is final) ----------------------
  for (DataSection& section : module.data_sections) {
    std::uint64_t cursor = section.base;
    for (DataBlock& block : section.blocks) {
      if (block.align > 1) {
        cursor = (cursor + block.align - 1) & ~(block.align - 1);
      }
      block.address = cursor;
      for (const std::string& label : block.labels) define(symbols, label, cursor);
      cursor += block.bytes.size();
    }
  }

  // --- text layout ---------------------------------------------------------------
  std::vector<std::uint8_t> text_bytes =
      module.relax_branches && target.short_branch_length() != 0
          ? layout_relaxed_text(module, target, symbols)
          : layout_text(module, target, symbols);

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
