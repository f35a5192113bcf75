// r2r::bir — relocatable binary IR ("reassembleable disassembly").
//
// This layer plays the role GTIRB + Ddisasm play in the paper: a binary is
// recovered into a Module whose code is a list of labelled, symbolized
// instructions that can be edited (countermeasures inlined) and assembled
// back into a working ELF executable.
//
// Design note: data sections keep their original base addresses across
// rewriting (only .text is re-laid-out), so values stored *inside* data
// never need symbolization — this sidesteps the UROBOROS/Ramblr
// false-positive problem the paper describes in Section III-C, and is
// faithful to the Faulter+Patcher goal of keeping the original structure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/asm_parser.h"
#include "isa/instruction.h"
#include "isa/target.h"

namespace r2r::bir {

/// One element of the text stream: an instruction or raw bytes (recovered
/// padding / data-in-text), optionally labelled.
struct CodeItem {
  std::vector<std::string> labels;
  std::optional<isa::Instruction> instr;
  std::vector<std::uint8_t> raw;       ///< used when instr is empty
  std::uint64_t address = 0;           ///< assigned by the last assemble()
  bool synthesized = false;  ///< inserted by a countermeasure (never re-patched)
  /// 1-based source line when the item came from assembly text (0 for
  /// recovered or synthesized items); assemble() errors cite it.
  std::size_t source_line = 0;

  [[nodiscard]] bool is_instruction() const noexcept { return instr.has_value(); }
  [[nodiscard]] bool has_label(std::string_view name) const noexcept {
    for (const auto& label : labels) {
      if (label == name) return true;
    }
    return false;
  }
};

/// Labelled blob inside a data section.
struct DataBlock {
  std::vector<std::string> labels;
  std::vector<std::uint8_t> bytes;
  /// 8-byte slots at (offset) patched with the named symbol's address.
  std::vector<std::pair<std::size_t, std::string>> symbol_refs;
  std::uint64_t align = 0;
  std::uint64_t address = 0;  ///< assigned by the last assemble()
  std::size_t source_line = 0;  ///< 1-based source line (0 = synthesized)
};

struct DataSection {
  std::string name = ".data";
  std::uint32_t flags = 0;     ///< elf::SegmentFlags
  std::uint64_t base = 0;      ///< fixed virtual base
  std::uint64_t mem_size = 0;  ///< optional bss tail (>= laid-out size)
  std::vector<DataBlock> blocks;
};

class Module {
 public:
  /// Instruction set of the code in `text`. assemble()/print paths dispatch
  /// through isa::target(arch); recovery derives it from the ELF e_machine.
  isa::Arch arch = isa::Arch::kX64;
  std::vector<CodeItem> text;
  std::uint64_t text_base = 0x400000;
  std::vector<DataSection> data_sections;
  std::string entry_symbol = "_start";
  std::vector<std::string> globals;

  /// Index of the instruction item currently assembled at `address`.
  [[nodiscard]] std::optional<std::size_t> index_of_address(std::uint64_t address) const;

  /// Index of the item carrying `label`.
  [[nodiscard]] std::optional<std::size_t> index_of_label(std::string_view label) const;

  /// True if any code/data label with this name exists.
  [[nodiscard]] bool has_symbol(std::string_view name) const;

  /// Inserts instructions before `index`. When `take_labels` is set the
  /// anchor's labels move onto the first inserted instruction so incoming
  /// control flow executes the insertion first.
  void insert_before(std::size_t index, std::vector<isa::Instruction> instrs,
                     bool take_labels);

  /// Inserts instructions after `index`.
  void insert_after(std::size_t index, std::vector<isa::Instruction> instrs);

  /// Replaces the instruction at `index` with `instrs`; labels stay on the
  /// first replacement instruction.
  void replace(std::size_t index, std::vector<isa::Instruction> instrs);

  /// Appends a labelled instruction sequence at the end of .text. Throws
  /// Error{kInvalidArgument} when `instrs` is empty (no item to carry the
  /// label).
  void append_block(const std::string& label, std::vector<isa::Instruction> instrs);

  /// Attaches a label to the item at `index`.
  void add_label(std::size_t index, std::string label);

  /// Returns a label for the item at `index`, creating one if necessary.
  std::string label_for_index(std::size_t index);

  /// Generates a fresh label with the given prefix (".r2r_<prefix>_<n>").
  std::string fresh_label(const std::string& prefix);

  /// Number of instruction items (ignoring raw blobs).
  [[nodiscard]] std::size_t instruction_count() const noexcept;

 private:
  unsigned label_counter_ = 0;
};

/// Converts the text-assembler output into a Module for `arch`.
Module from_source(const isa::SourceProgram& program,
                   isa::Arch arch = isa::Arch::kX64);

/// Parses assembly text straight into a Module (parse + from_source) using
/// the target's register syntax.
Module module_from_assembly(std::string_view text,
                            isa::Arch arch = isa::Arch::kX64);

}  // namespace r2r::bir
