#include "bir/module.h"

#include "elf/image.h"
#include "support/error.h"

namespace r2r::bir {

namespace {
using support::check;
using support::ErrorKind;
}  // namespace

std::optional<std::size_t> Module::index_of_address(std::uint64_t address) const {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i].is_instruction() && text[i].address == address) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> Module::index_of_label(std::string_view label) const {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i].has_label(label)) return i;
  }
  return std::nullopt;
}

bool Module::has_symbol(std::string_view name) const {
  if (index_of_label(name).has_value()) return true;
  for (const auto& section : data_sections) {
    for (const auto& block : section.blocks) {
      for (const auto& label : block.labels) {
        if (label == name) return true;
      }
    }
  }
  return false;
}

void Module::insert_before(std::size_t index, std::vector<isa::Instruction> instrs,
                           bool take_labels) {
  check(index <= text.size(), ErrorKind::kInvalidArgument, "insert_before out of range");
  std::vector<CodeItem> items;
  items.reserve(instrs.size());
  for (auto& instr : instrs) {
    CodeItem item;
    item.instr = std::move(instr);
    items.push_back(std::move(item));
  }
  if (take_labels && index < text.size() && !items.empty()) {
    items.front().labels = std::move(text[index].labels);
    text[index].labels.clear();
  }
  text.insert(text.begin() + static_cast<std::ptrdiff_t>(index),
              std::make_move_iterator(items.begin()), std::make_move_iterator(items.end()));
}

void Module::insert_after(std::size_t index, std::vector<isa::Instruction> instrs) {
  check(index < text.size(), ErrorKind::kInvalidArgument, "insert_after out of range");
  insert_before(index + 1, std::move(instrs), /*take_labels=*/false);
}

void Module::replace(std::size_t index, std::vector<isa::Instruction> instrs) {
  check(index < text.size(), ErrorKind::kInvalidArgument, "replace out of range");
  check(!instrs.empty(), ErrorKind::kInvalidArgument, "replacement must not be empty");
  std::vector<std::string> labels = std::move(text[index].labels);
  text.erase(text.begin() + static_cast<std::ptrdiff_t>(index));
  insert_before(index, std::move(instrs), /*take_labels=*/false);
  text[index].labels = std::move(labels);
}

void Module::append_block(const std::string& label, std::vector<isa::Instruction> instrs) {
  check(!instrs.empty(), ErrorKind::kInvalidArgument, "append_block: block '", label,
        "' has no instructions to carry its label");
  const std::size_t index = text.size();
  insert_before(index, std::move(instrs), /*take_labels=*/false);
  text[index].labels.push_back(label);
}

void Module::add_label(std::size_t index, std::string label) {
  check(index < text.size(), ErrorKind::kInvalidArgument, "add_label out of range");
  if (!text[index].has_label(label)) text[index].labels.push_back(std::move(label));
}

std::string Module::label_for_index(std::size_t index) {
  check(index < text.size(), ErrorKind::kInvalidArgument, "label_for_index out of range");
  if (!text[index].labels.empty()) return text[index].labels.front();
  std::string label = fresh_label("anon");
  text[index].labels.push_back(label);
  return label;
}

std::string Module::fresh_label(const std::string& prefix) {
  while (true) {
    std::string candidate = ".r2r_" + prefix + "_" + std::to_string(label_counter_++);
    if (!has_symbol(candidate)) return candidate;
  }
}

std::size_t Module::instruction_count() const noexcept {
  std::size_t count = 0;
  for (const auto& item : text) {
    if (item.is_instruction()) ++count;
  }
  return count;
}

Module from_source(const isa::SourceProgram& program, isa::Arch arch) {
  Module module;
  module.arch = arch;
  module.globals = program.globals;

  std::uint64_t next_data_base = 0x600000;
  for (const auto& section : program.sections) {
    if (section.name == ".text") {
      for (const auto& item : section.items) {
        CodeItem code;
        code.labels = item.labels;
        code.source_line = item.line;
        if (item.is_instruction()) {
          code.instr = *item.instr;
        } else if (!item.data.empty()) {
          code.raw = item.data;
        } else if (item.labels.empty() && item.align == 0) {
          continue;
        }
        // Alignment inside .text is ignored (no perf implications in the
        // emulator); raw/labels-only items are kept.
        module.text.push_back(std::move(code));
      }
      continue;
    }
    DataSection data;
    data.name = section.name;
    data.flags = elf::kRead | elf::kWrite;
    data.base = next_data_base;
    next_data_base += 0x100000;
    for (const auto& item : section.items) {
      DataBlock block;
      block.labels = item.labels;
      block.bytes = item.data;
      block.symbol_refs = item.data_symbol_refs;
      block.align = item.align;
      block.source_line = item.line;
      data.blocks.push_back(std::move(block));
    }
    module.data_sections.push_back(std::move(data));
  }

  if (!program.globals.empty()) module.entry_symbol = program.globals.front();
  return module;
}

Module module_from_assembly(std::string_view text, isa::Arch arch) {
  return from_source(isa::target(arch).parse_assembly(text), arch);
}

}  // namespace r2r::bir
