#include "bir/cfg.h"

#include <set>

#include "isa/semantics.h"
#include "support/error.h"

namespace r2r::bir {

std::optional<std::size_t> Cfg::block_of_item(std::size_t item_index) const {
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (item_index >= blocks[b].first_item && item_index <= blocks[b].last_item) return b;
  }
  return std::nullopt;
}

std::optional<std::size_t> Cfg::block_of_label(const Module& module,
                                               std::string_view label) const {
  const auto index = module.index_of_label(label);
  if (!index) return std::nullopt;
  return block_of_item(*index);
}

Cfg build_cfg(const Module& module) {
  Cfg cfg;
  if (module.text.empty()) return cfg;

  // --- find leaders -----------------------------------------------------------
  std::set<std::size_t> leaders{0};
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    const CodeItem& item = module.text[i];
    if (!item.labels.empty()) leaders.insert(i);
    const bool is_raw = !item.is_instruction();
    if (is_raw) {
      leaders.insert(i);
      if (i + 1 < module.text.size()) leaders.insert(i + 1);
      continue;
    }
    if (isa::is_terminator(*item.instr) || isa::is_cond_branch(*item.instr)) {
      if (i + 1 < module.text.size()) leaders.insert(i + 1);
    }
  }

  // --- block ranges -------------------------------------------------------------
  std::vector<std::size_t> leader_list(leaders.begin(), leaders.end());
  for (std::size_t b = 0; b < leader_list.size(); ++b) {
    BasicBlock block;
    block.first_item = leader_list[b];
    block.last_item =
        (b + 1 < leader_list.size() ? leader_list[b + 1] : module.text.size()) - 1;
    block.is_raw = !module.text[block.first_item].is_instruction();
    cfg.blocks.push_back(block);
  }

  const auto block_of = [&cfg](std::size_t item) -> std::size_t {
    const auto found = cfg.block_of_item(item);
    support::require(found.has_value(), "item outside any block");
    return *found;
  };

  // --- successors -----------------------------------------------------------------
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    BasicBlock& block = cfg.blocks[b];
    if (block.is_raw) continue;
    const CodeItem& last = module.text[block.last_item];
    if (!last.is_instruction()) continue;
    const isa::Instruction& instr = *last.instr;

    const auto add_label_successor = [&](const std::string& label) {
      const auto target = module.index_of_label(label);
      if (target) block.successors.push_back(block_of(*target));
    };

    switch (instr.mnemonic) {
      case isa::Mnemonic::kJmp:
        if (isa::is_label(instr.op(0))) {
          add_label_successor(std::get<isa::LabelOperand>(instr.op(0)).name);
        }
        break;
      case isa::Mnemonic::kJcc:
        if (isa::is_label(instr.op(0))) {
          add_label_successor(std::get<isa::LabelOperand>(instr.op(0)).name);
        }
        if (block.last_item + 1 < module.text.size()) {
          block.successors.push_back(block_of(block.last_item + 1));
        }
        break;
      case isa::Mnemonic::kJmpReg:
        block.ends_in_indirect = true;
        break;
      case isa::Mnemonic::kRet:
      case isa::Mnemonic::kHlt:
      case isa::Mnemonic::kUd2:
      case isa::Mnemonic::kInt3:
        break;
      default:
        // Calls and straight-line code fall through.
        if (block.last_item + 1 < module.text.size()) {
          block.successors.push_back(block_of(block.last_item + 1));
        }
        break;
    }
  }
  return cfg;
}

}  // namespace r2r::bir
