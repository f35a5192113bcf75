#include "bir/cfg.h"

#include <set>

#include "isa/semantics.h"
#include "isa/target.h"
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
  // Calls are straight-line code here: they end no block and have no
  // successor edge.
  const isa::Target& target = isa::target(module.arch);
  const auto flow_of = [&](const CodeItem& item) { return isa::effects(*item.instr, target).flow; };
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
    const isa::Flow flow = flow_of(item);
    if (flow != isa::Flow::kNext && flow != isa::Flow::kCall &&
        flow != isa::Flow::kIndirectCall && i + 1 < module.text.size()) {
      leaders.insert(i + 1);
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
    const isa::Flow flow = flow_of(last);
    if ((flow == isa::Flow::kJump || flow == isa::Flow::kBranch) && isa::is_label(instr.op(0))) {
      const auto destination =
          module.index_of_label(std::get<isa::LabelOperand>(instr.op(0)).name);
      if (destination) block.successors.push_back(block_of(*destination));
    }
    if (flow == isa::Flow::kIndirectJump) block.ends_in_indirect = true;
    if (isa::falls_through(flow) && block.last_item + 1 < module.text.size()) {
      block.successors.push_back(block_of(block.last_item + 1));
    }
  }
  return cfg;
}

}  // namespace r2r::bir
