// Block-local promotion of lifted CPU-state globals.
//
// The lifter materializes every register/flag into loads and stores of
// module globals; most of that traffic is redundant inside a basic block.
// This pass forwards stored values to later loads and removes overwritten
// stores, block-locally and without alias analysis: it only reasons about
// addresses that are literally a GlobalVariable operand. A call to a
// lifted function is a full barrier; an r2r.syscall or r2r.trap intrinsic
// is a barrier only for globals whose address escapes (state_globals.h),
// since it sees nothing but its arguments. Computed guest addresses never
// alias the state region (it lives in a reserved segment; see DESIGN.md).
#include <algorithm>
#include <map>

#include "passes/pass.h"
#include "passes/state_globals.h"

namespace r2r::passes {

namespace {

using ir::Instr;
using ir::Opcode;

bool is_global(const ir::Value* value) {
  return value->kind() == ir::Value::Kind::kGlobal;
}

class StatePromotionPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "state-promotion";
  }

  bool run(ir::Module& module) override {
    const StateGlobals tracked(module);
    bool changed = false;
    for (auto& fn : module.functions) {
      if (fn->is_intrinsic()) continue;
      for (auto& block : fn->blocks) changed |= promote_block(*block, tracked);
    }
    return changed;
  }

 private:
  static bool promote_block(ir::BasicBlock& block, const StateGlobals& tracked) {
    bool changed = false;
    // Last value stored into each global plus the store instruction itself
    // (so a later overwrite can delete it when unread in between).
    struct Pending {
      ir::Value* value = nullptr;
      std::size_t store_index = 0;
      bool read_since = false;
    };
    std::map<const ir::Value*, Pending> state;
    std::vector<std::size_t> dead_stores;
    std::map<const Instr*, ir::Value*> load_replacements;

    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      Instr& instr = *block.instrs[i];
      // Substitute previously promoted loads in the operands.
      for (ir::Value*& op : instr.operands) {
        if (op->kind() != ir::Value::Kind::kInstr) continue;
        const auto it = load_replacements.find(static_cast<const Instr*>(op));
        if (it != load_replacements.end()) {
          op = it->second;
          changed = true;
        }
      }

      switch (instr.opcode()) {
        case Opcode::kLoad: {
          const ir::Value* address = instr.operands[0];
          if (!is_global(address)) break;  // guest memory: no interference
          auto it = state.find(address);
          if (it != state.end()) {
            // Type must match (i8 flag slots vs i64 registers are used
            // consistently by the lifter, but stay defensive).
            if (it->second.value->type() == instr.type()) {
              load_replacements[&instr] = it->second.value;
            }
            it->second.read_since = true;
          }
          break;
        }
        case Opcode::kStore: {
          const ir::Value* address = instr.operands[1];
          if (!is_global(address)) break;
          auto it = state.find(address);
          if (it != state.end() && !it->second.read_since) {
            dead_stores.push_back(it->second.store_index);
          }
          state[address] = Pending{instr.operands[0], i, false};
          break;
        }
        case Opcode::kCall:
          if (instr.callee->is_intrinsic()) {
            // Only an escaped global's memory can be reached.
            std::erase_if(state, [&](const auto& entry) { return tracked.bit(entry.first) == 0; });
          } else {
            state.clear();  // the callee may read and write any global
          }
          break;
        default:
          break;
      }
    }

    // Remove dead stores (descending index order). Promoted loads are left
    // for DCE: they may still have uses in other blocks, and DCE already
    // checks use counts across the whole function.
    std::sort(dead_stores.begin(), dead_stores.end());
    for (auto it = dead_stores.rbegin(); it != dead_stores.rend(); ++it) {
      block.instrs.erase(block.instrs.begin() + static_cast<std::ptrdiff_t>(*it));
      changed = true;
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_state_promotion() {
  return std::make_unique<StatePromotionPass>();
}

}  // namespace r2r::passes
