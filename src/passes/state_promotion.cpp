// Block-local promotion of lifted CPU-state globals.
//
// The lifter materializes every register/flag into loads and stores of
// module globals; most of that traffic is redundant inside a basic block.
// This pass forwards stored values to later loads (global store elimination
// deletes the stores), block-locally and without alias analysis: it only
// reasons about addresses that are literally a GlobalVariable operand. A
// call to a lifted function is a full barrier; an r2r.syscall or r2r.trap
// intrinsic is a barrier only for globals whose address escapes
// (state_globals.h), since it sees nothing but its arguments. Computed
// guest addresses never alias the state region (it lives in a reserved
// segment; see docs/architecture.md, "Lifting assumptions").
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
    std::map<const ir::Value*, ir::Value*> stored;  // last value stored per global
    std::map<const Instr*, ir::Value*> load_replacements;

    for (auto& instr_ptr : block.instrs) {
      Instr& instr = *instr_ptr;
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
          const auto it = stored.find(address);
          // Type must match (i8 flag slots vs i64 registers are used
          // consistently by the lifter, but stay defensive).
          if (it != stored.end() && it->second->type() == instr.type()) {
            load_replacements[&instr] = it->second;
          }
          break;
        }
        case Opcode::kStore: {
          const ir::Value* address = instr.operands[1];
          if (is_global(address)) stored[address] = instr.operands[0];
          break;
        }
        case Opcode::kCall:
          if (instr.callee->is_intrinsic()) {
            // Only an escaped global's memory can be reached.
            std::erase_if(stored, [&](const auto& entry) { return tracked.bit(entry.first) == 0; });
          } else {
            stored.clear();  // the callee may read and write any global
          }
          break;
        default:
          break;
      }
    }
    // Promoted loads are left for DCE: they may still have uses in other
    // blocks, and DCE already checks use counts across the whole function.
    // Overwritten stores are left for global store elimination, which runs
    // right after this pass in every cleanup round.
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_state_promotion() {
  return std::make_unique<StatePromotionPass>();
}

}  // namespace r2r::passes
