#include <unordered_map>
#include <vector>

#include "passes/pass.h"

namespace r2r::passes {

namespace {

class DcePass final : public Pass {
 public:
  bool run(ir::Module& module) override {
    bool changed = false;
    for (auto& fn : module.functions) {
      if (!fn->is_intrinsic()) changed |= run_on(*fn);
    }
    return changed;
  }

 private:
  /// One worklist pass over use counts. The IR has no phi, so no dead cycle
  /// survives it: it removes what repeating a count-and-erase pass would.
  static bool run_on(ir::Function& fn) {
    std::unordered_map<const ir::Value*, unsigned> uses;
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block->instrs) uses.emplace(instr.get(), 0);
    }
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block->instrs) {
        for (const ir::Value* op : instr->operands) {
          if (const auto it = uses.find(op); it != uses.end()) ++it->second;
        }
      }
    }
    const auto dead = [&uses](const ir::Instr& instr) {
      return !instr.has_side_effects() && uses.at(&instr) == 0;
    };
    std::vector<const ir::Instr*> worklist;
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block->instrs) {
        if (dead(*instr)) worklist.push_back(instr.get());
      }
    }
    if (worklist.empty()) return false;
    while (!worklist.empty()) {
      const ir::Instr* instr = worklist.back();
      worklist.pop_back();
      for (const ir::Value* op : instr->operands) {
        const auto it = uses.find(op);
        if (it == uses.end() || --it->second > 0) continue;
        const auto* def = static_cast<const ir::Instr*>(op);
        if (!def->has_side_effects()) worklist.push_back(def);
      }
    }
    for (auto& block : fn.blocks) {
      std::erase_if(block->instrs, [&dead](const auto& instr) { return dead(*instr); });
    }
    return true;
  }
};

}  // namespace

std::unique_ptr<Pass> make_dce() { return std::make_unique<DcePass>(); }

}  // namespace r2r::passes
