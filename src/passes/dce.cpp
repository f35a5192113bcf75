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
  /// A value with no entry (a constant, a global or another function's
  /// instruction) is skipped.
  bool run_on(ir::Function& fn) {
    uses_.reset(fn);
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block->instrs) {
        for (const ir::Value* op : instr->operands) {
          if (unsigned* count = uses_.find(op)) ++*count;
        }
      }
    }
    const auto dead = [this](const ir::Instr& instr) {
      return !instr.has_side_effects() && *uses_.find(&instr) == 0;
    };
    worklist_.clear();
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block->instrs) {
        if (dead(*instr)) worklist_.push_back(instr.get());
      }
    }
    if (worklist_.empty()) return false;
    while (!worklist_.empty()) {
      const ir::Instr* instr = worklist_.back();
      worklist_.pop_back();
      for (const ir::Value* op : instr->operands) {
        unsigned* count = uses_.find(op);
        if (count == nullptr || --*count > 0) continue;
        const auto* def = static_cast<const ir::Instr*>(op);
        if (!def->has_side_effects()) worklist_.push_back(def);
      }
    }
    for (auto& block : fn.blocks) {
      std::erase_if(block->instrs, [&dead](const auto& instr) { return dead(*instr); });
    }
    return true;
  }

  // Kept across functions and rounds so that steady state allocates nothing.
  ir::InstrTable<unsigned> uses_;
  std::vector<const ir::Instr*> worklist_;
};

}  // namespace

std::unique_ptr<Pass> make_dce() { return std::make_unique<DcePass>(); }

}  // namespace r2r::passes
