// Return-register poisoning for calls (IR level).
//
// Skipping a `call` leaves the return-value register with whatever the
// previous computation produced — frequently the privileged value (e.g.
// validate_format() returning 1 right before check_pin() is called). The
// classic mitigation is to poison the return register before the call so
// a skipped call fails closed. This is the IR-level twin of the
// Faulter+Patcher kCallGuard pattern; it fires only when the callee
// provably writes the return-register global before reading it.
#include "ir/builder.h"
#include "passes/pass.h"

namespace r2r::passes {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::GlobalVariable;
using ir::Instr;
using ir::Opcode;

/// Does `fn`'s entry block store to `reg_global` before any load of it or
/// any call? Conservative straight-line scan.
bool clobbers_before_read(const Function& fn, const GlobalVariable* reg_global) {
  if (fn.is_intrinsic() || fn.entry() == nullptr) return false;
  for (const auto& instr : fn.entry()->instrs) {
    switch (instr->opcode()) {
      case Opcode::kLoad:
        if (instr->operands[0] == reg_global) return false;
        break;
      case Opcode::kStore:
        if (instr->operands[1] == reg_global) return true;
        break;
      case Opcode::kCall:
        return false;  // callee may read it
      default:
        break;
    }
  }
  return false;
}

class CallGuardPass final : public Pass {
 public:
  bool run(ir::Module& module) override {
    GlobalVariable* rax = module.find_global("g_rax");
    if (rax == nullptr) return false;  // not a lifted module
    ir::Constant* poison = module.get_constant(ir::Type::kI64, 0);

    bool changed = false;
    for (auto& fn : module.functions) {
      if (fn->is_intrinsic()) continue;
      for (auto& block : fn->blocks) {
        for (std::size_t i = 0; i < block->instrs.size(); ++i) {
          const Instr& instr = *block->instrs[i];
          if (instr.opcode() != Opcode::kCall || instr.callee->is_intrinsic()) continue;
          if (!clobbers_before_read(*instr.callee, rax)) continue;
          auto store = std::make_unique<Instr>(Opcode::kStore, ir::Type::kVoid);
          store->operands = {poison, rax};
          block->instrs.insert(block->instrs.begin() + static_cast<std::ptrdiff_t>(i),
                               std::move(store));
          ++i;  // skip over the call we just guarded
          changed = true;
        }
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_call_guard() { return std::make_unique<CallGuardPass>(); }

}  // namespace r2r::passes
