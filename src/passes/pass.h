// r2r::passes — module pass interface + manager (LLVM-style, minimal).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace r2r::passes {

class Pass {
 public:
  virtual ~Pass() = default;
  /// Returns true if the module was changed.
  virtual bool run(ir::Module& module) = 0;
};

class PassManager {
 public:
  void add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }

  /// Runs every pass once, in order; returns true if anything changed.
  bool run(ir::Module& module) {
    bool changed = false;
    for (const auto& pass : passes_) changed |= pass->run(module);
    return changed;
  }

  /// Re-runs the pipeline until a fixed point (bounded).
  bool run_to_fixpoint(ir::Module& module, unsigned max_rounds = 8) {
    bool ever = false;
    for (unsigned round = 0; round < max_rounds; ++round) {
      if (!run(module)) return ever;
      ever = true;
    }
    return ever;
  }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// ---- pass factories ---------------------------------------------------------

/// Dead code elimination: removes side-effect-free instructions whose
/// results have no uses.
std::unique_ptr<Pass> make_dce();

/// Local constant folding of arithmetic/compare/conversion instructions,
/// plus exact identities for the lifter's idioms: x+0, x-0, x|0, x^0, a
/// shift by 0 and an and with all-ones become x; icmp ne (zext i1 c), 0
/// becomes c; icmp eq|ne (sub a, b), 0 becomes icmp eq|ne a, b; the sign
/// bit test icmp ne (and (lshr x, bits-1), 1), 0 becomes icmp slt x, 0;
/// and xor (icmp p a, b), true becomes a new icmp !p a, b, leaving the old
/// compare to its other uses (or to DCE).
/// Cleanup only: it runs before the countermeasure, never after it.
std::unique_ptr<Pass> make_constant_fold();

/// Block-local promotion of state globals: a load from a global observed
/// after a store to the same global in the same block is replaced by the
/// stored value; the stores themselves stay for global_store_elim, which
/// runs right after it and deletes the dead ones. A call to a lifted
/// function is a barrier; the syscall and trap intrinsics are barriers only
/// for globals whose address escapes. Assumes state globals are never
/// aliased by computed guest addresses (standard lifter assumption,
/// documented in docs/architecture.md, "Lifting assumptions").
std::unique_ptr<Pass> make_state_promotion();

/// Dead-store elimination for non-escaping state globals, across blocks
/// and calls: backward liveness over a dense bit set, with two least-fixpoint
/// summaries per function (the globals it or a callee reads before writing;
/// the globals live after any of its call sites, which are live at its
/// rets). A function with no call site keeps everything live at ret,
/// unreachable keeps nothing, and intrinsics are not barriers.
std::unique_ptr<Pass> make_global_store_elim();

/// The paper's conditional branch hardening (Section V-B):
/// checksum h = UIDdst ^ UIDsrc per Algorithm 1, evaluated twice (D1, D2),
/// comparison re-executed (C2), nested switch validation on both edges per
/// Fig. 5, fault response via the r2r.trap intrinsic.
std::unique_ptr<Pass> make_branch_hardening();

/// Return-register poisoning before direct calls whose callee provably
/// writes g_rax before reading it (IR twin of the binary-level kCallGuard
/// pattern; fires only on lifted modules).
std::unique_ptr<Pass> make_call_guard();

/// The "go-to" baseline of Section V-C: duplicate every computational
/// instruction and compare results, trapping on mismatch (the >=300%
/// code-size scheme the paper compares against).
std::unique_ptr<Pass> make_instruction_duplication();

}  // namespace r2r::passes
