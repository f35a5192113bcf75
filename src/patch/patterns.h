// r2r::patch — the paper's local protection patterns (Section V-A).
//
// Table I   mov:     re-read / re-compare the moved value, je happyflow,
//                    else call faulthandler.
// Table II  cmp:     execute the comparison twice, pushfq both times,
//                    compare the two saved RFLAGS images (with Intel
//                    red-zone adjustment), restore the first flags.
// Table III j<cond>: double-check the branch decision on both edges with
//                    set<cond> + an expected constant (0 on the
//                    fall-through edge, 1 on the taken edge), re-branch.
//
// Note on Table III: the paper's listing shows "j<cond> fallthrough" on the
// fall-through verification path; taken literally the fall-through path
// would always run into the fault handler, so — as the surrounding text
// implies — the re-branch on that edge uses the *inverted* condition. This
// implementation encodes that reading.
//
// Every inserted instruction is marked CodeItem::synthesized so iterative
// patching never rewrites countermeasure code (divergence guard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bir/module.h"
#include "patch/detected_exit.h"

namespace r2r::patch {

/// Symbol of the injected fault-response routine (exit with kDetectedExit).
inline constexpr std::string_view kFaultHandlerSymbol = "__r2r_faulthandler";

// kDetectedExit lives in patch/detected_exit.h (re-exported here via the
// include): one definition shared with the campaign/engine classifier
// defaults and the lowered r2r.trap() intrinsic.

/// Appends the fault-handler routine if the module does not have one yet;
/// returns its label.
std::string ensure_fault_handler(bir::Module& module);

/// Which pattern (if any) protect_instruction() would use.
///
/// kMov/kCmp/kJcc are the paper's Tables I-III; kMovzx, kCallGuard and
/// kRetDup are r2r extensions in the same redundancy spirit, needed
/// because skip faults on zero-extending loads, calls (stale return
/// register) and returns (fall-through into the next function) also
/// produce successful faults:
///   kCallGuard — poison rax with 0 before a direct call whose callee
///                provably writes rax before reading it; a skipped call
///                then leaves an implausible return value.
///   kRetDup    — duplicate the ret; skipping one executes the other.
///   kAluDup    — duplicate an idempotent ALU op (and/or): applying it
///                twice computes the same value and flags as once, so a
///                skip of either copy leaves the other standing. An and/or
///                whose destination is its memory source's base or index
///                is not idempotent and gets no pattern. Reinforcement
///                adds order-1 more copies of a synthesized one.
/// kRetTriple, kHandlerCallDup, kGuardMovDup and kCmpFar are the order-2
/// *reinforcement* patterns (reinforce_instruction): deeper redundancy
/// applied where an order-2 campaign proves a fault *pair* still defeats
/// the order-1 countermeasures. Under the skip model one fault removes one
/// dynamic instruction, so N-fold redundancy falls to N well-placed skips:
///   kRetTriple      — yet another duplicate ret; a pair can skip two
///                     adjacent rets (falling through into the next
///                     function), not three.
///   kHandlerCallDup — duplicate `call __r2r_faulthandler`; the patterns'
///                     re-branch tails end in a single handler call, so
///                     (skip re-branch, skip call) walked straight into the
///                     privileged continuation.
///   kGuardMovDup    — duplicate an idempotent synthesized mov (e.g. the
///                     call-guard poison), killing (skip poison, skip call).
///   kCmpFar         — re-execute a verification compare *pair-separated*:
///                     the copy sits behind > pair_window flag-neutral nops,
///                     so no single pair can suppress both the compare and
///                     its far duplicate (defeats the (skip popfq, skip
///                     authoritative cmp) flag-corruption pair).
enum class PatternKind : std::uint8_t {
  kNone,
  kMov,
  kMovzx,
  kCmp,
  kJcc,
  kCallGuard,
  kRetDup,
  kAluDup,
  kRetTriple,
  kHandlerCallDup,
  kGuardMovDup,
  kCmpFar,
};

PatternKind classify_pattern(const bir::Module& module, std::size_t index);

/// Applies the matching pattern to the instruction at `index`.
/// Returns the pattern applied, or kNone when the instruction cannot be
/// locally protected (unsupported shape, synthesized code, rsp-relative
/// cmp operands, ...).
PatternKind protect_instruction(bir::Module& module, std::size_t index);

/// Order-k reinforcement of the instruction at `index`, a site implicated
/// in a residual fault pair or tuple (sim::TupleCampaignResult::
/// patch_sites). Original instructions get the ordinary order-1 pattern
/// (a fault set often defeats a *check* that no single fault could, e.g. a
/// loop back-edge); synthesized countermeasure code — which
/// protect_instruction refuses to touch — gets the deeper
/// redundancy patterns above, at a redundancy degree scaled to `order`:
/// the duplication patterns insert order-1 extra copies per application
/// (an order-k attacker can skip k dynamic instructions), and kCmpFar
/// places the far copy behind more than (order-1)·pair_window fillers — an
/// order-k tuple's consecutive-gap windowing bounds its total span by
/// (k-1)·window, so no swept tuple reaches both the original and the copy
/// (k-tuples *can* ladder through the fillers, which a single window of
/// separation would not survive). Returns kNone when the site has no
/// reinforcement (another site of the set must carry the fix).
PatternKind reinforce_instruction(bir::Module& module, std::size_t index,
                                  std::uint64_t pair_window, unsigned order = 2);

/// True if arithmetic flags may be observed after item `index` before being
/// rewritten (conservative forward scan; used to decide whether the mov
/// pattern must save/restore RFLAGS around its verification compare).
bool flags_live_after(const bir::Module& module, std::size_t index);

}  // namespace r2r::patch
