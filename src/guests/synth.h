// r2r::guests::synth — deterministic, seed-parameterized guest generator.
//
// Every invariant the pipeline claims (behaviour preservation through
// lift→harden→lower→patch→ELF round-trip, "hardening never adds
// vulnerabilities", fix-point reachability) is only as trustworthy as the
// set of programs it was checked on. This generator turns the three
// hand-written case studies into an unbounded family: for any seed it
// emits a random-but-well-formed Guest in the r2r assembly dialect —
// a randomized control-flow skeleton (straight-line stretches, loops with
// data-dependent trip counts, a call tree of noise helpers), one
// security-sensitive decision point (PIN-style byte compare, digest
// compare, or a multi-stage guard) and host-side derived
// good_input/bad_input/expected-output oracles.
//
// Determinism contract: generate() is a pure function of SynthConfig.
// The same config (and in particular the same seed) yields byte-identical
// assembly, inputs, and oracles on every host — a failing seed printed by
// the property harness is a permanent repro.
#pragma once

#include <cstdint>
#include <string>

#include "guests/guests.h"

namespace r2r::guests::synth {

/// Which security decision guards the privileged continuation. Each maps
/// to a structure from the paper's case studies (Section V-C).
enum class DecisionKind : std::uint8_t {
  kByteCompare,      ///< PIN-style byte loop (accumulate or early-exit)
  kDigestCompare,    ///< FNV-1a-style digest of the input vs expected quad
  kMultiStageGuard,  ///< prefix byte compare, then whole-input digest
};

/// Generator knobs. All randomness is drawn from `seed` alone; the other
/// fields bound the shapes the seed can select.
struct SynthConfig {
  std::uint64_t seed = 0;
  /// Assembly dialect the guest targets. The program structure is the same
  /// across targets for a given seed; registers, immediate ranges, and the
  /// digest recurrence follow the target (rv32i digests with a 32-bit x33
  /// shift-add since the ISA has no multiply).
  isa::Arch arch = isa::Arch::kX64;

  // ---- size ----------------------------------------------------------------
  unsigned min_key_len = 4;  ///< input length lower bound (bytes)
  unsigned max_key_len = 8;  ///< input length upper bound (bytes)
  /// Noise helpers form the call tree: _start calls a random subset, and a
  /// helper may call a later helper (acyclic by construction).
  unsigned max_noise_helpers = 3;

  // ---- branch density ------------------------------------------------------
  /// Chance (percent) that a noise helper contains a two-arm conditional
  /// over its scratch value, and that _start interleaves extra noise calls.
  unsigned branch_density_percent = 40;
  /// Chance (percent) that a noise helper contains a loop whose trip count
  /// is data-dependent (derived from an input byte, 1..8 iterations).
  unsigned loop_chance_percent = 60;

  // ---- Tables I–III pattern opportunities ----------------------------------
  /// Max flag-neutral filler *draws* between the decision `cmp` and its
  /// `jcc` (Table II/III shapes with the compare far from the branch; the
  /// "cmp-far-apart" structural corner). Drawn uniformly in [0, max]; a
  /// draw emits one immediate-mov or one two-instruction load pair, so the
  /// instruction distance can reach 2*max.
  unsigned max_cmp_jcc_gap = 4;

  // ---- decision-point palette ----------------------------------------------
  bool allow_byte_compare = true;
  bool allow_digest = true;
  bool allow_multistage = true;
};

/// Generates the guest selected by `config`. Pure and deterministic: equal
/// configs yield byte-identical Guests. The guest's name is
/// "synth_<seed>". Throws nothing; every emitted program parses, builds,
/// and shows the differential good/bad behaviour by construction.
Guest generate(const SynthConfig& config);

/// generate() with default knobs and the given seed.
Guest generate(std::uint64_t seed);

/// generate() with default knobs for an explicit target.
Guest generate(std::uint64_t seed, isa::Arch arch);

/// The decision kind `config` selects (the first RNG draw); exposed so
/// harnesses can stratify assertions by decision structure.
DecisionKind decision_kind(const SynthConfig& config);

}  // namespace r2r::guests::synth
