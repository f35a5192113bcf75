// r2r::fault — the faulter (Fig. 2 of the paper).
//
// Runs a differential fault-injection campaign: record the golden traces of
// a "good" (authorized) and "bad" (attacker) input, then for every dynamic
// instruction of the bad-input trace inject each fault the chosen model
// allows and classify the observable outcome. A fault is a vulnerability
// ("successful fault") when the bad-input run becomes observably identical
// to the good-input run.
//
// This layer is a thin client of the sim:: engine, which executes the
// sweep from copy-on-write snapshots (optionally across worker threads)
// instead of replaying every faulted run from entry. A single-threaded
// campaign classifies bit-identically to the seed full-replay faulter.
#pragma once

#include <cstdint>
#include <string>

#include "elf/image.h"
#include "sim/engine.h"

namespace r2r::fault {

// The classification vocabulary and vulnerability record are defined by
// the engine; fault:: re-exports them as its public campaign API.
using sim::Outcome;
using sim::to_string;
using sim::tuple_patch_sites;
using sim::TupleCampaignResult;
using sim::TupleLevelSummary;
using sim::TupleVulnerability;
using sim::Vulnerability;

/// Highest campaign order the surfaces accept (protection patterns, CLI
/// flags and the service agree on this bound; the sim engine itself is
/// order-agnostic).
inline constexpr unsigned kMaxCampaignOrder = 4;

struct CampaignConfig {
  /// The fault models the campaign sweeps, handed to the sim:: engine
  /// verbatim — one struct shared with the engine, so a model added to
  /// sim::FaultModels is automatically campaign-visible (the previous
  /// field-by-field copy silently dropped any knob it didn't know about).
  /// Covers the paper's models (skip, bit_flip), the r2r extension models,
  /// and the campaign order / pair_window / max_tuples of order-k sweeps.
  sim::FaultModels models;
  /// Worker threads for the sweep (0 = hardware concurrency). Results are
  /// bit-identical for every thread count.
  unsigned threads = 1;
  /// Order 2+: classify fault sets from the lower-order profiles where
  /// provably equivalent instead of simulating them (exact; see
  /// sim::EngineConfig).
  bool pair_outcome_reuse = true;
};

/// Runs the campaign at config.models.order through one sim::Engine: the
/// order-1 sweep (Engine::run) at order 1 — `levels` empty, the sweep in
/// `order1` — and Engine::run_tuples at every order k >= 2.
TupleCampaignResult run_campaign(const elf::Image& image, const std::string& good_input,
                                 const std::string& bad_input,
                                 const CampaignConfig& config = {});

}  // namespace r2r::fault
