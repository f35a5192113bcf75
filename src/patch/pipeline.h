// r2r::patch — the Faulter+Patcher loop of Fig. 2.
//
//   binary -> faulter -> vulnerabilities -> patcher -> patched binary
//      ^                                                    |
//      +----------------------------------------------------+
//
// Iterates until no patchable vulnerability remains (fix-point) or the
// iteration cap is hit. Patching changes distances between instructions and
// can surface new vulnerabilities, exactly as Section IV-B.3 describes.
//
// The loop is one order ladder whose first rung is the paper's loop: rung
// 1 runs order-1 campaigns and applies the Tables I-III patterns until no
// patchable vulnerability remains. With campaign.models.order == k >= 2 it
// then climbs — campaigns at order m map every residual strictly-order-m
// fault set back to its static patch sites and reinforce them at
// redundancy degree m (reinforce_instruction), advancing to order m+1 only
// when order m is clean and dropping back to the lowest dirty rung (never
// below 2) whenever reinforcement regresses a cheaper order. This closes
// the gap the paper's Fig. 2 leaves open: its loop only ever re-runs
// order-1 campaigns, so it declares victory on binaries a k-glitch
// attacker still breaks.
#pragma once

#include <cstdint>
#include <vector>

#include "bir/module.h"
#include "elf/image.h"
#include "fault/campaign.h"
#include "patch/patcher.h"

namespace r2r::patch {

struct PipelineConfig {
  /// campaign.models.order selects the top rung of the ladder: 1 = the
  /// paper's loop, k >= 2 = rung 1 followed by rungs 2..k
  /// (campaign.models.max_tuples / sample_seed bound the order-2+ sweeps).
  fault::CampaignConfig campaign;
  /// Campaigns the ladder may run, across every rung. A run that hits the
  /// cap re-sweeps the last patched module at the requested order; a clean
  /// sweep there is still a fix-point.
  unsigned max_iterations = 12;
};

struct IterationReport {
  unsigned order = 1;                    ///< campaign order this iteration ran at
  std::uint64_t successful_faults = 0;   ///< dynamic successful faults found
  std::uint64_t vulnerable_points = 0;   ///< distinct static addresses
  std::uint64_t patches_applied = 0;
  std::uint64_t unpatchable_points = 0;
  std::uint64_t code_size = 0;           ///< bytes of .text at this iteration
  // Order-2+ iterations only:
  std::uint64_t total_tuples = 0;        ///< k-tuples classified this iteration
  std::uint64_t successful_tuples = 0;   ///< residual top-level tuples found
  std::uint64_t strictly_order_k = 0;    ///< sharing no fault with an order-1 vuln
  std::uint64_t tuple_patch_sites = 0;   ///< distinct static sites implicated
};

/// One point of the overhead-vs-k trajectory: the code size at which a
/// campaign order was last proven clean by the ladder.
struct OrderMilestone {
  unsigned order = 0;            ///< campaign order proven clean
  std::uint64_t code_size = 0;   ///< bytes of .text at that order's fix-point
};

struct PipelineResult {
  bir::Module module;            ///< final (hardened) module
  elf::Image hardened;           ///< final image
  std::vector<IterationReport> iterations;
  /// Campaign against the final image at the requested order, on every
  /// exit (a ladder that stops on a lower rung re-sweeps at that order).
  fault::TupleCampaignResult final_campaign;
  /// No patchable vulnerability remains (when the iteration cap hit: the
  /// final sweep at the requested order is clean).
  bool fixpoint = false;
  std::uint64_t original_code_size = 0;
  std::uint64_t hardened_code_size = 0;
  /// Overhead-vs-k trajectory, ascending by order: code size at each order's
  /// latest clean sweep (order 1 is where rung 1 ended; the requested order
  /// appears only if the ladder proved it clean). Empty when order 1 was
  /// requested.
  std::vector<OrderMilestone> order_milestones;

  /// Order-2+ mode: the final campaign at the *requested* order found zero
  /// successful fault sets at every level (singles and every tuple level
  /// 2..k). Always false when order 1 was requested.
  [[nodiscard]] bool orderk_fixpoint() const noexcept;

  /// Order-2+ mode: bytes of .text where rung 1 ended (the order-1
  /// milestone) — the baseline of the higher-order overhead delta. Zero when
  /// order 1 was requested or the iteration cap hit on rung 1.
  [[nodiscard]] std::uint64_t order1_code_size() const noexcept;

  /// The fix-point verdict `r2r fixpoint`, `r2r batch` and the r2rd
  /// fixpoint job exit with. Order 1: the paper's fix-point (no *patchable*
  /// vulnerability remains — unpatchable residue is reported, not a
  /// failure). Order 2+: zero residual fault sets at every level up to the
  /// requested order.
  [[nodiscard]] bool verdict() const noexcept {
    return final_campaign.order >= 2 ? orderk_fixpoint() : fixpoint;
  }

  /// Code-size overhead percentage — the paper's Table V metric.
  [[nodiscard]] double overhead_percent() const noexcept {
    return elf::overhead_percent(original_code_size, hardened_code_size);
  }

  /// Table-V-style overhead of rung 1 alone (order-2+ mode only).
  [[nodiscard]] double order1_overhead_percent() const noexcept {
    if (order1_code_size() == 0) return 0.0;
    return elf::overhead_percent(original_code_size, order1_code_size());
  }

  /// What closing the higher-order gap cost on top of order-1 hardening, in
  /// percentage points of the original code size (order-2+ mode only).
  [[nodiscard]] double order2_overhead_delta_percent() const noexcept {
    if (order1_code_size() == 0) return 0.0;
    return overhead_percent() - order1_overhead_percent();
  }

  /// JSON document for downstream tooling: the per-iteration trajectory,
  /// fix-point flags, Table-V overhead split, and the final campaign
  /// (schema in docs/formats.md).
  [[nodiscard]] std::string to_json() const;
};

/// Runs the full Faulter+Patcher loop on `input`.
PipelineResult faulter_patcher(const elf::Image& input, const std::string& good_input,
                               const std::string& bad_input,
                               const PipelineConfig& config = {});

}  // namespace r2r::patch
