// r2r::patch — the patcher of Fig. 2: maps the faulter's vulnerability list
// onto module items and applies the local protection patterns.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bir/module.h"
#include "fault/campaign.h"
#include "patch/patterns.h"

namespace r2r::patch {

struct PatchStats {
  std::map<PatternKind, std::uint64_t> applied;  ///< per-pattern counts
  std::vector<std::uint64_t> unpatchable;        ///< addresses left unprotected

  [[nodiscard]] std::uint64_t total_applied() const noexcept {
    std::uint64_t total = 0;
    for (const auto& [kind, count] : applied) total += count;
    return total;
  }
};

/// Applies one protection pattern per distinct vulnerable address.
/// Addresses must come from a campaign against the image produced by the
/// *latest* assemble() of `module` (item addresses are matched exactly).
/// Synthesized (countermeasure) items are never re-patched; their addresses
/// are reported in `unpatchable`.
PatchStats apply_patches(bir::Module& module,
                         const std::vector<fault::Vulnerability>& vulnerabilities);

/// Order-k analogue: reinforces each given static site once per call —
/// original instructions get the ordinary order-1 pattern, synthesized
/// countermeasure code gets the deeper redundancy patterns
/// (reinforce_instruction) at degree `order`. Sites with no applicable
/// reinforcement are reported in `unpatchable`; a fault set is only truly
/// unpatchable when all of its sites are. Sites come from
/// fault::tuple_patch_sites (callers may pre-filter, e.g. addresses the
/// order-1 patcher already protected in the same round).
PatchStats reinforce_sites(bir::Module& module, std::vector<std::uint64_t> sites,
                           std::uint64_t pair_window, unsigned order = 2);

}  // namespace r2r::patch
