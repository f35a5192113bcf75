#include "patch/patcher.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace r2r::patch {

namespace {

/// One reinforcement per distinct static address; re-resolved through
/// index_of_address per site because every application shifts indices (item
/// addresses are only rewritten by assemble(), so lookups stay valid).
PatchStats patch_addresses(bir::Module& module, std::vector<std::uint64_t> addresses,
                           const std::function<PatternKind(std::size_t)>& apply) {
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()), addresses.end());

  PatchStats stats;
  for (const std::uint64_t address : addresses) {
    const auto index = module.index_of_address(address);
    if (!index) {
      // The instruction no longer exists (e.g. replaced by an earlier patch
      // in this same round); nothing to do.
      stats.unpatchable.push_back(address);
      continue;
    }
    const PatternKind kind = apply(*index);
    if (kind == PatternKind::kNone) {
      stats.unpatchable.push_back(address);
    } else {
      ++stats.applied[kind];
    }
  }
  return stats;
}

}  // namespace

PatchStats apply_patches(bir::Module& module,
                         const std::vector<fault::Vulnerability>& vulnerabilities) {
  // One patch per static instruction, regardless of how many dynamic
  // occurrences / fault models hit it.
  std::vector<std::uint64_t> addresses;
  addresses.reserve(vulnerabilities.size());
  for (const auto& v : vulnerabilities) addresses.push_back(v.address);
  return patch_addresses(module, std::move(addresses), [&](std::size_t index) {
    return protect_instruction(module, index);
  });
}

PatchStats reinforce_sites(bir::Module& module, std::vector<std::uint64_t> sites,
                           std::uint64_t pair_window, unsigned order) {
  return patch_addresses(module, std::move(sites), [&](std::size_t index) {
    return reinforce_instruction(module, index, pair_window, order);
  });
}

}  // namespace r2r::patch
