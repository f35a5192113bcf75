// r2r::harden — the Hybrid compiler-binary approach end-to-end
// (Section IV-C, upper half of Fig. 3):
//
//   binary --lift--> IR --cleanup passes--> --countermeasure pass-->
//          --lower--> hardened binary
//
// Pass ordering note (the paper's Section IV-C.3 caveat about keeping
// countermeasures intact through code generation): cleanup passes that
// merge redundant loads (state promotion) or fold constants and
// identities (constant folding) run strictly *before* the hardening pass —
// running them after would collapse the duplicated checksum/comparison
// computations back into single instances and fold the checksum's
// `xor C1, C2` edge constants.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "elf/image.h"
#include "ir/ir.h"
#include "lift/lifter.h"
#include "lower/lower.h"
#include "passes/stats.h"

namespace r2r::harden {

enum class HybridCountermeasure : std::uint8_t {
  kNone,                    ///< lift+lower only (measures rewriting overhead)
  kBranchHardening,         ///< the paper's conditional branch hardening
  kInstructionDuplication,  ///< the >=300% baseline of Section V-C
};

/// The countermeasure's `--countermeasure` name. One table both parses the
/// flag (countermeasure_from) and names the pass on the report's
/// `hybrid (NAME)` line.
[[nodiscard]] std::string_view to_string(HybridCountermeasure countermeasure) noexcept;
/// Inverse of to_string; nullopt for a name no countermeasure has.
[[nodiscard]] std::optional<HybridCountermeasure> countermeasure_from(
    std::string_view name) noexcept;

struct HybridConfig {
  HybridCountermeasure countermeasure = HybridCountermeasure::kBranchHardening;
  bool cleanup = true;  ///< promotion, store elimination, folding, DCE before hardening
};

struct HybridResult {
  ir::Module module;  ///< final IR (after countermeasure passes)
  elf::Image hardened;
  std::uint64_t original_code_size = 0;
  std::uint64_t hardened_code_size = 0;
  passes::OpcodeCounts ir_before;  ///< op counts before the countermeasure
  passes::OpcodeCounts ir_after;   ///< op counts after the countermeasure

  [[nodiscard]] double overhead_percent() const noexcept {
    return elf::overhead_percent(original_code_size, hardened_code_size);
  }
};

/// Runs the full Hybrid pipeline on `input`.
HybridResult hybrid_harden(const elf::Image& input, const HybridConfig& config = {});

}  // namespace r2r::harden
