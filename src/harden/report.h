// r2r::harden — plain-text table rendering for benches and EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace r2r::sim {
struct TupleCampaignResult;
}  // namespace r2r::sim

namespace r2r::patch {
struct PipelineResult;
}  // namespace r2r::patch

namespace r2r::harden {

/// Fixed-width text table: first row is the header.
class TextTable {
 public:
  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  [[nodiscard]] std::string render() const;
  /// GitHub-flavoured pipe table: compact (unpadded) cells with a `---`
  /// divider after the header — the `--markdown` rendering of every report
  /// surface, where the renderer handles alignment.
  [[nodiscard]] std::string render_markdown() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

// One renderer per report format, each covering every campaign order. The
// CLI subcommands, `r2r batch` and the r2rd service all render through
// these, so a daemon answer is byte-identical to the one-shot subcommand's
// (the JSON format is TupleCampaignResult::to_json / PipelineResult::to_json).

/// The campaign section of a hardening report. Order 1: outcome counters,
/// engine telemetry, and the vulnerable points merged by static address.
/// Order k >= 2: what the order-k sweep still finds — the per-level
/// reuse/sampling telemetry of the recursive sweep and the successful
/// k-tuples, merged by static address chain.
std::string campaign_section(const std::string& binary_name,
                             const sim::TupleCampaignResult& campaign);

/// Markdown rendering of campaign_section (same data as `###` headings +
/// pipe tables) — what `r2r --format markdown` and the batch summary
/// artifact are built from.
std::string campaign_markdown_section(const std::string& binary_name,
                                      const sim::TupleCampaignResult& campaign);

/// The fix-point trajectory section for a Faulter+Patcher run — the text
/// rendering of patch::PipelineResult. Order-1 runs get the paper's
/// per-iteration table; order-2+ runs the ladder trajectory (campaign
/// order, faults and residual fault sets found, implicated sites, patches
/// applied, code size), the order-k clean flag and the Table-V-style
/// overhead split, plus the overhead-vs-k milestones past order 2.
std::string fixpoint_section(const std::string& binary_name,
                             const patch::PipelineResult& result);
std::string fixpoint_markdown_section(const std::string& binary_name,
                                      const patch::PipelineResult& result);

/// The one-line `faulter+patcher:` summary of `r2r harden --patterns`:
/// iterations, fix-point, and the residue of the final campaign at the
/// order it swept (single faults, plus top-level tuples at order 2+).
std::string patterns_summary_line(const patch::PipelineResult& result);

}  // namespace r2r::harden
