// r2r::harden — report sections and their text and markdown renderings.
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

/// The two styles a report renders in (JSON is each result's own
/// to_json()).
enum class Style { kText, kMarkdown };

/// A table whose first row is the header: fixed-width in text, a
/// GitHub-flavoured pipe table with a `---` divider in markdown.
class TextTable {
 public:
  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  [[nodiscard]] std::string render(Style style = Style::kText) const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// One report: a title followed by facts, notes and tables, in order. Every
/// report surface is built once as a Section and rendered in either style:
///   * text: the title line, facts indented two spaces, notes as they are,
///     fixed-width tables;
///   * markdown: `### <title>`, each run of facts and notes as one bullet
///     list, pipe tables, and a blank line between a list and a table.
/// An untitled section prints no title line.
class Section {
 public:
  explicit Section(std::string title = {}) : title_(std::move(title)) {}

  Section& fact(std::string line) { return add({Item::Kind::kFact, std::move(line), {}}); }
  Section& note(std::string line) { return add({Item::Kind::kNote, std::move(line), {}}); }
  Section& table(TextTable table) { return add({Item::Kind::kTable, {}, std::move(table)}); }

  [[nodiscard]] std::string render(Style style) const;

 private:
  struct Item {
    enum class Kind { kFact, kNote, kTable };
    Kind kind = Kind::kNote;
    std::string line;
    TextTable table;
  };
  Section& add(Item item) {
    items_.push_back(std::move(item));
    return *this;
  }

  std::string title_;
  std::vector<Item> items_;
};

// The CLI subcommands, `r2r batch` and the r2rd service all render through
// these, so a daemon answer is byte-identical to the one-shot subcommand's
// (the JSON format is TupleCampaignResult::to_json / PipelineResult::to_json).

/// The campaign section of a hardening report. Order 1: outcome counters,
/// engine telemetry, and the vulnerable points merged by static address.
/// Order k >= 2: what the order-k sweep still finds — the per-level
/// reuse/sampling telemetry of the recursive sweep and the successful
/// k-tuples, merged by static address chain.
std::string campaign_section(const std::string& binary_name,
                             const sim::TupleCampaignResult& campaign,
                             Style style = Style::kText);

/// The fix-point trajectory section of a Faulter+Patcher run, at the order
/// its final campaign swept (the requested order). Order 1 gets the paper's
/// per-iteration table; order k >= 2 the ladder trajectory (campaign order,
/// faults and residual fault sets found, implicated sites, patches applied,
/// code size), the order-k clean flag and the Table-V-style overhead —
/// split into order 1 and the order-k gap when rung 1 finished — plus the
/// overhead-vs-k milestones past order 2.
std::string fixpoint_section(const std::string& binary_name,
                             const patch::PipelineResult& result,
                             Style style = Style::kText);

/// The one-line `faulter+patcher:` summary of `r2r harden --patterns`:
/// iterations, fix-point, and the residue of the final campaign at the
/// order it swept (single faults, plus top-level tuples at order 2+).
std::string patterns_summary_line(const patch::PipelineResult& result);

}  // namespace r2r::harden
