#include "harden/report.h"

#include "patch/pipeline.h"
#include "sim/engine.h"
#include "support/strings.h"

namespace r2r::harden {

std::string TextTable::render(Style style) const {
  // Text pads every cell to its column's width; markdown leaves the cells
  // compact, since the markdown renderer aligns them. Short rows get empty
  // cells in both styles: a pipe row with fewer cells than the header is
  // malformed GFM.
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size() && style == Style::kText; ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out += " " + cell + std::string(widths[c] - std::min(widths[c], cell.size()), ' ') +
             " |";
    }
    out += "\n";
    if (r == 0) {
      out += "|";
      for (const std::size_t width : widths) {
        out += style == Style::kText ? std::string(width + 2, '-') + "|" : " --- |";
      }
      out += "\n";
    }
  }
  return out;
}

std::string Section::render(Style style) const {
  const bool text = style == Style::kText;
  std::string out;
  if (!title_.empty()) out += (text ? "" : "### ") + title_ + "\n";
  bool in_list = false;
  for (const Item& item : items_) {
    const bool is_table = item.kind == Item::Kind::kTable;
    // Markdown: a blank line before each table and each run of facts and
    // notes, which is one bullet list.
    if (!text && !out.empty() && (is_table || !in_list)) out += "\n";
    in_list = !is_table;
    if (is_table) {
      out += item.table.render(style);
    } else {
      out += (!text ? "- " : item.kind == Item::Kind::kFact ? "  " : "") + item.line + "\n";
    }
  }
  return out;
}

namespace {

harden::TextTable outcome_table(const std::string& header,
                                const std::map<sim::Outcome, std::uint64_t>& counts) {
  TextTable table;
  table.add_row({header, "count"});
  for (const auto& [outcome, count] : counts) {
    table.add_row({std::string(sim::to_string(outcome)), std::to_string(count)});
  }
  return table;
}

std::string address_chain(const std::vector<std::uint64_t>& addresses) {
  std::string out;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (i != 0) out += " -> ";
    out += support::hex_string(addresses[i]);
  }
  return out;
}

harden::TextTable vulnerable_tuple_table(const sim::TupleCampaignResult& tuples) {
  TextTable table;
  table.add_row({"fault addresses", "successful tuples"});
  for (const auto& [addresses, count] : tuples.merged_vulnerable_tuples()) {
    table.add_row({address_chain(addresses), std::to_string(count)});
  }
  return table;
}

/// Per-level reuse telemetry of the recursive sweep, one clause per order.
std::string tuple_level_summary_line(const sim::TupleCampaignResult& tuples) {
  std::string out;
  for (const sim::TupleLevelSummary& level : tuples.levels) {
    if (!out.empty()) out += "; ";
    out += "order " + std::to_string(level.order) + ": " +
           std::to_string(level.classified) + " classified (" +
           std::to_string(level.successful) + " successful)";
    if (level.sampled) out += " [sampled]";
  }
  return out;
}

/// The overhead-vs-k trajectory line, rendered only for order-3+ runs.
std::string milestone_line(const patch::PipelineResult& result) {
  std::string out;
  for (const patch::OrderMilestone& milestone : result.order_milestones) {
    if (!out.empty()) out += " -> ";
    const double overhead =
        elf::overhead_percent(result.original_code_size, milestone.code_size);
    out += "order " + std::to_string(milestone.order) + " " +
           std::to_string(milestone.code_size) + " B (" +
           support::format_fixed(overhead, 1) + "%)";
  }
  return out;
}

harden::TextTable vulnerable_point_table(const sim::CampaignResult& campaign) {
  TextTable table;
  table.add_row({"address", "hits", "by kind"});
  for (const auto& report : campaign.merged_by_address()) {
    std::string kinds;
    for (const auto& [kind, count] : report.by_kind) {
      if (!kinds.empty()) kinds += ", ";
      kinds += std::string(sim::kind_name(kind)) + " x" + std::to_string(count);
    }
    table.add_row({support::hex_string(report.address), std::to_string(report.hits),
                   kinds});
  }
  return table;
}

/// The paper's per-iteration table of an order-1 run.
harden::TextTable order1_iteration_table(const patch::PipelineResult& result) {
  TextTable table;
  table.add_row({"iteration", "faults", "points", "patched", "unpatchable", "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.successful_faults),
                   std::to_string(it.vulnerable_points),
                   std::to_string(it.patches_applied),
                   std::to_string(it.unpatchable_points), std::to_string(it.code_size)});
  }
  return table;
}

/// The ladder's per-iteration table of an order-2+ run: order, faults,
/// residual top-level fault sets ("2/500") and implicated sites ("-" on
/// order-1 rows), patches, code size.
harden::TextTable ladder_table(const patch::PipelineResult& result) {
  TextTable table;
  table.add_row({"iteration", "order", "faults", "sets", "sites", "patched", "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    const bool order1 = it.order < 2;
    table.add_row(
        {std::to_string(i), std::to_string(it.order), std::to_string(it.successful_faults),
         order1 ? "-"
                : std::to_string(it.successful_tuples) + "/" + std::to_string(it.total_tuples),
         order1 ? "-" : std::to_string(it.tuple_patch_sites),
         std::to_string(it.patches_applied), std::to_string(it.code_size)});
  }
  return table;
}

}  // namespace

std::string campaign_section(const std::string& binary_name,
                             const sim::TupleCampaignResult& campaign, Style style) {
  if (campaign.order < 2) {
    const sim::CampaignResult& order1 = campaign.order1;
    Section section("fault campaign: " + binary_name);
    section.fact("faults: " + std::to_string(order1.total_faults) + " over " +
                 std::to_string(order1.trace_length) + " trace entries (" +
                 std::to_string(order1.count(sim::Outcome::kSuccess)) + " successful at " +
                 std::to_string(order1.vulnerable_addresses().size()) + " point(s))");
    section.fact("engine: checkpoint interval " + std::to_string(order1.checkpoint_interval) +
                 ", " + std::to_string(order1.snapshot_count) + " snapshots, " +
                 std::to_string(order1.pruned_faults) + " runs convergence-pruned");
    section.table(outcome_table("outcome", order1.outcome_counts));
    if (order1.vulnerabilities.empty()) {
      section.note("no vulnerabilities.");
    } else {
      section.table(vulnerable_point_table(order1));
    }
    return section.render(style);
  }
  const std::string k = std::to_string(campaign.order);
  Section section("residual " + k + "-tuple campaign: " + binary_name);
  section.fact("order-1 faults: " + std::to_string(campaign.order1.total_faults) + " (" +
               std::to_string(campaign.order1.count(sim::Outcome::kSuccess)) +
               " successful)");
  section.fact("order-" + k + " tuples: " + std::to_string(campaign.total_tuples) +
               " within window " + std::to_string(campaign.pair_window) + " (" +
               std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful, " +
               std::to_string(campaign.strictly_higher_order().size()) +
               " invisible to order 1)");
  section.fact("levels:         " + tuple_level_summary_line(campaign));
  const double reuse_rate =
      campaign.total_tuples == 0
          ? 0.0
          : 100.0 * static_cast<double>(campaign.reused_tuples()) /
                static_cast<double>(campaign.total_tuples);
  section.fact("pruning:        " + std::to_string(campaign.reused_tuples()) +
               " tuples reused from lower-order profiles (" +
               support::format_fixed(reuse_rate, 1) + "%), " +
               std::to_string(campaign.simulated_tuples()) + " simulated");
  if (campaign.sampled) {
    section.fact("sampling:       seeded sample of " +
                 std::to_string(campaign.total_tuples) + " / " +
                 std::to_string(campaign.enumerated_tuples) + " tuples (--max-tuples " +
                 std::to_string(campaign.max_tuples) + ", seed " +
                 std::to_string(campaign.sample_seed) + ")");
  }
  if (!campaign.vulnerabilities.empty()) {
    std::string sites;
    for (const std::uint64_t site : campaign.patch_sites()) {
      if (!sites.empty()) sites += ", ";
      sites += support::hex_string(site);
    }
    if (sites.empty()) sites = "none (every successful tuple contains an order-1 vulnerability)";
    section.fact("patch sites:    " + sites);
  }
  section.table(outcome_table("tuple outcome", campaign.outcome_counts));
  if (campaign.vulnerabilities.empty()) {
    section.note("no residual " + k + "-tuple vulnerabilities.");
  } else {
    section.table(vulnerable_tuple_table(campaign));
  }
  return section.render(style);
}

std::string fixpoint_section(const std::string& binary_name,
                             const patch::PipelineResult& result, Style style) {
  const std::string fixpoint = result.fixpoint ? "yes" : "NO (cap hit)";
  const std::string overhead = support::format_fixed(result.overhead_percent(), 1) + "%";
  const unsigned order = result.final_campaign.order;
  if (order < 2) {
    Section section("fix-point trajectory: " + binary_name);
    section.table(order1_iteration_table(result));
    section.fact("fix-point: " + fixpoint);
    section.fact("code size: " + std::to_string(result.original_code_size) + " -> " +
                 std::to_string(result.hardened_code_size) + " bytes (overhead " +
                 overhead + ")");
    return section.render(style);
  }
  // Order k >= 2: the ladder trajectory plus what order-1 hardening cost
  // and what closing the order-k gap added on top (once rung 1 finished).
  const std::string order_k = "order-" + std::to_string(order);
  Section section(order_k + " fix-point trajectory: " + binary_name);
  section.table(ladder_table(result));
  section.fact("fix-point: " + fixpoint + ", " + order_k +
               " clean: " + (result.orderk_fixpoint() ? "yes" : "NO"));
  if (result.order1_code_size() != 0) {
    const std::string points =
        "+" + support::format_fixed(result.order2_overhead_delta_percent(), 1) + " points";
    section.fact("overhead (Table-V style): order-1 " +
                 support::format_fixed(result.order1_overhead_percent(), 1) + "% -> " +
                 order_k + " " + overhead + " (" +
                 (result.orderk_fixpoint()
                      ? points + " for closing the " + order_k + " gap)"
                      : points + " spent, the " + order_k + " gap stays open)"));
  } else {
    section.fact("overhead (Table-V style): " + overhead);
  }
  if (order >= 3 && !result.order_milestones.empty()) {
    section.fact("overhead vs k:  " + milestone_line(result));
  }
  return section.render(style);
}

std::string patterns_summary_line(const patch::PipelineResult& result) {
  std::string out = "faulter+patcher: " + std::to_string(result.iterations.size()) +
                    " iteration(s), fix-point " +
                    (result.fixpoint ? "reached" : "NOT reached (cap hit)") +
                    ", residual " +
                    std::to_string(result.final_campaign.order1.vulnerabilities.size()) +
                    " fault(s)";
  if (result.final_campaign.order >= 2) {
    out += " / " + std::to_string(result.final_campaign.vulnerabilities.size()) +
           " tuple(s)";
  }
  return out + "\n";
}

}  // namespace r2r::harden
