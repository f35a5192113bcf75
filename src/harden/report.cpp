#include "harden/report.h"

#include "patch/pipeline.h"
#include "sim/engine.h"
#include "support/strings.h"

namespace r2r::harden {

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    out += "\n";
    if (r == 0) {
      out += "|";
      for (const std::size_t width : widths) {
        out += std::string(width + 2, '-') + "|";
      }
      out += "\n";
    }
  }
  return out;
}

std::string TextTable::render_markdown() const {
  // Like render(), short rows are padded with empty cells: a pipe row with
  // fewer cells than the header is malformed GFM.
  std::size_t columns = 0;
  for (const auto& row : rows_) columns = std::max(columns, row.size());
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out += "|";
    for (std::size_t c = 0; c < columns; ++c) {
      out += " " + (c < row.size() ? row[c] : std::string{}) + " |";
    }
    out += "\n";
    if (r == 0) {
      out += "|";
      for (std::size_t c = 0; c < columns; ++c) out += " --- |";
      out += "\n";
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

/// The highest campaign order this pipeline run swept — what picks the
/// fix-point rendering (order-1 table, or the ladder table with its
/// order-k extras).
unsigned max_iteration_order(const patch::PipelineResult& result) {
  unsigned order = result.order1_code_size != 0 ? 2 : 1;
  for (const patch::IterationReport& it : result.iterations) {
    order = std::max(order, it.order);
  }
  for (const patch::OrderMilestone& milestone : result.order_milestones) {
    order = std::max(order, milestone.order);
  }
  return order;
}

/// "2/500"-style residual column: top-level fault sets for order-2+ rows,
/// "-" for order-1 rows.
std::string residual_cell(const patch::IterationReport& it) {
  if (it.order < 2) return "-";
  return std::to_string(it.successful_tuples) + "/" + std::to_string(it.total_tuples);
}

std::string sites_cell(const patch::IterationReport& it) {
  return it.order < 2 ? "-" : std::to_string(it.tuple_patch_sites);
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

/// The ladder's per-iteration table (order, faults, residual sets, sites,
/// patches, code size), shared by the text and markdown fix-point sections.
harden::TextTable ladder_table(const patch::PipelineResult& result) {
  TextTable table;
  table.add_row({"iteration", "order", "faults", "sets", "sites", "patched", "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.order),
                   std::to_string(it.successful_faults), residual_cell(it),
                   sites_cell(it), std::to_string(it.patches_applied),
                   std::to_string(it.code_size)});
  }
  return table;
}

std::string order1_campaign_section(const std::string& binary_name,
                                    const sim::CampaignResult& campaign) {
  std::string out = "fault campaign: " + binary_name + "\n";
  out += "  faults: " + std::to_string(campaign.total_faults) + " over " +
         std::to_string(campaign.trace_length) + " trace entries (" +
         std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful at " +
         std::to_string(campaign.vulnerable_addresses().size()) + " point(s))\n";
  out += "  engine: checkpoint interval " + std::to_string(campaign.checkpoint_interval) +
         ", " + std::to_string(campaign.snapshot_count) + " snapshots, " +
         std::to_string(campaign.pruned_faults) + " runs convergence-pruned\n";
  out += outcome_table("outcome", campaign.outcome_counts).render();
  if (campaign.vulnerabilities.empty()) {
    out += "no vulnerabilities.\n";
    return out;
  }
  out += vulnerable_point_table(campaign).render();
  return out;
}

std::string order1_campaign_markdown_section(const std::string& binary_name,
                                             const sim::CampaignResult& campaign) {
  std::string out = "### Fault campaign: " + binary_name + "\n\n";
  out += std::to_string(campaign.total_faults) + " faults over " +
         std::to_string(campaign.trace_length) + " trace entries; **" +
         std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful** at " +
         std::to_string(campaign.vulnerable_addresses().size()) +
         " vulnerable point(s). Engine: checkpoint interval " +
         std::to_string(campaign.checkpoint_interval) + ", " +
         std::to_string(campaign.snapshot_count) + " snapshots, " +
         std::to_string(campaign.pruned_faults) + " runs convergence-pruned.\n\n";
  out += outcome_table("outcome", campaign.outcome_counts).render_markdown();
  if (!campaign.vulnerabilities.empty()) {
    out += "\n" + vulnerable_point_table(campaign).render_markdown();
  }
  return out;
}

/// The order-2+ fix-point section: the per-iteration trajectory of the
/// ladder-aware Faulter+Patcher loop plus the Table-V-style overhead split
/// — what order-1 hardening cost, and what closing the higher-order gap
/// added on top. Runs that climbed past order 2 also get the
/// overhead-vs-k milestone trajectory.
std::string ladder_fixpoint_section(const std::string& binary_name,
                                    const patch::PipelineResult& result) {
  const unsigned max_order = max_iteration_order(result);
  const std::string order_k = "order-" + std::to_string(max_order);
  std::string out = order_k + " fix-point trajectory: " + binary_name + "\n";
  out += ladder_table(result).render();
  out += "  fix-point: " + std::string(result.fixpoint ? "yes" : "NO (cap hit)") + ", " +
         order_k + " clean: " + std::string(result.orderk_fixpoint ? "yes" : "NO") + "\n";
  out += "  overhead (Table-V style): order-1 " +
         support::format_fixed(result.order1_overhead_percent(), 1) + "% -> " + order_k +
         " " + support::format_fixed(result.overhead_percent(), 1) + "% (+" +
         support::format_fixed(result.order2_overhead_delta_percent(), 1) +
         " points for closing the " + order_k + " gap)\n";
  if (max_order >= 3 && !result.order_milestones.empty()) {
    out += "  overhead vs k:  " + milestone_line(result) + "\n";
  }
  return out;
}

}  // namespace

std::string campaign_section(const std::string& binary_name,
                             const sim::TupleCampaignResult& campaign) {
  if (campaign.order < 2) return order1_campaign_section(binary_name, campaign.order1);
  const std::string k = std::to_string(campaign.order);
  std::string out = "residual " + k + "-tuple campaign: " + binary_name + "\n";
  out += "  order-1 faults: " + std::to_string(campaign.order1.total_faults) + " (" +
         std::to_string(campaign.order1.count(sim::Outcome::kSuccess)) + " successful)\n";
  out += "  order-" + k + " tuples: " + std::to_string(campaign.total_tuples) +
         " within window " + std::to_string(campaign.pair_window) + " (" +
         std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful, " +
         std::to_string(campaign.strictly_higher_order().size()) +
         " invisible to order 1)\n";
  out += "  levels:         " + tuple_level_summary_line(campaign) + "\n";
  const double reuse_rate =
      campaign.total_tuples == 0
          ? 0.0
          : 100.0 * static_cast<double>(campaign.reused_tuples()) /
                static_cast<double>(campaign.total_tuples);
  out += "  pruning:        " + std::to_string(campaign.reused_tuples()) +
         " tuples reused from lower-order profiles (" +
         support::format_fixed(reuse_rate, 1) + "%), " +
         std::to_string(campaign.simulated_tuples()) + " simulated\n";
  if (campaign.sampled) {
    out += "  sampling:       seeded sample of " + std::to_string(campaign.total_tuples) +
           " / " + std::to_string(campaign.enumerated_tuples) +
           " tuples (--max-tuples " + std::to_string(campaign.max_tuples) + ", seed " +
           std::to_string(campaign.sample_seed) + ")\n";
  }
  if (!campaign.vulnerabilities.empty()) {
    out += "  patch sites:    ";
    const auto sites = campaign.patch_sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i != 0) out += ", ";
      out += support::hex_string(sites[i]);
    }
    out += "\n";
  }

  out += outcome_table("tuple outcome", campaign.outcome_counts).render();
  if (campaign.vulnerabilities.empty()) {
    out += "no residual " + k + "-tuple vulnerabilities.\n";
    return out;
  }
  out += vulnerable_tuple_table(campaign).render();
  return out;
}

std::string campaign_markdown_section(const std::string& binary_name,
                                      const sim::TupleCampaignResult& campaign) {
  if (campaign.order < 2) {
    return order1_campaign_markdown_section(binary_name, campaign.order1);
  }
  std::string out = "### " + std::to_string(campaign.order) +
                    "-tuple fault campaign: " + binary_name + "\n\n";
  out += std::to_string(campaign.total_tuples) + " tuples within window " +
         std::to_string(campaign.pair_window) + " over " +
         std::to_string(campaign.trace_length) + " trace entries; **" +
         std::to_string(campaign.count(sim::Outcome::kSuccess)) + " successful**, " +
         std::to_string(campaign.strictly_higher_order().size()) +
         " invisible to order 1. Order-1 phase: " +
         std::to_string(campaign.order1.total_faults) + " faults, " +
         std::to_string(campaign.order1.count(sim::Outcome::kSuccess)) +
         " successful. Levels: " + tuple_level_summary_line(campaign) +
         ". Pruning: " + std::to_string(campaign.reused_tuples()) +
         " tuples reused from lower-order profiles, " +
         std::to_string(campaign.simulated_tuples()) + " simulated.";
  if (campaign.sampled) {
    out += " Sampling: " + std::to_string(campaign.total_tuples) + " / " +
           std::to_string(campaign.enumerated_tuples) + " tuples (max " +
           std::to_string(campaign.max_tuples) + ", seed " +
           std::to_string(campaign.sample_seed) + ").";
  }
  out += "\n\n";
  out += outcome_table("tuple outcome", campaign.outcome_counts).render_markdown();
  if (!campaign.vulnerabilities.empty()) {
    out += "\n" + vulnerable_tuple_table(campaign).render_markdown();
  }
  return out;
}

std::string fixpoint_section(const std::string& binary_name,
                             const patch::PipelineResult& result) {
  // Order-2+ runs get the ladder trajectory section; order-1 runs the
  // paper's per-iteration table.
  if (result.order1_code_size != 0) return ladder_fixpoint_section(binary_name, result);
  std::string out = "fix-point trajectory: " + binary_name + "\n";
  TextTable table;
  table.add_row({"iteration", "faults", "points", "patched", "unpatchable", "code bytes"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.successful_faults),
                   std::to_string(it.vulnerable_points),
                   std::to_string(it.patches_applied),
                   std::to_string(it.unpatchable_points), std::to_string(it.code_size)});
  }
  out += table.render();
  out += "  fix-point: " + std::string(result.fixpoint ? "yes" : "NO (cap hit)") + "\n";
  out += "  code size: " + std::to_string(result.original_code_size) + " -> " +
         std::to_string(result.hardened_code_size) + " bytes (overhead " +
         support::format_fixed(result.overhead_percent(), 1) + "%)\n";
  return out;
}

std::string fixpoint_markdown_section(const std::string& binary_name,
                                      const patch::PipelineResult& result) {
  std::string out = "### Faulter+Patcher fix-point: " + binary_name + "\n\n";
  const unsigned max_order = max_iteration_order(result);
  const std::string order_k = "order-" + std::to_string(max_order);
  out += ladder_table(result).render_markdown();
  out += "\nFix-point: **" + std::string(result.fixpoint ? "yes" : "NO (cap hit)") + "**";
  if (max_order >= 2) {
    out += "; " + order_k + " clean: **" +
           std::string(result.orderk_fixpoint ? "yes" : "NO") + "**";
  }
  out += ". Overhead (Table-V style): " +
         support::format_fixed(result.overhead_percent(), 1) + "%";
  if (result.order1_code_size != 0) {
    out += " (order-1 " + support::format_fixed(result.order1_overhead_percent(), 1) +
           "% + " + support::format_fixed(result.order2_overhead_delta_percent(), 1) +
           " points for closing the " + order_k + " gap)";
  }
  out += ".";
  if (max_order >= 3 && !result.order_milestones.empty()) {
    out += " Overhead vs k: " + milestone_line(result) + ".";
  }
  out += "\n";
  return out;
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
