#include "patch/pipeline.h"

#include <algorithm>
#include <utility>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "obs/obs.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::patch {

namespace {

IterationReport make_report(const fault::TupleCampaignResult& campaign,
                            std::uint64_t code_size) {
  IterationReport report;
  report.order = campaign.order;
  report.successful_faults = campaign.order1.vulnerabilities.size();
  report.vulnerable_points = campaign.order1.vulnerable_addresses().size();
  report.code_size = code_size;
  report.total_tuples = campaign.total_tuples;
  report.successful_tuples = campaign.vulnerabilities.size();
  return report;
}

/// Lowest campaign order with a successful fault set, or 0 when the
/// campaign is clean at every level it swept (singles, then every level
/// 2..k; the top level's successes are both the last level summary and
/// `vulnerabilities`).
unsigned lowest_dirty_order(const fault::TupleCampaignResult& campaign) {
  if (!campaign.order1.vulnerabilities.empty()) return 1;
  for (const fault::TupleLevelSummary& level : campaign.levels) {
    if (level.successful != 0) return level.order;
  }
  return 0;
}

/// Latest-wins milestone bookkeeping: the ladder can drop back and re-prove
/// an order clean at a larger code size; the trajectory reports the size
/// that finally stuck.
void record_milestone(std::vector<OrderMilestone>& milestones, unsigned order,
                      std::uint64_t code_size) {
  for (OrderMilestone& milestone : milestones) {
    if (milestone.order == order) {
      milestone.code_size = code_size;
      return;
    }
  }
  milestones.push_back({order, code_size});
  std::sort(milestones.begin(), milestones.end(),
            [](const OrderMilestone& a, const OrderMilestone& b) {
              return a.order < b.order;
            });
}

}  // namespace

PipelineResult faulter_patcher(const elf::Image& input, const std::string& good_input,
                               const std::string& bad_input,
                               const PipelineConfig& config) {
  const unsigned requested_order = config.campaign.models.order;
  support::check(requested_order >= 1 && requested_order <= fault::kMaxCampaignOrder,
                 support::ErrorKind::kExecution,
                 "faulter_patcher: campaign.models.order must be 1.." +
                     std::to_string(fault::kMaxCampaignOrder));

  obs::Span run_span("fixpoint.run");
  static obs::Counter& iterations_total =
      obs::Metrics::instance().counter("fixpoint.iterations");
  static obs::Counter& patches_total =
      obs::Metrics::instance().counter("fixpoint.patches_applied");

  PipelineResult result;
  result.original_code_size = input.code_size();
  result.module = bir::recover(input);

  // The order ladder. Each iteration sweeps fault sets at the current rung
  // m, patches every order-1 vulnerability, maps every residual
  // strictly-order-m set back to its static sites (every address its faults
  // actually struck) and reinforces them at redundancy degree m. Rung 1 is
  // the paper's Fig. 2 loop: its order-1 sweeps cost a fraction of a set
  // sweep and carry no sets, so only apply_patches acts on them.
  // The order-1 sweep is phase A of every higher-order sweep — and at order
  // >= 3 every level 2..m-1 is swept on the way up — so regressions
  // reinforcement introduces at a cheaper order are caught in the same pass
  // and send the ladder back down to the lowest dirty rung, never below 2.
  // A rung proven clean advances the ladder and records its code size as
  // that order's milestone (the overhead-vs-k trajectory).
  unsigned rung = 1;
  fault::CampaignConfig campaign_config = config.campaign;
  // The last iteration's image and sweep; when the loop stops (sets
  // result.fixpoint) they describe the final module.
  elf::Image image;
  fault::TupleCampaignResult campaign;
  for (unsigned iteration = 0; iteration < config.max_iterations; ++iteration) {
    campaign_config.models.order = rung;
    obs::Span iter_span("fixpoint.iteration",
                        obs::args_u64({{"iteration", iteration}, {"order", rung}}));
    iterations_total.add(1);
    image = bir::assemble(result.module);
    campaign = [&] {
      obs::Span span("fixpoint.campaign");
      return fault::run_campaign(image, good_input, bad_input, campaign_config);
    }();

    IterationReport report = make_report(campaign, image.code_size());
    iter_span.set_args(obs::args_u64(
        {{"iteration", iteration},
         {"order", rung},
         {"successful_faults", report.successful_faults},
         {"successful_tuples", report.successful_tuples}}));
    // Reinforce only the strictly-order-m sets: a set one of whose faults
    // succeeds alone is just that order-1 vulnerability republished
    // (reuse-from-first pads it with golden addresses the later faults
    // never strike) — the order-1 patcher owns those sites.
    const std::vector<fault::TupleVulnerability> strict = campaign.strictly_higher_order();
    report.strictly_order_k = strict.size();
    std::vector<std::uint64_t> sites = fault::tuple_patch_sites(strict);
    report.tuple_patch_sites = sites.size();

    const unsigned dirty_order = lowest_dirty_order(campaign);
    if (dirty_order != 0) {
      obs::Span patch_span("fixpoint.patch");
      PatchStats stats = apply_patches(result.module, campaign.order1.vulnerabilities);
      // A site can be order-1 vulnerable *and* set-implicated (a different
      // fault kind at the same address); the order-1 patcher just protected
      // those, so reinforcing them again would stack the identical pattern
      // twice in one pass. Sites apply_patches could not handle stay:
      // synthesized code it refuses is exactly what reinforcement is for.
      std::vector<std::uint64_t> patched = campaign.order1.vulnerable_addresses();
      for (const std::uint64_t address : stats.unpatchable) {
        patched.erase(std::remove(patched.begin(), patched.end(), address),
                      patched.end());
      }
      sites.erase(std::remove_if(sites.begin(), sites.end(),
                                 [&](std::uint64_t site) {
                                   return std::binary_search(patched.begin(),
                                                             patched.end(), site);
                                 }),
                  sites.end());
      const PatchStats reinforce_stats = reinforce_sites(
          result.module, std::move(sites), config.campaign.models.pair_window, rung);
      patch_span.end();
      for (const auto& [kind, count] : reinforce_stats.applied) {
        stats.applied[kind] += count;
      }
      report.patches_applied = stats.total_applied();
      patches_total.add(stats.total_applied());
      // An address can be unpatchable to both passes; count it once.
      std::vector<std::uint64_t> unpatchable = stats.unpatchable;
      unpatchable.insert(unpatchable.end(), reinforce_stats.unpatchable.begin(),
                         reinforce_stats.unpatchable.end());
      std::sort(unpatchable.begin(), unpatchable.end());
      unpatchable.erase(std::unique(unpatchable.begin(), unpatchable.end()),
                        unpatchable.end());
      report.unpatchable_points = unpatchable.size();
      result.iterations.push_back(report);

      // Resume at the lowest dirty rung (never below 2 — singles ride along
      // in every sweep) so cheap sweeps clear cheap regressions before the
      // next expensive order-m sweep. When nothing was patched because this
      // sweep's top level is clean but an intermediate level still succeeds
      // (no fault set to map to sites), that rung's own sweep exposes the
      // level's sets as top-level vulnerabilities the patcher can reach.
      const bool drop_back = dirty_order >= 2 && dirty_order < rung;
      if (drop_back) rung = dirty_order;
      if (stats.total_applied() != 0 || drop_back) continue;
      if (rung >= 2) {
        // No patch or reinforcement left anywhere: a fix-point with
        // residual risk (e.g. an unpatchable order-1 bit-flip residue,
        // whose republished sets are filtered above, so the loop does not
        // burn the cap re-sweeping a binary it cannot improve).
        result.fixpoint = true;
        break;
      }
      // Rung 1 with every vulnerability unpatchable: the paper's fix-point
      // with residual risk (its single-bit-flip case). It ends rung 1 like
      // a clean sweep does, so a higher requested order still climbs.
    } else {
      result.iterations.push_back(report);
    }

    if (requested_order >= 2) {
      record_milestone(result.order_milestones, rung, image.code_size());
    }
    if (rung >= requested_order) {
      result.fixpoint = true;
      break;
    }
    ++rung;  // rung done — climb (re-sweeping the same image)
  }

  // One tail for every exit: the final campaign is a sweep of the final
  // module at the *requested* order, so an order-k caller always gets
  // order-k data. A stopped loop's last sweep already is one unless it
  // stopped on a lower rung (nothing left to patch); a run that hit the
  // cap re-sweeps its last patched module.
  const bool stopped = result.fixpoint;
  result.hardened = stopped ? std::move(image) : bir::assemble(result.module);
  if (stopped && campaign.order == requested_order) {
    result.final_campaign = std::move(campaign);
  } else {
    result.final_campaign =
        fault::run_campaign(result.hardened, good_input, bad_input, config.campaign);
  }
  if (!stopped) {
    // A clean final campaign is a genuine fix-point even at the cap.
    const bool clean = lowest_dirty_order(result.final_campaign) == 0;
    result.fixpoint = clean;
    if (clean && requested_order >= 2) {
      record_milestone(result.order_milestones, requested_order,
                       result.hardened.code_size());
    }
  }
  result.hardened_code_size = result.hardened.code_size();
  return result;
}

bool PipelineResult::orderk_fixpoint() const noexcept {
  return final_campaign.order >= 2 && lowest_dirty_order(final_campaign) == 0;
}

std::uint64_t PipelineResult::order1_code_size() const noexcept {
  for (const OrderMilestone& milestone : order_milestones) {
    if (milestone.order == 1) return milestone.code_size;
  }
  return 0;
}

std::string PipelineResult::to_json() const {
  std::string json = "{\n";
  json += "  \"fixpoint\": " + std::string(fixpoint ? "true" : "false") + ",\n";
  json += "  \"orderk_fixpoint\": " + std::string(orderk_fixpoint() ? "true" : "false") +
          ",\n";
  json += "  \"original_code_size\": " + std::to_string(original_code_size) + ",\n";
  json += "  \"order1_code_size\": " + std::to_string(order1_code_size()) + ",\n";
  json += "  \"hardened_code_size\": " + std::to_string(hardened_code_size) + ",\n";
  json += "  \"overhead_percent\": " + support::format_fixed(overhead_percent(), 1) +
          ",\n";
  json += "  \"order1_overhead_percent\": " +
          support::format_fixed(order1_overhead_percent(), 1) + ",\n";
  json += "  \"order2_overhead_delta_percent\": " +
          support::format_fixed(order2_overhead_delta_percent(), 1) + ",\n";
  json += "  \"order_milestones\": [";
  for (std::size_t i = 0; i < order_milestones.size(); ++i) {
    const OrderMilestone& milestone = order_milestones[i];
    const double overhead = elf::overhead_percent(original_code_size, milestone.code_size);
    if (i != 0) json += ", ";
    json += "{\"order\": " + std::to_string(milestone.order) +
            ", \"code_size\": " + std::to_string(milestone.code_size) +
            ", \"overhead_percent\": " + support::format_fixed(overhead, 1) + "}";
  }
  json += "],\n";
  json += "  \"iterations\": [\n";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const IterationReport& it = iterations[i];
    json += "    {\"order\": " + std::to_string(it.order) +
            ", \"successful_faults\": " + std::to_string(it.successful_faults) +
            ", \"vulnerable_points\": " + std::to_string(it.vulnerable_points) +
            ", \"patches_applied\": " + std::to_string(it.patches_applied) +
            ", \"unpatchable_points\": " + std::to_string(it.unpatchable_points) +
            ", \"code_size\": " + std::to_string(it.code_size) +
            ", \"total_tuples\": " + std::to_string(it.total_tuples) +
            ", \"successful_tuples\": " + std::to_string(it.successful_tuples) +
            ", \"strictly_order_k\": " + std::to_string(it.strictly_order_k) +
            ", \"tuple_patch_sites\": " + std::to_string(it.tuple_patch_sites) + "}";
    json += i + 1 < iterations.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"final_campaign\": " + support::nest_json(final_campaign.to_json()) + "\n}\n";
  return json;
}

}  // namespace r2r::patch
