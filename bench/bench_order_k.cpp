// Order-k ladder: the Faulter+Patcher loop at k = 1, 2, 3 on all three
// guests — the overhead-vs-k trajectory (how much code size each extra
// order of protection costs), order-3 sweep throughput (tuples/sec), and
// the recursive outcome-reuse prune rate on the hardened binaries.
//
// Self-checking (CI gates on the exit code):
//   * every guest must reach the order-1 and order-2 fix points with zero
//     residue;
//   * on each guest's order-2-hardened binary, the pruned and exhaustive
//     order-2 sweeps must be identical at 1 and 8 threads (the
//     reinforcement patterns must not break the engine's pruning
//     soundness);
//   * toymov must reach the order-3 fix point — zero residual triples
//     (skip model, pair window 8) — and record one OrderMilestone per
//     rung; pincheck and bootloader carry known residual-risk triples and
//     are reported, not gated;
//   * per-guest code-size overhead must be non-decreasing in k.
//
// Emits bench_order_k.json for the CI artifact.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "patch/pipeline.h"
#include "sim/engine.h"

namespace {

using namespace r2r;

patch::PipelineConfig ladder_config(unsigned order) {
  patch::PipelineConfig config;
  config.campaign.models.bit_flip = false;  // the paper's skip model
  config.campaign.models.order = order;
  config.campaign.models.pair_window = 8;
  config.campaign.threads = 0;
  config.max_iterations = 32;  // the ladder climbs one rung per clean sweep
  return config;
}

/// The residue the order-k run is judged on: singles at k = 1, top-level
/// tuples at k >= 2.
std::uint64_t residual_count(const patch::PipelineResult& result, unsigned order) {
  if (order == 1) return result.final_campaign.order1.vulnerabilities.size();
  return result.final_campaign.vulnerabilities.size();
}

/// Pruned vs exhaustive order-2 sweeps on `image`, at 1 and 8 threads: all
/// four runs must agree on the order-1 sweep, the outcome counts and every
/// successful pair (faults, golden and hit addresses). Returns false on
/// divergence.
bool order2_sweeps_identical(const elf::Image& image, const guests::Guest& guest) {
  sim::FaultModels models;
  models.bit_flip = false;
  models.order = 2;
  models.pair_window = 8;

  std::optional<sim::TupleCampaignResult> reference;
  for (const unsigned threads : {1u, 8u}) {
    for (const bool exhaustive : {false, true}) {
      sim::EngineConfig config;
      config.threads = threads;
      config.convergence_pruning = !exhaustive;
      config.pair_outcome_reuse = !exhaustive;
      sim::TupleCampaignResult result =
          sim::Engine(image, guest.good_input, guest.bad_input, config).run_tuples(models);
      if (!reference) {
        reference = std::move(result);
        continue;
      }
      if (result.vulnerabilities != reference->vulnerabilities ||
          result.outcome_counts != reference->outcome_counts ||
          result.order1.vulnerabilities != reference->order1.vulnerabilities ||
          result.order1.outcome_counts != reference->order1.outcome_counts) {
        std::printf("FAILED: order-2 sweep diverged on %s (threads=%u exhaustive=%d)\n",
                    guest.name.c_str(), threads, exhaustive ? 1 : 0);
        return false;
      }
    }
  }
  return true;
}

/// One timed order-3 sweep over `image` (skip model, window 8): fills
/// tuples/sec across every recursion level and the share of tuples the
/// recursive outcome reuse classified without simulation.
struct SweepFigures {
  double tuples_per_second = 0;
  double prune_rate = 0;  ///< reused / classified, over levels 2..k
  std::uint64_t classified = 0;
};

SweepFigures time_order3_sweep(const elf::Image& image, const guests::Guest& guest) {
  sim::FaultModels models;
  models.bit_flip = false;
  models.order = 3;
  models.pair_window = 8;
  sim::EngineConfig config;
  config.threads = 0;

  bench::Phase phase("bench.order3_sweep");
  const sim::Engine engine(image, guest.good_input, guest.bad_input, config);
  const sim::TupleCampaignResult result = engine.run_tuples(models);
  const double seconds = phase.stop();

  SweepFigures figures;
  std::uint64_t reused = 0;
  for (const sim::TupleLevelSummary& level : result.levels) {
    figures.classified += level.classified;
    reused += level.reused_suffix + level.reused_prefix;
  }
  figures.tuples_per_second =
      seconds > 0 ? static_cast<double>(figures.classified) / seconds : 0;
  figures.prune_rate = figures.classified != 0
                           ? static_cast<double>(reused) /
                                 static_cast<double>(figures.classified)
                           : 0;
  return figures;
}

void BM_Order3FixpointToymov(benchmark::State& state) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(patch::faulter_patcher(image, guest.good_input,
                                                    guest.bad_input, ladder_config(3)));
  }
}
BENCHMARK(BM_Order3FixpointToymov)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::enable_observability();
  bench::print_header(
      "Order-k ladder: overhead vs protection order on the guest corpus",
      "Fig. 2 loop generalised to k-tuple fault campaigns");

  bool ok = true;
  std::string json = "{\n  " + bench::target_field(isa::Arch::kX64) +
                     ",\n  \"pair_window\": 8,\n  \"guests\": [";
  bool first_guest = true;
  for (const guests::Guest* guest : guests::all_guests()) {
    const elf::Image input = guests::build_image(*guest);
    const bool gated = guest->name == "toymov";  // the order-3 clean gate

    if (!first_guest) json += ", ";
    first_guest = false;
    json += "{\n    \"guest\": \"" + guest->name + "\",\n    \"orders\": [";

    double previous_overhead = -1;
    patch::PipelineResult order3;
    for (unsigned order = 1; order <= 3; ++order) {
      bench::Phase phase("bench.fixpoint");
      patch::PipelineResult result = patch::faulter_patcher(
          input, guest->good_input, guest->bad_input, ladder_config(order));
      const double seconds = phase.stop();

      const std::uint64_t residual = residual_count(result, order);
      const bool clean = result.verdict();
      std::printf(
          "%-10s k=%u clean=%-3s residual=%llu overhead=%5.1f%% "
          "iterations=%zu %6.2fs\n",
          guest->name.c_str(), order, clean ? "yes" : "NO",
          static_cast<unsigned long long>(residual), result.overhead_percent(),
          result.iterations.size(), seconds);

      // Order 1 and 2 are gated on every guest; order 3 where the patterns
      // are known to close the space.
      if (order <= 2 && (!clean || residual != 0)) ok = false;
      if (order == 2) {
        const bool identical = order2_sweeps_identical(result.hardened, *guest);
        std::printf("%-10s order-2 sweeps pruned vs exhaustive, 1 vs 8 threads: %s\n",
                    guest->name.c_str(), identical ? "identical" : "DIVERGED");
        if (!identical) ok = false;
      }
      if (order == 3 && gated && (!clean || residual != 0)) ok = false;
      if (result.overhead_percent() + 1e-9 < previous_overhead) {
        std::printf("FAILED: overhead decreased from k=%u to k=%u on %s\n",
                    order - 1, order, guest->name.c_str());
        ok = false;
      }
      previous_overhead = result.overhead_percent();

      if (order != 1) json += ", ";
      json += "{\"order\": " + std::to_string(order);
      json += ", \"clean\": " + std::string(clean ? "true" : "false");
      json += ", \"residual\": " + std::to_string(residual);
      json += ", \"iterations\": " + std::to_string(result.iterations.size());
      json += ", \"overhead_percent\": " +
              support::format_fixed(result.overhead_percent(), 2);
      json += ", \"seconds\": " + support::format_fixed(seconds, 3) + "}";
      if (order == 3) order3 = std::move(result);
    }
    json += "]";

    // The overhead-vs-k trajectory as the ladder itself recorded it.
    if (gated && order3.order_milestones.empty()) {
      std::printf("FAILED: order-3 run recorded no milestones on %s\n",
                  guest->name.c_str());
      ok = false;
    }
    json += ",\n    \"milestones\": [";
    for (std::size_t i = 0; i < order3.order_milestones.size(); ++i) {
      const patch::OrderMilestone& m = order3.order_milestones[i];
      if (i != 0) json += ", ";
      json += "{\"order\": " + std::to_string(m.order);
      json += ", \"code_size\": " + std::to_string(m.code_size) + "}";
    }
    json += "]";

    // Sweep throughput and prune rate on the order-3-hardened binary.
    const SweepFigures figures = time_order3_sweep(order3.hardened, *guest);
    if (figures.classified == 0) {
      std::printf("FAILED: order-3 sweep classified nothing on %s\n",
                  guest->name.c_str());
      ok = false;
    }
    std::printf("%-10s order-3 sweep: %llu tuples, %.0f tuples/sec, "
                "prune rate %.1f%%\n",
                guest->name.c_str(),
                static_cast<unsigned long long>(figures.classified),
                figures.tuples_per_second, 100.0 * figures.prune_rate);
    json += ",\n    \"tuples_per_second\": " +
            support::format_fixed(figures.tuples_per_second, 0);
    json += ",\n    \"prune_rate\": " + support::format_fixed(figures.prune_rate, 4);
    json += "\n  }";
  }
  json += "]\n}\n";

  const char* json_path = "bench_order_k.json";
  std::ofstream out(json_path);
  out << bench::with_metrics_snapshot(json);
  out.close();
  std::printf("JSON written to %s\n", json_path);

  if (!ok) {
    std::printf("FAILED: an order-k gate did not hold (see lines above)\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
