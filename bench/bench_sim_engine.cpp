// Snapshot-based fault-simulation engine vs the seed full-replay sweep.
//
// The seed faulter replayed the guest from entry for every planned fault —
// O(trace²) emulated instructions per campaign. The sim:: engine rehydrates
// each injection from the nearest copy-on-write checkpoint and prunes
// faulted runs that reconverge with the golden run at the next checkpoint
// boundary. This bench times both on the guests corpus, checks the
// acceptance bar (>= 3x on the largest guest), and proves the 1-thread and
// 8-thread sweeps produce the identical vulnerability set.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "sim/engine.h"

namespace {

using namespace r2r;

/// The seed implementation, preserved verbatim as the baseline: a fresh
/// machine replayed from entry for every fault of the sweep.
sim::CampaignResult seed_serial_campaign(const elf::Image& image,
                                         const guests::Guest& guest) {
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  sim::CampaignResult result;
  result.trace_length = refs.bad_trace.size();

  emu::RunConfig run_config;
  run_config.fuel = refs.bad_reference.steps * 8 + 4096;
  sim::FaultModels models;  // the paper's two models (skip + bit flip)
  for (const sim::PlannedFault& planned :
       sim::enumerate_faults(models, refs.bad_trace)) {
    run_config.fault = planned.spec;
    const emu::RunResult run = emu::run_image(image, guest.bad_input, run_config);
    const fault::Outcome outcome = sim::classify(refs, run, 42);
    ++result.outcome_counts[outcome];
    ++result.total_faults;
    if (outcome == fault::Outcome::kSuccess) {
      result.vulnerabilities.push_back(fault::Vulnerability{planned.spec, planned.address});
    }
  }
  return result;
}

sim::CampaignResult engine_campaign(const elf::Image& image,
                                    const guests::Guest& guest, unsigned threads) {
  fault::CampaignConfig config;
  config.threads = threads;
  return fault::run_campaign(image, guest.good_input, guest.bad_input, config).order1;
}

/// One-shot wall-clock comparison per guest; returns the speedup of the
/// 1-thread engine over the seed sweep on this guest. Each leg is a
/// bench::Phase, so the timings double as "bench.*" spans in the tracer.
double compare_guest(const guests::Guest& guest, bool check_acceptance) {
  const elf::Image image = guests::build_image(guest);

  bench::Phase seed_phase("bench.seed_campaign");
  const sim::CampaignResult seed = seed_serial_campaign(image, guest);
  const double seed_seconds = seed_phase.stop();

  bench::Phase one_phase("bench.engine_campaign_1");
  const sim::CampaignResult one = engine_campaign(image, guest, 1);
  const double one_seconds = one_phase.stop();

  bench::Phase eight_phase("bench.engine_campaign_8");
  const sim::CampaignResult eight = engine_campaign(image, guest, 8);
  const double eight_seconds = eight_phase.stop();

  const bool seed_identical = one.vulnerabilities == seed.vulnerabilities &&
                              one.outcome_counts == seed.outcome_counts;
  const bool threads_identical = one.vulnerabilities == eight.vulnerabilities &&
                                 one.outcome_counts == eight.outcome_counts;
  const double speedup = one_seconds > 0 ? seed_seconds / one_seconds : 0.0;

  std::printf("%-12s trace=%-6llu faults=%-6llu seed=%8.3fs engine(1)=%8.3fs "
              "engine(8)=%8.3fs speedup=%5.2fx seed-identical=%s 1v8-identical=%s\n",
              guest.name.c_str(),
              static_cast<unsigned long long>(seed.trace_length),
              static_cast<unsigned long long>(seed.total_faults), seed_seconds,
              one_seconds, eight_seconds, speedup, seed_identical ? "yes" : "NO",
              threads_identical ? "yes" : "NO");

  if (!seed_identical || !threads_identical) {
    std::printf("FAILED: engine classification diverged on %s\n", guest.name.c_str());
    std::exit(1);
  }
  if (check_acceptance && speedup < 3.0) {
    std::printf("FAILED: acceptance bar is >= 3x on the largest guest; got %.2fx\n",
                speedup);
    std::exit(1);
  }
  return speedup;
}

void BM_SeedSerialCampaignToymov(benchmark::State& state) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed_serial_campaign(image, guest));
  }
}
BENCHMARK(BM_SeedSerialCampaignToymov)->Unit(benchmark::kMillisecond);

void BM_EngineCampaignToymov(benchmark::State& state) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine_campaign(image, guest, 1));
  }
}
BENCHMARK(BM_EngineCampaignToymov)->Unit(benchmark::kMillisecond);

void BM_EngineCampaignPincheck(benchmark::State& state) {
  const guests::Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine_campaign(image, guest, 1));
  }
}
BENCHMARK(BM_EngineCampaignPincheck)->Unit(benchmark::kMillisecond);

void BM_SnapshotCaptureRestore(benchmark::State& state) {
  const guests::Guest& guest = guests::bootloader();
  const elf::Image image = guests::build_image(guest);
  emu::Machine recorder(image, guest.bad_input);
  emu::RunConfig config;
  config.fuel = 64;
  recorder.run(config);
  const sim::MachineSnapshot snapshot = sim::capture(recorder);
  emu::Machine worker(image, guest.bad_input);
  for (auto _ : state) {
    sim::restore(snapshot, worker);
    benchmark::DoNotOptimize(worker);
  }
}
BENCHMARK(BM_SnapshotCaptureRestore);

}  // namespace

int main(int argc, char** argv) {
  r2r::bench::enable_observability();
  r2r::bench::print_header(
      "Snapshot-based parallel fault-simulation engine",
      "Fig. 2 faulter at scale: checkpointed sweep vs full replay");

  // Largest guest last; it carries the >= 3x acceptance criterion.
  std::printf("\n-- full-campaign wall clock (skip + bit-flip models) --\n");
  r2r::bench::Phase wall_phase("bench.compare_guests");
  compare_guest(guests::toymov(), false);
  compare_guest(guests::pincheck(), false);
  const double speedup = compare_guest(guests::bootloader(), true);
  const double wall_seconds = wall_phase.stop();
  std::printf("largest-guest speedup: %.2fx (acceptance: >= 3x) — OK\n", speedup);

  // The "bench.*" phase spans are disjoint sub-intervals of the comparison
  // wall clock, so their recorded totals must bracket it: strictly positive
  // and no larger than the wall time. This pins the obs span clock to the
  // same timeline the benches report.
  const r2r::obs::Tracer& tracer = r2r::obs::Tracer::instance();
  const double span_seconds =
      static_cast<double>(tracer.total_duration_ns("bench.seed_campaign") +
                          tracer.total_duration_ns("bench.engine_campaign_1") +
                          tracer.total_duration_ns("bench.engine_campaign_8")) *
      1e-9;
  if (span_seconds <= 0.0 || span_seconds > wall_seconds) {
    std::printf("FAILED: span totals %.3fs do not bracket wall clock %.3fs\n",
                span_seconds, wall_seconds);
    return 1;
  }
  std::printf("obs span totals: %.3fs of %.3fs comparison wall clock — OK\n",
              span_seconds, wall_seconds);

  {
    const guests::Guest& guest = guests::bootloader();
    const elf::Image image = guests::build_image(guest);
    const sim::Engine engine(image, guest.good_input, guest.bad_input);
    std::printf("checkpoint chain: %zu snapshots every %llu steps, "
                "%zu unique pages (%.1f KiB resident vs %.1f KiB full copies)\n\n",
                engine.snapshot_count(),
                static_cast<unsigned long long>(engine.checkpoint_interval()),
                engine.chain_unique_pages(),
                static_cast<double>(engine.chain_resident_bytes()) / 1024.0,
                static_cast<double>(engine.snapshot_count()) *
                    static_cast<double>(emu::Machine::kStackSize + image.code_size()) /
                    1024.0);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
