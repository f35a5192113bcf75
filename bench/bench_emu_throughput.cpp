// Decoded-block cache throughput: cached dispatch vs per-step fetch+decode.
//
// The seed emulator re-fetched and re-decoded every dynamic instruction.
// The decoded-block cache (src/emu/block_cache.h) decodes each basic block
// once into a flat arena and replays it through a tight indexed loop, and
// every sim::Engine machine dispatches through it. This bench measures the
// raw dispatch loop and a whole sweep on the largest synthetic guest and
// self-checks the acceptance bars:
//
//   * sustained emulated instructions/sec, cached >= 3x uncached, in the
//     engine's own restore+run usage pattern, swept over every registered
//     isa::Target;
//   * order-2 pairs/sec through Engine::run_tuples(2), cached engine >= 2x
//     the uncached engine, with byte-identical pair classification;
//   * the cached sweep fast-forwards some counted-loop iterations
//     (emu.fast_forward_steps > 0): the guest's hangs spin in such loops,
//     so a sweep that skips none means every loop block declined.
//
// Writes bench_emu_throughput.json (schema in docs/formats.md) with the
// obs metrics snapshot spliced in, so the emu.block_cache.* counters ride
// along in the CI artifact.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "guests/synth.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace {

using namespace r2r;

// The deep-loop digest guest: the longest bad-input trace of the first 120
// synth seeds (see tests/synth_corpus.h, seed 15) — the "largest synth
// guest" the acceptance criterion names.
constexpr std::uint64_t kLargestSynthSeed = 15;

struct Throughput {
  double seconds = 0;
  std::uint64_t instructions = 0;

  [[nodiscard]] double per_second() const {
    return seconds > 0 ? static_cast<double>(instructions) / seconds : 0.0;
  }
};

/// Sustained instructions/sec in the engine's usage pattern: snapshot the
/// entry state once, then restore+run to completion in a loop. The cache
/// (when enabled) stays warm across restores, exactly as it does across the
/// faulted runs of a sweep.
Throughput measure_emu(const elf::Image& image, const guests::Guest& guest,
                       bool block_cache, unsigned repeats, const char* span) {
  emu::Machine machine(image, guest.bad_input);
  machine.set_block_cache_enabled(block_cache);
  const sim::MachineSnapshot entry = sim::capture(machine);

  Throughput result;
  bench::Phase phase(span);
  for (unsigned i = 0; i < repeats; ++i) {
    sim::restore(entry, machine);
    const emu::RunResult run = machine.run(emu::RunConfig{});
    result.instructions += run.steps;
    if (run.reason != emu::StopReason::kExited) {
      std::printf("FAILED: guest did not exit cleanly (reason %d)\n",
                  static_cast<int>(run.reason));
      std::exit(1);
    }
  }
  result.seconds = phase.stop();
  return result;
}

struct PairRate {
  double seconds = 0;
  sim::TupleCampaignResult result;
  std::uint64_t fast_forward_steps = 0;  ///< emu.fast_forward_steps over the sweep

  [[nodiscard]] double per_second() const {
    return seconds > 0 ? static_cast<double>(result.total_tuples) / seconds : 0.0;
  }
};

PairRate measure_pairs(const elf::Image& image, const guests::Guest& guest,
                       bool block_cache, const char* span) {
  sim::EngineConfig config;
  config.threads = 1;  // algorithmic comparison, no parallelism on either side
  config.block_cache = block_cache;
  const sim::Engine engine(image, guest.good_input, guest.bad_input, config);

  sim::FaultModels models;  // skip + bit flip
  models.order = 2;
  models.pair_window = 4;  // half the default window keeps the uncached leg CI-sized

  obs::Counter& fast_forward = obs::Metrics::instance().counter("emu.fast_forward_steps");
  const std::uint64_t fast_forward_before = fast_forward.value();
  PairRate rate;
  bench::Phase phase(span);
  rate.result = engine.run_tuples(models);
  rate.seconds = phase.stop();
  rate.fast_forward_steps = fast_forward.value() - fast_forward_before;
  return rate;
}

void BM_RunCachedLargestSynth(benchmark::State& state) {
  const guests::Guest guest = guests::synth::generate(kLargestSynthSeed);
  const elf::Image image = guests::build_image(guest);
  emu::Machine machine(image, guest.bad_input);
  const sim::MachineSnapshot entry = sim::capture(machine);
  for (auto _ : state) {
    sim::restore(entry, machine);
    benchmark::DoNotOptimize(machine.run(emu::RunConfig{}));
  }
}
BENCHMARK(BM_RunCachedLargestSynth)->Unit(benchmark::kMicrosecond);

void BM_RunUncachedLargestSynth(benchmark::State& state) {
  const guests::Guest guest = guests::synth::generate(kLargestSynthSeed);
  const elf::Image image = guests::build_image(guest);
  emu::Machine machine(image, guest.bad_input);
  machine.set_block_cache_enabled(false);
  const sim::MachineSnapshot entry = sim::capture(machine);
  for (auto _ : state) {
    sim::restore(entry, machine);
    benchmark::DoNotOptimize(machine.run(emu::RunConfig{}));
  }
}
BENCHMARK(BM_RunUncachedLargestSynth)->Unit(benchmark::kMicrosecond);

}  // namespace

/// Per-target emu-throughput leg: restore+run dispatch, cached vs uncached,
/// with the >= 3x self-check bar.
struct TargetLeg {
  isa::Arch arch;
  std::string guest;
  Throughput uncached;
  Throughput cached;
  double speedup = 0;
};

bool run_emu_leg(const isa::Target& target, unsigned repeats, TargetLeg& leg) {
  const guests::Guest guest =
      guests::synth::generate(kLargestSynthSeed, target.arch());
  const elf::Image image = guests::build_image(guest);
  const double min_speedup = 3.0;

  leg.arch = target.arch();
  leg.guest = guest.name;
  std::printf("\n-- [%s] emulated instructions/sec on %s (x%u restore+run) --\n",
              std::string(target.name()).c_str(), guest.name.c_str(), repeats);
  leg.uncached = measure_emu(image, guest, false, repeats, "bench.emu_uncached");
  leg.cached = measure_emu(image, guest, true, repeats, "bench.emu_cached");
  leg.speedup = leg.uncached.per_second() > 0
                    ? leg.cached.per_second() / leg.uncached.per_second()
                    : 0.0;
  std::printf("uncached: %10.0f instr/sec (%llu instr in %.3fs)\n",
              leg.uncached.per_second(),
              static_cast<unsigned long long>(leg.uncached.instructions),
              leg.uncached.seconds);
  std::printf("cached:   %10.0f instr/sec (%llu instr in %.3fs)\n",
              leg.cached.per_second(),
              static_cast<unsigned long long>(leg.cached.instructions),
              leg.cached.seconds);
  std::printf("speedup:  %.2fx (acceptance: >= %.1fx)\n", leg.speedup, min_speedup);
  if (leg.cached.instructions != leg.uncached.instructions) {
    std::printf("FAILED: cached and uncached step counts diverged\n");
    return false;
  }
  if (leg.speedup < min_speedup) {
    std::printf("FAILED: acceptance bar is >= %.1fx instructions/sec; got %.2fx\n",
                min_speedup, leg.speedup);
    return false;
  }
  return true;
}

int main(int argc, char** argv) {
  r2r::bench::enable_observability();
  r2r::bench::print_header(
      "Decoded-block cache under the fault sweep",
      "decode-once superblock dispatch under the Fig. 2 faulter");

  // -- raw dispatch throughput (restore+run, the sweep's inner loop), on
  // -- every registered target ----------------------------------------------
  constexpr unsigned kRepeats = 20000;
  std::vector<TargetLeg> legs;
  for (const isa::Target* target : isa::all_targets()) {
    TargetLeg leg;
    if (!run_emu_leg(*target, kRepeats, leg)) return 1;
    legs.push_back(std::move(leg));
  }

  const guests::Guest guest = guests::synth::generate(kLargestSynthSeed);
  const elf::Image image = guests::build_image(guest);

  // -- order-2 sweep throughput (cached vs uncached engine) -----------------
  std::printf("\n-- order-2 pairs/sec on %s (skip + bit-flip, window 4) --\n",
              guest.name.c_str());
  const PairRate uncached = measure_pairs(image, guest, false, "bench.pairs_uncached");
  const PairRate cached = measure_pairs(image, guest, true, "bench.pairs_cached");
  const double pair_speedup =
      uncached.per_second() > 0 ? cached.per_second() / uncached.per_second() : 0.0;
  std::printf("uncached: %8.0f pairs/sec (%llu pairs in %.3fs)\n", uncached.per_second(),
              static_cast<unsigned long long>(uncached.result.total_tuples),
              uncached.seconds);
  std::printf("cached:   %8.0f pairs/sec (%llu pairs in %.3fs)\n", cached.per_second(),
              static_cast<unsigned long long>(cached.result.total_tuples),
              cached.seconds);
  std::printf("speedup: %.2fx (acceptance: >= 2x)\n", pair_speedup);
  const bool identical = cached.result.to_json() == uncached.result.to_json();
  std::printf("pair classification identical: %s\n", identical ? "yes" : "NO");
  if (!identical) {
    std::printf("FAILED: cached pair sweep diverged from the uncached engine\n");
    return 1;
  }
  if (pair_speedup < 2.0) {
    std::printf("FAILED: acceptance bar is >= 2x pairs/sec; got %.2fx\n",
                pair_speedup);
    return 1;
  }
  std::printf("cached sweep fast-forwarded %llu steps\n",
              static_cast<unsigned long long>(cached.fast_forward_steps));
  if (cached.fast_forward_steps == 0) {
    std::printf("FAILED: the cached sweep fast-forwarded no loop iteration\n");
    return 1;
  }

  const char* json_path = "bench_emu_throughput.json";
  {
    std::ostringstream body;
    body << "{\n"
         << "  " << r2r::bench::target_field(isa::Arch::kX64) << ",\n"
         << "  \"guest\": \"" << guest.name << "\",\n"
         << "  \"repeats\": " << kRepeats << ",\n"
         << "  \"targets\": [\n";
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const TargetLeg& leg = legs[i];
      body << "    {" << r2r::bench::target_field(leg.arch) << ", "
           << "\"guest\": \"" << leg.guest << "\", "
           << "\"uncached_instructions_per_second\": " << leg.uncached.per_second()
           << ", "
           << "\"cached_instructions_per_second\": " << leg.cached.per_second()
           << ", "
           << "\"emu_speedup\": " << leg.speedup << "}"
           << (i + 1 < legs.size() ? "," : "") << "\n";
    }
    body << "  ],\n"
         << "  \"uncached_instructions_per_second\": "
         << legs.front().uncached.per_second() << ",\n"
         << "  \"cached_instructions_per_second\": "
         << legs.front().cached.per_second() << ",\n"
         << "  \"emu_speedup\": " << legs.front().speedup << ",\n"
         << "  \"total_pairs\": " << cached.result.total_tuples << ",\n"
         << "  \"uncached_pairs_per_second\": " << uncached.per_second() << ",\n"
         << "  \"cached_pairs_per_second\": " << cached.per_second() << ",\n"
         << "  \"pair_speedup\": " << pair_speedup << ",\n"
         << "  \"fast_forward_steps\": " << cached.fast_forward_steps << ",\n"
         << "  \"classification_identical\": " << (identical ? "true" : "false")
         << "\n"
         << "}\n";
    std::ofstream out(json_path);
    out << r2r::bench::with_metrics_snapshot(body.str());
  }
  std::printf("JSON written to %s\n\n", json_path);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
