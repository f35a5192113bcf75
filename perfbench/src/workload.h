// The benchmark's workloads and the inputs they share with the layer
// probes. A workload is set up, then runs timed passes; after each pass
// its outputs are checked against references the code under test did not
// produce (pinned seed-commit values, hand-written or generator-derived
// oracles, and an independent plain-emulator replay).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "emu/machine.h"
#include "guests/guests.h"
#include "harness.h"
#include "patch/pipeline.h"
#include "sim/engine.h"

namespace perfbench {

namespace elf = r2r::elf;
namespace guests = r2r::guests;
namespace patch = r2r::patch;
namespace sim = r2r::sim;

struct Options {
  std::uint64_t seed = 1;
  /// Tiny inputs: one pass, for the smoke test.
  bool smoke = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs: guests, images, engines, corpora.
  virtual void setup() = 0;
  /// One timed unit of work. Calls into the layers run inside tracer
  /// spans.
  virtual void pass(Tracer& tracer) = 0;
  /// Checks the latest pass's outputs; `first` selects the full checks,
  /// later passes must reproduce the first one.
  virtual void check(Checks& checks, bool first) = 0;
  /// Geometric mean over the workload's guests of hardened / original
  /// .text bytes; 1 when the workload rewrites nothing.
  [[nodiscard]] virtual double code_size_ratio() const = 0;
  /// Same over the emulated instruction counts of the good- and bad-input
  /// runs.
  [[nodiscard]] virtual double instr_count_ratio() const = 0;
  /// Human-readable summary lines, printed before the result line.
  virtual void describe(double pass_s) const = 0;
};

std::unique_ptr<Workload> make_campaign_o2(const Options& options);
std::unique_ptr<Workload> make_fixpoint_ladder(const Options& options);
std::unique_ptr<Workload> make_hybrid_corpus(const Options& options);

// ---- inputs shared with the layer probes -----------------------------------

/// campaign_o2: x64 synth:15, skip + bit-flip, order 2, pair window 4.
guests::Guest campaign_guest();
sim::FaultModels campaign_models();
sim::EngineConfig single_thread_engine();

/// fixpoint_ladder: one guest of the ladder and its campaign.
struct LadderGuest {
  const guests::Guest* guest;
  bool bit_flip;
  unsigned order;
};
std::vector<LadderGuest> ladder_guests(bool smoke);
patch::PipelineConfig ladder_config(const LadderGuest& entry);
/// Successful fault sets at every level of a campaign at the ladder
/// guest's order on `image`, swept through sim::Engine.
std::uint64_t residual_fault_sets(const elf::Image& image, const LadderGuest& entry);

/// hybrid_corpus: pincheck (x64 and rv32i) and bootloader plus a seeded
/// draw of synth guests for each target.
struct SynthDraw {
  std::uint64_t seed;
  r2r::isa::Arch arch;
};
std::vector<SynthDraw> hybrid_synth_draws(std::uint64_t seed, bool smoke);
std::vector<guests::Guest> hybrid_guests(std::uint64_t seed, bool smoke);

/// True when `run` exited with `exit_code` after printing `output`: the
/// guest's hand-written or generator-derived oracle.
inline bool matches_oracle(const r2r::emu::RunResult& run, const std::string& output,
                           int exit_code) {
  return run.reason == r2r::emu::StopReason::kExited && run.exit_code == exit_code &&
         run.output == output;
}

/// The per-layer probes of a traced run.
std::vector<Metric> measure_layers(const Options& options, Checks& checks);

}  // namespace perfbench
