// The cached ≡ uncached oracle with a full-state compare, shared by the
// block-cache differential tests and the lazy-flag consumer matrix.
//
// The cached machine runs specialized micro-op handlers with lazy flags;
// the uncached one compiles every step and runs the generic entry only.
// Comparing RunResult fields alone would miss a handler that leaves a wrong
// register, flag or memory byte on a path that prints nothing, so the
// oracle also compares the full guest-visible state (GPRs, rip, flags,
// stdin position, output, steps and memory): at pauses every few steps and
// at the end of every run that exits or runs out of fuel. The state after
// a crash is unspecified (emu/machine.h) and is not compared.
//
// The cached machine skips whole iterations of counted self-loops only on
// runs that record no trace, so each comparison runs both traced and
// untraced, and the paused replays include one stride long enough for a
// skip to fit between two pauses.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "elf/image.h"
#include "emu/block_cache.h"
#include "emu/machine.h"
#include "sim/snapshot.h"

namespace r2r::oracle {

/// Adds a failure naming the first difference between `reference`'s
/// state and `other`'s. Captures `reference`.
inline void expect_same_machine_state(emu::Machine& reference, const emu::Machine& other) {
  const sim::MachineSnapshot state = sim::capture(reference);
  if (sim::same_state(state, other)) return;
  std::ostringstream diff;
  const emu::Cpu& cpu = other.cpu();
  for (std::size_t r = 0; r < cpu.gpr.size(); ++r) {
    if (cpu.gpr[r] != state.cpu.gpr[r]) {
      diff << " gpr" << r << " 0x" << std::hex << cpu.gpr[r] << " vs 0x" << state.cpu.gpr[r]
           << std::dec << ";";
    }
  }
  if (cpu.rip != state.cpu.rip) diff << " rip 0x" << std::hex << cpu.rip << std::dec << ";";
  if (!(cpu.flags == state.cpu.flags)) {
    diff << " rflags 0x" << std::hex << cpu.flags.to_rflags() << " vs 0x"
         << state.cpu.flags.to_rflags() << std::dec << ";";
  }
  if (other.steps() != state.steps) diff << " steps " << other.steps() << " vs " << state.steps << ";";
  if (other.stdin_pos() != state.stdin_pos) diff << " stdin position;";
  if (other.output() != state.output) diff << " output;";
  if (!other.memory().equals(state.memory)) diff << " memory;";
  ADD_FAILURE() << "machine state differs (this vs reference):" << diff.str();
}

inline void expect_same_result(const emu::RunResult& a, const emu::RunResult& b) {
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.crash_detail, b.crash_detail);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i].address != b.trace[i].address || a.trace[i].length != b.trace[i].length) {
      FAIL() << "trace diverges at step " << i << ": 0x" << std::hex << a.trace[i].address
             << "/" << std::dec << int(a.trace[i].length) << " vs 0x" << std::hex
             << b.trace[i].address << "/" << std::dec << int(b.trace[i].length);
    }
  }
}

/// A cached and an uncached machine on the same image and input, with
/// their entry states captured so reset() can rerun them without building
/// new machines.
struct MachinePair {
  MachinePair(const elf::Image& image, const std::string& input)
      : cached(image, input), uncached(image, input) {
    uncached.set_block_cache_enabled(false);
    cached_entry = sim::capture(cached);
    uncached_entry = sim::capture(uncached);
  }
  void reset() {
    sim::restore(cached_entry, cached);
    sim::restore(uncached_entry, uncached);
  }
  emu::Machine cached;
  emu::Machine uncached;
  sim::MachineSnapshot cached_entry;
  sim::MachineSnapshot uncached_entry;
};

/// A pause stride longer than three loop bodies of the longest cached
/// block, so loop fast-forward can fire between two pauses.
inline constexpr std::uint64_t kLongPauseStride =
    3 * emu::BlockCache::kMaxBlockInstructions + 1;

/// Runs `pair` from entry to `fuel`, cached and uncached, and asserts the
/// runs are identical: every RunResult field, and the full machine state
/// at the end unless the run crashed. It does so twice, once recording
/// the full trace and once without, the only mode that fast-forwards.
/// Then it replays both untraced with a pause every `pause_stride` steps
/// and again every kLongPauseStride steps (0: no paused replay),
/// comparing the results and the full state at every pause.
inline void expect_cached_equals_uncached(MachinePair& pair,
                                          std::optional<emu::FaultSpec> fault = std::nullopt,
                                          std::uint64_t pause_stride = 7,
                                          std::uint64_t fuel = emu::RunConfig{}.fuel) {
  emu::RunConfig config;
  config.fault = fault;
  config.fuel = fuel;
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced run" : "untraced run");
    config.record_trace = traced;
    pair.reset();
    ASSERT_TRUE(pair.cached.block_cache_enabled());
    const emu::RunResult a = pair.cached.run(config);
    const emu::RunResult b = pair.uncached.run(config);
    expect_same_result(a, b);
    if (a.reason != emu::StopReason::kCrashed && b.reason != emu::StopReason::kCrashed) {
      expect_same_machine_state(pair.uncached, pair.cached);
    }
  }
  if (pause_stride == 0) return;

  config.record_trace = false;
  std::vector<std::uint64_t> strides = {pause_stride};
  if (pause_stride != kLongPauseStride) strides.push_back(kLongPauseStride);
  for (const std::uint64_t stride : strides) {
    pair.reset();
    for (config.fuel = std::min(stride, fuel);; config.fuel = std::min(config.fuel + stride, fuel)) {
      const emu::RunResult pa = pair.cached.run(config);
      const emu::RunResult pb = pair.uncached.run(config);
      SCOPED_TRACE("paused replay, stride " + std::to_string(stride) + ", fuel " +
                   std::to_string(config.fuel));
      expect_same_result(pa, pb);
      if (pa.reason != pb.reason || pa.reason == emu::StopReason::kCrashed) break;
      expect_same_machine_state(pair.uncached, pair.cached);
      if (testing::Test::HasFailure()) return;
      if (pa.reason == emu::StopReason::kExited || config.fuel >= fuel) break;
    }
  }
}

/// The same on fresh machines for `image` and `input`.
inline void expect_cached_equals_uncached(const elf::Image& image, const std::string& input,
                                          std::optional<emu::FaultSpec> fault = std::nullopt,
                                          std::uint64_t pause_stride = 7,
                                          std::uint64_t fuel = emu::RunConfig{}.fuel) {
  MachinePair pair(image, input);
  expect_cached_equals_uncached(pair, fault, pause_stride, fuel);
}

}  // namespace r2r::oracle
