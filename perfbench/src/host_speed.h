// Host speed, sampled while the benchmark runs. On a shared host this
// process slows whenever another tenant runs on the sibling hardware
// thread of its core: the slow-down comes and goes in bursts of seconds to
// minutes, reaches 40-100 %, and is not reported as steal time, so no
// number of passes in one run averages it out. A fixed reference kernel
// (independent multiply chains and L1 table loads: the execution ports a
// sibling competes for, and no memory the workloads could have evicted)
// runs from a SIGALRM handler every 10 ms; its mean time over a span of
// work says how fast the core ran during that span. In six 100-240 s runs
// on a 4-vCPU Xeon VM, two per workload, scaling pass times by it cut the
// pass-to-pass coefficient of variation from 10-16 % to 4-9 %.
#pragma once

#include <cstdint>

namespace perfbench::host_speed {

/// Sums since start(); differences of two readings cover the work between.
struct Reading {
  std::uint64_t kernel_ns = 0;   // total time of the reference kernel runs
  std::uint64_t samples = 0;     // number of reference kernel runs
  std::uint64_t handler_ns = 0;  // time the timer handler took from the work
};

/// Installs the SIGALRM handler and starts the 10 ms interval timer.
void start();
/// Stops the timer and restores the default SIGALRM disposition.
void stop();
[[nodiscard]] Reading read();
/// Runs the reference kernel once in line and records it as a tick would:
/// spans shorter than the timer interval call it to get a sample.
void sample();

/// Seconds the kernel runs (ticks and sample() calls) took between the
/// readings: time a span of work spent outside the work.
[[nodiscard]] double kernel_seconds(const Reading& before, const Reading& after);
/// The kernel's reference time over its mean time between the readings:
/// below 1 while the host ran slow; 1 when no kernel ran.
[[nodiscard]] double speed_factor(const Reading& before, const Reading& after);
/// Wall seconds of a span of work between the readings, without the kernel
/// runs, at the reference speed.
[[nodiscard]] double at_reference_speed(double wall_s, const Reading& before,
                                        const Reading& after);

}  // namespace perfbench::host_speed
