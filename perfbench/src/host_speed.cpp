#include "host_speed.h"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <iterator>

namespace perfbench::host_speed {
namespace {

constexpr long kIntervalUs = 10000;
// One kernel run takes 22-25 us on an idle core of the 4-vCPU Intel Xeon VM
// the benchmark was defined on (g++ 12, -O3) and up to 45 us beside a busy
// sibling: under 0.5 % of the work.
constexpr int kMultiplyRounds = 3500;
constexpr int kLoadRounds = 6000;
// The kernel's time on that idle core. Only ratios to it matter: it scales
// every span of every run alike, and makes the result read as seconds.
constexpr double kReferenceKernelNs = 22000;
// A kernel run that a context switch interrupted reads many times longer;
// capped, one preemption weighs no more than a slow burst.
constexpr std::uint64_t kMaxSampleNs = 4 * static_cast<std::uint64_t>(kReferenceKernelNs);

std::atomic<std::uint64_t> kernel_ns{0};
std::atomic<std::uint64_t> samples{0};
std::atomic<std::uint64_t> handler_ns{0};
std::uint32_t table[1024];
volatile std::uint64_t sink;

// clock_gettime is async-signal-safe; nothing here allocates or locks.
std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

__attribute__((noinline)) std::uint64_t kernel() {
  std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < kMultiplyRounds; ++i) {
    for (std::uint64_t& v : x) {
      v = v * 6364136223846793005ULL + 1442695040888963407ULL;
      v ^= v >> 29;
    }
  }
  std::uint64_t sums[4] = {0, 0, 0, 0};
  std::uint32_t h[4] = {1, 7, 13, 29};
  for (int i = 0; i < kLoadRounds; ++i) {
    for (int k = 0; k < 4; ++k) {
      h[k] = h[k] * 1664525u + 1013904223u;
      sums[k] += table[h[k] >> 22];
    }
  }
  std::uint64_t result = 0;
  for (const std::uint64_t v : x) result ^= v;
  for (const std::uint64_t v : sums) result += v;
  return result;
}

void record() {
  const std::uint64_t entered = monotonic_ns();
  // Whatever the work left in the caches, the timed kernel starts with its
  // table in L1: only the core's speed moves its time.
  std::uint32_t touched = 0;
  for (std::size_t i = 0; i < std::size(table); i += 16) touched += table[i];
  const std::uint64_t begin = monotonic_ns();
  sink = kernel() + touched;
  const std::uint64_t end = monotonic_ns();
  kernel_ns.fetch_add(std::min(end - begin, kMaxSampleNs), std::memory_order_relaxed);
  samples.fetch_add(1, std::memory_order_relaxed);
  handler_ns.fetch_add(monotonic_ns() - entered, std::memory_order_relaxed);
}

void on_tick(int) {
  const int saved_errno = errno;
  record();
  errno = saved_errno;
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_REAL, &timer, nullptr);
}

}  // namespace

void start() {
  for (std::uint32_t i = 0; i < 1024; ++i) table[i] = i * 2654435761u;
  struct sigaction action {};
  action.sa_handler = on_tick;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  set_timer(kIntervalUs);
}

void stop() {
  set_timer(0);
  signal(SIGALRM, SIG_DFL);
}

Reading read() {
  return {kernel_ns.load(std::memory_order_relaxed), samples.load(std::memory_order_relaxed),
          handler_ns.load(std::memory_order_relaxed)};
}

void sample() { record(); }

double speed_factor(const Reading& before, const Reading& after) {
  const std::uint64_t n = after.samples - before.samples;
  if (n == 0) return 1.0;
  const double mean_ns =
      static_cast<double>(after.kernel_ns - before.kernel_ns) / static_cast<double>(n);
  return kReferenceKernelNs / mean_ns;
}

double kernel_seconds(const Reading& before, const Reading& after) {
  return static_cast<double>(after.handler_ns - before.handler_ns) * 1e-9;
}

double at_reference_speed(double wall_s, const Reading& before, const Reading& after) {
  return (wall_s - kernel_seconds(before, after)) * speed_factor(before, after);
}

}  // namespace perfbench::host_speed
