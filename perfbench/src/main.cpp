// The r2r benchmark binary.
//
//   r2r_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Sets the workload up repeatedly (setup_s is the median), then runs timed
// passes until --seconds have elapsed, checking every pass. Every timed
// span is taken at the reference speed of host_speed.h: a shared host
// slows this process in bursts that can cover whole runs, and scaling by
// a fixed kernel sampled during the span takes most of that out. pass_s
// is the median pass of the run at that speed. With --trace 0 the result
// line carries the end-to-end metrics; with --trace 1 passes alternate
// untraced and traced (the gap is the tracing overhead) and the result
// line carries the per-layer probes. The last line of stdout is the
// result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "host_speed.h"
#include "workload.h"

namespace perfbench {
namespace {

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options) {
  if (name == "campaign_o2") return make_campaign_o2(options);
  if (name == "fixpoint_ladder") return make_fixpoint_ladder(options);
  if (name == "hybrid_corpus") return make_hybrid_corpus(options);
  return nullptr;
}

// Set-up is repeated, at least kSetupRepetitions times and for at least
// kSetupSeconds, and its median reported: one slow repetition does not
// move setup_s, and sub-millisecond set-ups get hundreds of repetitions.
constexpr std::size_t kSetupRepetitions = 21;
constexpr double kSetupSeconds = 0.5;

struct Args {
  std::string workload;
  Options options;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "r2r_perfbench: %s\nusage: r2r_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

int run(const Args& args) {
  const Options& options = args.options;
  host_speed::start();
  // Each set-up's own span holds one in-line kernel sample (its time is
  // taken out again); the speed over all set-ups scales their median.
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  const host_speed::Reading setups_before = host_speed::read();
  const std::uint64_t setups_start = now_ns();
  while (setup_times.empty() ||
         (!options.smoke && (setup_times.size() < kSetupRepetitions ||
                             seconds_since(setups_start) < kSetupSeconds))) {
    const host_speed::Reading before = host_speed::read();
    const std::uint64_t start = now_ns();
    host_speed::sample();
    workload = make_workload(args.workload, options);
    if (!workload) usage(("unknown workload " + args.workload).c_str());
    workload->setup();
    const double wall_s = seconds_since(start);
    setup_times.push_back(wall_s - host_speed::kernel_seconds(before, host_speed::read()));
  }
  const double setup_s =
      median(setup_times) * host_speed::speed_factor(setups_before, host_speed::read());

  Tracer untraced(false);
  Tracer tracer(args.trace);
  Checks checks;
  std::vector<double> plain_times;   // wall seconds
  std::vector<double> plain_scaled;  // at the reference speed
  std::vector<double> traced_scaled;
  const std::uint64_t begin = now_ns();
  for (unsigned n = 0;; ++n) {
    const bool traced = args.trace && n % 2 == 1;
    const host_speed::Reading before = host_speed::read();
    const std::uint64_t start = now_ns();
    workload->pass(traced ? tracer : untraced);
    const double wall_s = seconds_since(start);
    const double scaled_s = host_speed::at_reference_speed(wall_s, before, host_speed::read());
    if (!traced) plain_times.push_back(wall_s);
    (traced ? traced_scaled : plain_scaled).push_back(scaled_s);
    workload->check(checks, n == 0);
    const bool enough = !args.trace || !traced_scaled.empty();
    if (enough && (options.smoke || seconds_since(begin) >= args.seconds)) break;
  }
  host_speed::stop();

  const double pass_s = median(plain_scaled);
  std::printf("workload %s  seed %llu  passes %zu  checks %llu/%llu passed\n",
              args.workload.c_str(), static_cast<unsigned long long>(options.seed),
              plain_scaled.size() + traced_scaled.size(),
              static_cast<unsigned long long>(checks.attempted - checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  workload->describe(pass_s);
  std::printf("untraced passes, wall (s):");
  for (const double t : plain_times) std::printf(" %.4f", t);
  std::printf("\nuntraced passes, at reference speed (s):");
  for (const double t : plain_scaled) std::printf(" %.4f", t);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"pass_s", pass_s, "s"},
               {"peak_rss_mb", peak_rss_mb(), "MiB"},
               {"code_size_ratio", workload->code_size_ratio(), "ratio"},
               {"instr_count_ratio", workload->instr_count_ratio(), "ratio"}};
  } else {
    const double traced_s = median(traced_scaled);
    const double overhead_pct = 100.0 * (traced_s / pass_s - 1);
    std::printf("tracing: untraced pass %.4f s, traced pass %.4f s, overhead %.2f%%, "
                "%zu spans\n",
                pass_s, traced_s, overhead_pct, tracer.size());
    std::printf("self time per traced pass, wall:\n");
    for (const auto& [name, seconds] : tracer.self_seconds()) {
      std::printf("  %-24s %.4f s\n", name.c_str(),
                  seconds / static_cast<double>(traced_scaled.size()));
    }
    const std::filesystem::path out = ".bench_out";
    std::error_code error;
    std::filesystem::create_directories(out, error);
    if (!error) {
      tracer.write_chrome_trace((out / ("trace_" + args.workload + ".json")).string());
    }
    metrics = measure_layers(options, checks);
    metrics.push_back({"trace.pass_s", traced_s, "s"});
    metrics.push_back({"trace.overhead_pct", overhead_pct, "%"});
  }
  std::printf("%s\n", result_json(checks, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "r2r_perfbench: %s\n", error.what());
    return 1;
  }
}
