#include "cli/cli.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <utility>

#include "isa/target.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "support/error.h"
#include "support/strings.h"
#include "svc/job.h"

namespace r2r::cli {

using support::ErrorKind;
using support::fail;

namespace {

/// The global observability flags, valid in any position for any command.
struct ObsOptions {
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  bool progress = false;
};

/// Strips --trace-out/--metrics-out/--progress (both `--flag VALUE` and
/// `--flag=VALUE` forms) out of `args` before subcommand dispatch, so every
/// command accepts them without each parser re-declaring the bundle.
ObsOptions extract_obs_flags(std::vector<std::string>& args) {
  ObsOptions options;
  const auto take_value = [&](std::size_t& i, const std::string& flag,
                              const std::string_view name) {
    if (flag.size() > name.size() && flag[name.size()] == '=') {
      return flag.substr(name.size() + 1);
    }
    if (i + 1 >= args.size()) {
      fail(ErrorKind::kInvalidArgument,
           std::string(name) + " requires a file argument");
    }
    return args[++i];
  };

  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--trace-out" || arg.starts_with("--trace-out=")) {
      options.trace_out = take_value(i, arg, "--trace-out");
    } else if (arg == "--metrics-out" || arg.starts_with("--metrics-out=")) {
      options.metrics_out = take_value(i, arg, "--metrics-out");
    } else {
      kept.push_back(arg);
    }
  }
  args = std::move(kept);
  return options;
}

/// Strips the global --target flag (both `--target NAME` and
/// `--target=NAME`) out of `args` and resolves it against the target
/// registry. Defaults to x86-64 when absent.
const isa::Target& extract_target_flag(std::vector<std::string>& args) {
  const isa::Target* selected = &isa::target(isa::Arch::kX64);
  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string name;
    if (arg.starts_with("--target=")) {
      name = arg.substr(std::string_view("--target=").size());
    } else if (arg == "--target") {
      if (i + 1 >= args.size()) {
        fail(ErrorKind::kInvalidArgument, "--target requires a target name");
      }
      name = args[++i];
    } else {
      kept.push_back(arg);
      continue;
    }
    const isa::Target* found = isa::find_target(name);
    if (found == nullptr) {
      std::string known;
      for (const isa::Target* candidate : isa::all_targets()) {
        if (!known.empty()) known += ", ";
        known += candidate->name();
      }
      fail(ErrorKind::kInvalidArgument,
           "unknown target '" + name + "' (available: " + known + ")");
    }
    selected = found;
  }
  args = std::move(kept);
  return *selected;
}

/// Applies the --target selection for one run() invocation and restores the
/// previous one on the way out — in-process callers (tests, batch) must not
/// inherit a stale target.
class TargetScope {
 public:
  explicit TargetScope(isa::Arch arch) : previous_(active_target()) {
    set_active_target(arch);
  }
  ~TargetScope() { set_active_target(previous_); }

 private:
  isa::Arch previous_;
};

/// Arms the obs layer for one run() invocation and writes the requested
/// artifacts on the way out, then disarms everything — sequential
/// in-process invocations (tests, the batch driver) must not leak tracing
/// state into each other. Progress renders to the caller's `err` stream;
/// trace/metrics files are written silently.
class ObsScope {
 public:
  ObsScope(const ObsOptions& options, std::ostream& err)
      : options_(options), err_(err) {
    if (options_.trace_out.has_value()) {
      obs::Tracer::instance().clear();
      obs::Tracer::instance().set_enabled(true);
    }
    if (options_.trace_out.has_value() || options_.metrics_out.has_value()) {
      obs::set_timing_enabled(true);
    }
    if (options_.metrics_out.has_value()) obs::Metrics::instance().reset();
    if (options_.progress) obs::set_progress_stream(&err_);
  }

  ~ObsScope() {
    obs::set_progress_stream(nullptr);
    obs::set_timing_enabled(false);
    if (options_.trace_out.has_value()) {
      obs::Tracer::instance().set_enabled(false);
      try {
        write_file(*options_.trace_out, obs::Tracer::instance().to_chrome_json());
      } catch (const std::exception& e) {
        err_ << "r2r: failed to write trace: " << e.what() << "\n";
      }
      obs::Tracer::instance().clear();
    }
    if (options_.metrics_out.has_value()) {
      try {
        write_file(*options_.metrics_out, obs::Metrics::instance().to_json());
      } catch (const std::exception& e) {
        err_ << "r2r: failed to write metrics: " << e.what() << "\n";
      }
    }
  }

 private:
  ObsOptions options_;
  std::ostream& err_;
};

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> registry = {
      {"lift", "disassemble a guest to its binary IR, or lift it to the compiler IR",
       make_lift_parser, run_lift},
      {"harden", "produce a hardened ELF (Faulter+Patcher patterns or the Hybrid pass)",
       make_harden_parser, run_harden},
      {"campaign", "run an order-1, order-2, or order-k fault-injection campaign",
       make_campaign_parser, run_campaign_cmd},
      {"fixpoint", "iterate the Faulter+Patcher loop to its fix-point and report it",
       make_fixpoint_parser, run_fixpoint},
      {"synth", "generate seeded synthetic guests (and their oracles)",
       make_synth_parser, run_synth},
      {"batch", "run a subcommand across many guests with a sharded worker pool",
       make_batch_parser, run_batch},
      {"serve", "run the r2rd campaign daemon (worker pool + result cache)",
       make_serve_parser, run_serve},
      {"submit", "run a subcommand on a running r2rd daemon (cached when repeated)",
       make_submit_parser, run_submit},
      {"status", "print a running r2rd daemon's queue/cache/worker statistics",
       make_status_parser, run_status},
      {"shutdown", "drain a running r2rd daemon and stop it",
       make_shutdown_parser, run_shutdown},
  };
  return registry;
}

std::string top_level_help() {
  std::string out = "usage: r2r <command> [flags]\n\n";
  out +=
      "r2r — rewrite to reinforce: find fault-injection vulnerabilities in a\n"
      "binary and patch countermeasures directly into it (DAC 2021 pipeline:\n"
      "lift -> harden -> lower -> patch -> simulate).\n\ncommands:\n";
  std::size_t column = 0;
  for (const Command& command : commands()) column = std::max(column, command.name.size());
  for (const Command& command : commands()) {
    out += "  " + std::string(command.name) +
           std::string(column - command.name.size() + 2, ' ') +
           std::string(command.summary) + "\n";
  }
  out +=
      "\nglobal flags (accepted by every command):\n"
      "  --target NAME       instruction-set target for guests and codegen\n"
      "                      (default x64):\n";
  for (const isa::Target* target : isa::all_targets()) {
    std::string name(target->name());
    out += "                        " + name +
           std::string(name.size() < 7 ? 7 - name.size() : 1, ' ') +
           std::string(target->description()) + "\n";
  }
  out +=
      "  --trace-out FILE    write a Chrome trace-event JSON of this run\n"
      "                      (open in Perfetto; see docs/observability.md)\n"
      "  --metrics-out FILE  write the obs metrics snapshot (counters,\n"
      "                      gauges, histograms) as JSON\n"
      "  --progress          render a live percent/rate/ETA line on stderr\n";
  out +=
      "\nguest specs: pincheck | bootloader | toymov | synth:<seed> | path/to/prog.s\n"
      "(.s specs read inputs from <stem>.good / <stem>.bad sidecars)\n\n"
      "Run 'r2r <command> --help' for flags; docs/r2r.md is the full reference.\n";
  return out;
}

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  std::vector<std::string> argv = args;
  ObsOptions obs_options;
  const isa::Target* target = nullptr;
  try {
    obs_options = extract_obs_flags(argv);
    target = &extract_target_flag(argv);
  } catch (const support::Error& error) {
    err << "r2r: " << error.what() << "\n";
    return 2;
  }
  const TargetScope target_scope(target->arch());

  if (argv.empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help") {
    out << top_level_help();
    return argv.empty() ? 2 : 0;
  }
  const Command* command = nullptr;
  for (const Command& candidate : commands()) {
    if (candidate.name == argv[0]) command = &candidate;
  }
  if (command == nullptr) {
    err << "r2r: unknown command '" << argv[0] << "' (try 'r2r --help')\n";
    return 2;
  }

  ArgParser parser = command->make_parser();
  try {
    parser.parse({argv.begin() + 1, argv.end()});
  } catch (const support::Error& error) {
    err << "r2r: " << error.what() << "\n";
    return 2;
  }
  if (parser.help_requested()) {
    out << parser.help();
    return 0;
  }
  const ObsScope obs_scope(obs_options, err);
  try {
    return command->run(parser, out, err);
  } catch (const support::Error& error) {
    // With --progress a throttled '\r' line may still be pending on this
    // stream; blank it first so the diagnostic doesn't overstrike it.
    obs::clear_partial_progress_line();
    err << "r2r " << command->name << ": " << error.what() << "\n";
    return error.kind() == ErrorKind::kInvalidArgument ? 2 : 1;
  } catch (const std::exception& error) {
    obs::clear_partial_progress_line();
    err << "r2r " << command->name << ": unexpected error: " << error.what() << "\n";
    return svc::kInfraExitCode;
  }
}

// ---- shared flag bundles ----------------------------------------------------

void add_format_flags(ArgParser& parser) {
  parser.add_flag({"--format", "FMT", "output format: text, json, or markdown", "text"});
  parser.add_flag({"--out", "FILE", "write the report to FILE instead of stdout", ""});
}

Format format_from(const ArgParser& parser) {
  const std::string format = parser.value_or("--format", "text");
  if (format == "text") return Format::kText;
  if (format == "json") return Format::kJson;
  if (format == "markdown") return Format::kMarkdown;
  fail(ErrorKind::kInvalidArgument,
       "unknown --format '" + format + "' (expected text, json, or markdown)");
}

void emit_output(const ArgParser& parser, std::ostream& out, const std::string& text) {
  const auto path = parser.value("--out");
  if (!path.has_value()) {
    out << text;
    return;
  }
  write_file(*path, text);
  out << "report written to " << *path << " (" << text.size() << " bytes)\n";
}

void add_guest_flags(ArgParser& parser) {
  parser.add_flag({"--good-input", "BYTES",
                   "authorized input override (@FILE reads bytes from FILE)", ""});
  parser.add_flag({"--bad-input", "BYTES",
                   "attacker input override (@FILE reads bytes from FILE)", ""});
}

GuestOverrides overrides_from(const ArgParser& parser) {
  GuestOverrides overrides;
  if (auto v = parser.value("--good-input")) overrides.good_input = *v;
  if (auto v = parser.value("--bad-input")) overrides.bad_input = *v;
  return overrides;
}

void add_campaign_flags(ArgParser& parser) {
  std::string models;
  for (const std::string_view name : sim::fault_model_names()) {
    if (!models.empty()) models += ", ";
    models += name;
  }
  parser.add_flag({"--model", "LIST",
                   "comma-separated fault models to sweep: " + models, "skip,bit_flip"});
  parser.add_flag({"--order", "N",
                   "campaign order: 1 (single faults), 2 (pairs), or 3.." +
                       std::to_string(fault::kMaxCampaignOrder) + " (k-tuples)",
                   "1"});
  parser.add_flag({"--pair-window", "W",
                   "order 2+: max trace distance between consecutive faults", "8"});
  parser.add_flag({"--max-tuples", "N",
                   "order 2+: sample at most N top-level tuples per sweep\n(seeded, "
                   "thread-count independent; 0 = exhaustive)",
                   "0"});
  parser.add_flag({"--sample-seed", "S",
                   "order 2+: RNG seed for the --max-tuples sample", "24301"});
  parser.add_flag({"--threads", "N",
                   "worker threads per sweep (0 = hardware concurrency);\nresults are "
                   "bit-identical for every value",
                   "1"});
  parser.add_flag({"--no-reuse", "",
                   "order 2+: simulate every fault set instead of reusing\nlower-order "
                   "profiles (bit-identical, much slower; a\npruning-soundness check)",
                   ""});
}

fault::CampaignConfig campaign_config_from(const ArgParser& parser) {
  fault::CampaignConfig config;
  if (const auto list = parser.value("--model")) {
    sim::FaultModels selected;
    for (const std::string_view name : sim::fault_model_names()) {
      sim::set_fault_model(selected, name, false);
    }
    for (const std::string_view piece : support::split(*list, ',')) {
      std::string name = support::to_lower(piece);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      if (!sim::set_fault_model(selected, name, true)) {
        fail(ErrorKind::kInvalidArgument, "unknown fault model '" + std::string(piece) +
                                              "' (see --help for the model list)");
      }
    }
    config.models = selected;
  }
  config.models.order = static_cast<unsigned>(parser.count_or("--order", 1));
  if (config.models.order < 1 || config.models.order > fault::kMaxCampaignOrder) {
    fail(ErrorKind::kInvalidArgument,
         "--order must be 1.." + std::to_string(fault::kMaxCampaignOrder));
  }
  config.models.pair_window =
      parser.count_or("--pair-window", config.models.pair_window);
  config.models.max_tuples = parser.count_or("--max-tuples", config.models.max_tuples);
  config.models.sample_seed =
      parser.count_or("--sample-seed", config.models.sample_seed);
  config.threads = static_cast<unsigned>(parser.count_or("--threads", 1));
  config.pair_outcome_reuse = !parser.has("--no-reuse");
  return config;
}

// ---- jobs -------------------------------------------------------------------

svc::JobSpec job_spec_from(const ArgParser& parser, svc::JobKind kind,
                           guests::Guest guest) {
  svc::JobSpec spec;
  spec.kind = kind;
  spec.guest = std::move(guest);
  spec.campaign = campaign_config_from(parser);
  spec.max_iterations = static_cast<unsigned>(parser.count_or("--max-iterations", 12));
  spec.patterns = parser.has("--patterns");
  (void)format_from(parser);  // validated here; the runner renders from the name
  spec.format = parser.value_or("--format", "text");
  return spec;
}

bool conflicting_approaches(const ArgParser& parser, std::ostream& err) {
  if (!parser.has("--hybrid") || !parser.has("--patterns")) return false;
  err << "r2r " << parser.command() << ": --hybrid and --patterns are mutually exclusive\n";
  return true;
}

int print_job(const ArgParser& parser, const svc::JobResult& job, std::ostream& out,
              std::ostream& err) {
  emit_output(parser, out, job.report);
  if (const auto path = parser.value("--elf")) {
    if (!job.elf.empty()) {
      write_elf_file(*path, job.elf, out);
    } else if (job.exit_code == 0) {
      err << "r2r " << parser.command() << ": this job kind returns no ELF; --elf ignored\n";
    } else {
      err << "r2r " << parser.command()
          << ": hardened binary no longer matches the guest oracle; not writing\n";
    }
  }
  return job.exit_code;
}

void write_elf_file(const std::string& path, std::string_view bytes, std::ostream& out) {
  write_file(path, bytes);
  out << "hardened ELF written to " << path << " (" << bytes.size() << " bytes)\n";
}

}  // namespace r2r::cli
