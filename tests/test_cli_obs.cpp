// End-to-end tests of the global observability flags (--trace-out,
// --metrics-out, --progress) through cli::run: the inertness guarantees
// (artifacts byte-identical with tracing on vs off, counters invariant
// across thread counts, stderr silent without --progress), trace/metrics
// JSON well-formedness, the expected span inventory of a fixpoint run, and
// that every emitted metric and span name is documented.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "json_check.h"

namespace {

namespace fs = std::filesystem;
using namespace r2r;

struct CliResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.exit_code = cli::run(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

std::string temp_path(const std::string& name) {
  return (fs::path(testing::TempDir()) / name).string();
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

/// Extracts the `"counters": {...}` object from a metrics JSON document —
/// the thread-invariant section; gauges/histograms carry timing and are
/// excluded from invariance comparisons by design (see src/obs/metrics.h).
/// The `emu.block_cache.*` counters are the one documented carve-out: each
/// worker thread owns a private cache, so hit/miss splits depend on how the
/// sweep was sharded (see docs/observability.md) — drop those lines before
/// comparing.
std::string counters_section(const std::string& metrics_json) {
  const std::size_t begin = metrics_json.find("\"counters\"");
  EXPECT_NE(begin, std::string::npos) << metrics_json;
  const std::size_t end = metrics_json.find("\"gauges\"");
  EXPECT_NE(end, std::string::npos) << metrics_json;
  const std::string section = metrics_json.substr(begin, end - begin);
  std::string filtered;
  std::size_t pos = 0;
  while (pos < section.size()) {
    std::size_t line_end = section.find('\n', pos);
    if (line_end == std::string::npos) line_end = section.size();
    const std::string_view line(section.data() + pos, line_end - pos);
    if (line.find("\"emu.block_cache.") == std::string_view::npos) {
      filtered.append(line);
      filtered.push_back('\n');
    }
    pos = line_end + 1;
  }
  return filtered;
}

// ---- satellite: silence without --progress ----------------------------------

TEST(CliObs, DefaultModeEmitsNothingToStderr) {
  // Non-TTY default mode (no --progress): campaign, fixpoint, and batch
  // must keep stderr completely empty — no progress lines, no obs chatter.
  const CliResult campaign = run_cli({"campaign", "toymov", "--model", "skip"});
  EXPECT_EQ(campaign.exit_code, 0);
  EXPECT_TRUE(campaign.err.empty()) << campaign.err;

  const CliResult fixpoint =
      run_cli({"fixpoint", "toymov", "--model", "skip", "--order", "2"});
  EXPECT_EQ(fixpoint.exit_code, 0);
  EXPECT_TRUE(fixpoint.err.empty()) << fixpoint.err;

  const CliResult batch =
      run_cli({"batch", "toymov", "synth:7", "--cmd", "campaign", "--model", "skip"});
  EXPECT_EQ(batch.exit_code, 0);
  EXPECT_TRUE(batch.err.empty()) << batch.err;
}

TEST(CliObs, ProgressRendersToStderrOnly) {
  const CliResult plain = run_cli({"campaign", "toymov", "--model", "skip"});
  const CliResult traced =
      run_cli({"campaign", "toymov", "--model", "skip", "--progress"});
  EXPECT_EQ(traced.exit_code, 0);
  EXPECT_NE(traced.err.find('%'), std::string::npos) << traced.err;
  EXPECT_NE(traced.err.find("order-1 sweep"), std::string::npos) << traced.err;
  // The report itself is untouched by the progress machinery.
  EXPECT_EQ(traced.out, plain.out);
}

// ---- flag plumbing ----------------------------------------------------------

TEST(CliObs, ObsFlagsAcceptedInAnyPositionAndBothForms) {
  const std::string trace_a = temp_path("obs_pos_a.trace.json");
  const std::string trace_b = temp_path("obs_pos_b.trace.json");
  const CliResult before =
      run_cli({"--trace-out", trace_a, "campaign", "toymov", "--model", "skip"});
  EXPECT_EQ(before.exit_code, 0);
  EXPECT_TRUE(fs::exists(trace_a));
  const CliResult equals =
      run_cli({"campaign", "toymov", "--model", "skip", "--trace-out=" + trace_b});
  EXPECT_EQ(equals.exit_code, 0);
  EXPECT_TRUE(fs::exists(trace_b));
}

TEST(CliObs, TraceOutWithoutValueIsAUsageError) {
  const CliResult result = run_cli({"campaign", "toymov", "--trace-out"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--trace-out requires a file argument"),
            std::string::npos)
      << result.err;
}

// ---- tentpole: inertness ----------------------------------------------------

TEST(CliObs, ArtifactsByteIdenticalWithTracingOnVsOff) {
  const std::string elf_plain = temp_path("obs_inert_plain.elf");
  const std::string elf_traced = temp_path("obs_inert_traced.elf");
  const std::string report_plain = temp_path("obs_inert_plain.json");
  const std::string report_traced = temp_path("obs_inert_traced.json");
  const std::string trace = temp_path("obs_inert.trace.json");
  const std::string metrics = temp_path("obs_inert.metrics.json");

  const CliResult plain =
      run_cli({"fixpoint", "toymov", "--model", "skip", "--order", "2", "--format",
               "json", "--out", report_plain, "--elf", elf_plain});
  ASSERT_EQ(plain.exit_code, 0) << plain.err;

  const CliResult traced =
      run_cli({"fixpoint", "toymov", "--model", "skip", "--order", "2", "--format",
               "json", "--out", report_traced, "--elf", elf_traced, "--trace-out",
               trace, "--metrics-out", metrics, "--progress"});
  ASSERT_EQ(traced.exit_code, 0);

  // Every artifact byte-identical: the hardened ELF and the JSON report.
  EXPECT_EQ(cli::read_file(elf_plain), cli::read_file(elf_traced));
  EXPECT_EQ(cli::read_file(report_plain), cli::read_file(report_traced));
  // stdout differs only in the echoed --out/--elf paths, which differ by
  // construction; normalizing them must make the streams identical.
  EXPECT_EQ(replace_all(plain.out, "_plain", ""),
            replace_all(traced.out, "_traced", ""));
}

TEST(CliObs, MetricsCounterTotalsAreThreadCountInvariant) {
  const std::string metrics_1 = temp_path("obs_threads_1.metrics.json");
  const std::string metrics_8 = temp_path("obs_threads_8.metrics.json");

  const CliResult one = run_cli({"campaign", "synth:7", "--model", "skip", "--order",
                                 "2", "--threads", "1", "--metrics-out", metrics_1});
  ASSERT_EQ(one.exit_code, 0) << one.err;
  const CliResult eight = run_cli({"campaign", "synth:7", "--model", "skip", "--order",
                                   "2", "--threads", "8", "--metrics-out", metrics_8});
  ASSERT_EQ(eight.exit_code, 0) << eight.err;

  const std::string json_1 = cli::read_file(metrics_1);
  const std::string json_8 = cli::read_file(metrics_8);
  EXPECT_TRUE(testjson::valid_json(json_1)) << json_1;
  EXPECT_TRUE(testjson::valid_json(json_8)) << json_8;
  // Campaign reports are byte-identical across --threads, and so must the
  // *obs counters* be.
  EXPECT_EQ(one.out, eight.out);
  EXPECT_EQ(counters_section(json_1), counters_section(json_8));
  EXPECT_NE(json_1.find("\"sim.faults_planned\""), std::string::npos) << json_1;
  EXPECT_NE(json_1.find("\"sim.tuples_planned\""), std::string::npos) << json_1;
  EXPECT_NE(json_1.find("\"emu.generic_steps\""), std::string::npos) << json_1;
  // synth:7's counted loops are fast-forwarded, so the comparison above
  // covers a non-zero emu.fast_forward_steps.
  EXPECT_NE(json_1.find("\"emu.fast_forward_steps\": "), std::string::npos) << json_1;
  EXPECT_EQ(json_1.find("\"emu.fast_forward_steps\": 0,"), std::string::npos) << json_1;
}

// ---- artifact shape ---------------------------------------------------------

TEST(CliObs, FixpointTraceIsWellFormedWithExpectedSpans) {
  const std::string trace = temp_path("obs_fixpoint.trace.json");
  const CliResult result = run_cli({"fixpoint", "toymov", "--model", "skip", "--order",
                                    "2", "--trace-out", trace});
  ASSERT_EQ(result.exit_code, 0) << result.err;

  const std::string json = cli::read_file(trace);
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // The span inventory of a full fixpoint run: the fix-point loop, its
  // campaigns, the engine's checkpoint-chain build, and the sharded
  // per-worker sweep spans.
  for (const char* span :
       {"fixpoint.run", "fixpoint.iteration", "fixpoint.campaign", "fixpoint.patch",
        "sim.checkpoint_chain", "sim.run_order1", "sim.worker", "bir.recover",
        "bir.assemble"}) {
    EXPECT_NE(json.find(std::string("\"") + span + "\""), std::string::npos)
        << "missing span " << span;
  }
}

TEST(CliObs, BatchTraceCoversGuestSpans) {
  const std::string trace = temp_path("obs_batch.trace.json");
  const CliResult result = run_cli({"batch", "toymov", "synth:7", "--cmd", "campaign",
                                    "--model", "skip", "-j", "2", "--trace-out", trace});
  ASSERT_EQ(result.exit_code, 0) << result.err;

  const std::string json = cli::read_file(trace);
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"batch.run\""), std::string::npos);
  EXPECT_NE(json.find("\"batch.guest\""), std::string::npos);
  EXPECT_NE(json.find("\"spec\": \"synth:7\""), std::string::npos);
}

TEST(CliObs, MetricsFileIsWellFormedAndScopedToTheRun) {
  const std::string metrics_a = temp_path("obs_scope_a.metrics.json");
  const std::string metrics_b = temp_path("obs_scope_b.metrics.json");
  // Two identical sequential in-process runs: ObsScope resets the registry
  // per run, so the second file equals the first instead of accumulating.
  const CliResult first = run_cli({"campaign", "toymov", "--model", "skip",
                                   "--metrics-out", metrics_a});
  ASSERT_EQ(first.exit_code, 0);
  const CliResult second = run_cli({"campaign", "toymov", "--model", "skip",
                                    "--metrics-out", metrics_b});
  ASSERT_EQ(second.exit_code, 0);

  const std::string json_a = cli::read_file(metrics_a);
  EXPECT_TRUE(testjson::valid_json(json_a)) << json_a;
  EXPECT_EQ(counters_section(json_a), counters_section(cli::read_file(metrics_b)));
  EXPECT_NE(json_a.find("\"sim.engines_built\": 1"), std::string::npos) << json_a;
}

// ---- name drift -------------------------------------------------------------

/// The names docs/observability.md lists: every backticked token, plus the
/// family prefixes of `<layer>.<what>.<class>` / `<layer>.*` tokens in a
/// table row's name cell, which cover any one further name segment. Prose
/// may name a family in passing ("no `sim.*` counter moves"); that documents
/// none of its members.
struct DocumentedNames {
  std::set<std::string> exact;
  std::vector<std::string> families;

  [[nodiscard]] bool covers(const std::string& name) const {
    if (exact.contains(name)) return true;
    return std::any_of(families.begin(), families.end(), [&](const std::string& prefix) {
      return name.size() > prefix.size() && name.starts_with(prefix) &&
             name.find('.', prefix.size()) == std::string::npos;
    });
  }
};

/// True when doc[pos] lies in the first cell of a markdown table row.
bool in_name_cell(const std::string& doc, std::size_t pos) {
  const std::size_t newline = doc.rfind('\n', pos);
  const std::size_t row = newline == std::string::npos ? 0 : newline + 1;
  if (doc[row] != '|') return false;
  const std::size_t cell_end = doc.find('|', row + 1);
  return cell_end != std::string::npos && pos < cell_end;
}

DocumentedNames documented_names(const std::string& doc) {
  DocumentedNames names;
  std::size_t open = doc.find('`');
  while (open != std::string::npos) {
    const std::size_t close = doc.find('`', open + 1);
    if (close == std::string::npos) break;
    const std::string token = doc.substr(open + 1, close - open - 1);
    std::size_t family = token.find(".<");
    if (family == std::string::npos) family = token.find(".*");
    if (family != std::string::npos) {
      if (in_name_cell(doc, open)) names.families.push_back(token.substr(0, family + 1));
    } else {
      names.exact.insert(token);
    }
    open = doc.find('`', close + 1);
  }
  return names;
}

/// Metric names of a --metrics-out document: the keys one level inside the
/// counters / gauges / histograms objects.
std::set<std::string> metric_names(const std::string& metrics_json) {
  std::set<std::string> names;
  static const std::regex key(R"re(^    "([^"]+)": )re");
  std::istringstream lines(metrics_json);
  std::smatch match;
  for (std::string line; std::getline(lines, line);) {
    if (std::regex_search(line, match, key)) names.insert(match[1]);
  }
  return names;
}

/// Span names of a --trace-out document (complete events only).
std::set<std::string> span_names(const std::string& trace_json) {
  std::set<std::string> names;
  static const std::regex event(R"re(\{"name": "([^"]+)", "cat": "r2r", "ph": "X")re");
  for (std::sregex_iterator it(trace_json.begin(), trace_json.end(), event), end;
       it != end; ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

TEST(CliObs, EveryEmittedNameIsDocumented) {
  const DocumentedNames documented = documented_names(
      cli::read_file(std::string(R2R_SOURCE_DIR) + "/docs/observability.md"));
  const std::vector<std::vector<std::string>> runs = {
      {"campaign", "toymov", "--model", "skip", "--order", "1"},
      {"campaign", "toymov", "--model", "skip", "--order", "2"},
      {"campaign", "toymov", "--model", "skip", "--order", "3"},
      {"campaign", "toymov", "--model", "skip", "--order", "3", "--max-tuples", "20"},
      {"fixpoint", "toymov", "--model", "skip", "--order", "3"},
      {"batch", "toymov", "synth:7", "--cmd", "campaign", "--model", "skip"},
      {"batch", "toymov", "--cmd", "harden"},
  };
  std::set<std::string> emitted;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string stem = "obs_names_" + std::to_string(i);
    const std::string metrics = temp_path(stem + ".metrics.json");
    const std::string trace = temp_path(stem + ".trace.json");
    std::vector<std::string> args = runs[i];
    args.insert(args.end(), {"--metrics-out", metrics, "--trace-out", trace});
    const CliResult result = run_cli(args);
    ASSERT_EQ(result.exit_code, 0) << args.front() << ": " << result.err;
    emitted.merge(metric_names(cli::read_file(metrics)));
    emitted.merge(span_names(cli::read_file(trace)));
  }
  // A family named in prose covers nothing: an invented name stays
  // undocumented.
  EXPECT_FALSE(documented.covers("sim.undocumented_span"));
  // The runs above reach every layer a CLI subcommand instruments.
  for (const char* name : {"sim.run_tuples", "sim.tuples_classify", "sim.tuples_planned",
                           "sim.tuple_sampler", "fixpoint.run", "batch.guests", "harden.hybrid",
                           "harden.verify", "emu.instructions", "emu.generic_steps"}) {
    EXPECT_TRUE(emitted.contains(name)) << "expected " << name << " to be emitted";
  }
  for (const std::string& name : emitted) {
    EXPECT_TRUE(documented.covers(name))
        << "'" << name << "' is emitted but not documented in docs/observability.md";
  }
}

}  // namespace
