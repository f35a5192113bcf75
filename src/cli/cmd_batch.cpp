// r2r batch — the multi-guest driver: shard a subcommand's workload across
// a pool of worker threads (one guest per task) and aggregate the results
// into one summary table / JSON document.
//
// Determinism contract: each worker writes only its own slot of the result
// vector and the aggregation walks slots in input order, so the complete
// output — stdout, --out file, exit code — is byte-identical for every -j
// value (the per-guest work is itself thread-invariant by the engine's
// slot-per-fault guarantee). `-j` parallelises *across* guests; --threads
// still controls the worker threads *inside* each campaign. Campaign,
// fixpoint and harden rows run through svc::run_*_job, the runs behind
// `r2r campaign|fixpoint|harden`.
#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <ostream>
#include <thread>

#include "bir/recover.h"
#include "cli/cli.h"
#include "harden/report.h"
#include "obs/obs.h"
#include "patch/pipeline.h"
#include "support/error.h"
#include "support/strings.h"
#include "svc/job.h"

namespace r2r::cli {

using support::ErrorKind;
using support::fail;

ArgParser make_batch_parser() {
  ArgParser parser(
      "batch", "<guest...>",
      "Run one subcommand across many guests — positional specs plus every\n"
      "*.s bundle under --dir — sharded across -j worker threads with\n"
      "deterministic aggregation: the summary is byte-identical for every\n"
      "-j value. Duplicate specs (same guest resolved twice, e.g. a\n"
      "positional repeated under --dir) are processed once, with a warning.\n"
      "Exits 0 only when every guest succeeded (for fixpoint: reached its\n"
      "fix-point; for harden: behaviour intact); 1 when a guest genuinely\n"
      "failed its check; 3 when processing itself errored (bad spec,\n"
      "pipeline exception) — an infrastructure failure, not a verdict.");
  parser.add_flag({"--cmd", "NAME", "subcommand to run: campaign, fixpoint, harden, or "
                                    "lift",
                   "campaign"});
  parser.add_flag({"--dir", "DIR", "add every *.s guest bundle under DIR", ""});
  parser.add_flag({"-j", "N", "guests processed in parallel (0 = hardware concurrency)",
                   "1"});
  add_campaign_flags(parser);
  parser.add_flag({"--max-iterations", "N", "fixpoint/harden --patterns: iteration cap",
                   "12"});
  parser.add_flag({"--hybrid", "", "harden: use the Hybrid approach (default)", ""});
  parser.add_flag({"--patterns", "", "harden: use the Faulter+Patcher patterns", ""});
  add_format_flags(parser);
  return parser;
}

namespace {

/// One guest's aggregated outcome. `cells` feed the summary table, `json`
/// is the per-guest object body; both are built inside the worker so the
/// join only concatenates.
struct BatchRow {
  std::string name;
  bool ok = false;
  std::string error;  ///< non-empty when the guest failed to process
  std::vector<std::string> cells;
  std::string json;
};

struct BatchPlan {
  std::string cmd;
  isa::Arch arch = isa::Arch::kX64;  ///< the --target every row's guest resolves on
  svc::JobSpec job;  ///< every row's job but its guest
};

std::vector<std::string> header_for(const std::string& cmd, unsigned order) {
  if (cmd == "campaign") {
    if (order < 2) return {"guest", "status", "trace", "faults", "successful"};
    return {"guest", "status", "trace", "faults", "successful", "tuples",
            "successful tuples", "strictly order-" + std::to_string(order)};
  }
  if (cmd == "fixpoint") {
    if (order < 2) return {"guest", "status", "iterations", "residual faults", "overhead"};
    return {"guest", "status", "iterations", "residual faults", "residual sets",
            "order-1 overhead", "total overhead"};
  }
  if (cmd == "harden") {
    return {"guest", "status", "approach", "code bytes", "hardened bytes", "overhead"};
  }
  return {"guest", "status", "instructions", "code bytes"};  // lift
}

/// The identity a spec resolves to, for duplicate detection: file-backed
/// specs canonicalize through realpath (so `./foo.s`, `foo.s`, and the
/// --dir discovery of the same bundle all collide); builtin and synth:
/// specs are their own identity.
std::string spec_identity(const std::string& spec) {
  if (spec.size() > 2 && spec.rfind(".s") == spec.size() - 2) {
    char resolved[PATH_MAX];
    if (::realpath(spec.c_str(), resolved) != nullptr) return resolved;
  }
  return spec;
}

BatchRow process_guest(const BatchPlan& plan, const std::string& spec) {
  BatchRow row;
  svc::JobSpec job = plan.job;
  job.guest = load_guest(spec, plan.arch);
  row.name = job.guest.name;

  if (plan.cmd == "campaign") {
    const fault::TupleCampaignResult result = svc::run_campaign_job(job);
    row.ok = true;
    row.cells = {std::to_string(result.trace_length),
                 std::to_string(result.order1.total_faults),
                 std::to_string(result.order1.count(fault::Outcome::kSuccess))};
    if (result.order >= 2) {
      row.cells.insert(row.cells.end(),
                       {std::to_string(result.total_tuples),
                        std::to_string(result.count(fault::Outcome::kSuccess)),
                        std::to_string(result.strictly_higher_order().size())});
    }
    row.json = "\"campaign\": " + result.to_json();
  } else if (plan.cmd == "fixpoint") {
    const patch::PipelineResult result = svc::run_fixpoint_job(job);
    row.ok = result.verdict();
    row.cells = {std::to_string(result.iterations.size()),
                 std::to_string(result.final_campaign.order1.vulnerabilities.size())};
    if (job.campaign.models.order >= 2) {
      // Residual top-level fault sets of the final campaign's sweep.
      row.cells.insert(row.cells.end(),
                       {std::to_string(result.final_campaign.vulnerabilities.size()),
                        support::format_fixed(result.order1_overhead_percent(), 1) + "%"});
    }
    row.cells.push_back(support::format_fixed(result.overhead_percent(), 1) + "%");
    row.json = "\"fixpoint\": " + result.to_json();
  } else if (plan.cmd == "harden") {
    // The same harden run as `r2r harden`: a row is ok exactly when it
    // exits 0, and an unchecked guest's behaviour is neither intact nor
    // changed (null).
    const svc::HardenRun run = svc::run_harden_job(job);
    const std::string approach = job.patterns ? "patterns" : "hybrid";
    row.ok = run.intact;
    row.cells = {approach, std::to_string(run.original_code_size),
                 std::to_string(run.hardened.code_size()),
                 support::format_fixed(run.overhead_percent(), 1) + "%"};
    row.json = "\"harden\": {\"approach\": " + support::json_quote(approach) +
               ", \"original_code_size\": " + std::to_string(run.original_code_size) +
               ", \"hardened_code_size\": " + std::to_string(run.hardened.code_size()) +
               ", \"behaviour_intact\": " +
               (!run.checked ? "null" : run.intact ? "true" : "false") + "}";
  } else {  // lift
    const elf::Image image = guests::build_image(job.guest);
    const bir::Module module = bir::recover(image);
    row.ok = true;
    row.cells = {std::to_string(module.instruction_count()),
                 std::to_string(image.code_size())};
    row.json = "\"lift\": {\"instructions\": " + std::to_string(module.instruction_count()) +
               ", \"code_size\": " + std::to_string(image.code_size()) + "}";
  }
  return row;
}

}  // namespace

int run_batch(const ArgParser& args, isa::Arch arch, std::ostream& out, std::ostream& err) {
  BatchPlan plan;
  plan.cmd = args.value_or("--cmd", "campaign");
  plan.arch = arch;
  if (plan.cmd != "campaign" && plan.cmd != "fixpoint" && plan.cmd != "harden" &&
      plan.cmd != "lift") {
    err << "r2r batch: unknown --cmd '" << plan.cmd
        << "' (expected campaign, fixpoint, harden, or lift)\n";
    return 2;
  }
  if (conflicting_approaches(args, err)) return 2;
  const Format format = format_from(args);
  // lift is no job kind; its rows only read the guest.
  plan.job = job_spec_from(args, plan.cmd == "lift" ? svc::JobKind::kCampaign
                                                    : svc::job_kind_from(plan.cmd));

  std::vector<std::string> raw_specs = args.positionals();
  if (const auto dir = args.value("--dir")) {
    for (std::string& spec : discover_guest_specs(*dir)) {
      raw_specs.push_back(std::move(spec));
    }
  }
  // Dedupe by resolved identity (first occurrence wins, so ordering — and
  // with it the -j1 == -j8 byte-identity of the summary — is preserved).
  // Without this a spec repeated on the command line, or listed both
  // positionally and via --dir, is silently simulated twice and counted
  // twice in the summary.
  std::vector<std::string> specs;
  std::vector<std::pair<std::string, std::string>> seen;  // identity -> first spec
  for (std::string& spec : raw_specs) {
    const std::string identity = spec_identity(spec);
    const auto it =
        std::find_if(seen.begin(), seen.end(),
                     [&](const auto& entry) { return entry.first == identity; });
    if (it != seen.end()) {
      err << "r2r batch: duplicate guest spec '" << spec << "' (same guest as '"
          << it->second << "'); processing once\n";
      continue;
    }
    seen.emplace_back(identity, spec);
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    err << "r2r batch: no guests (pass specs and/or --dir; try 'r2r batch --help')\n";
    return 2;
  }

  unsigned workers = static_cast<unsigned>(args.count_or("-j", 1));
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, specs.size()));

  // Shard guests across the pool; slot-per-guest writes keep aggregation
  // order independent of scheduling.
  obs::Span batch_span("batch.run", obs::args_u64({{"guests", specs.size()}}));
  obs::Progress progress("batch " + plan.cmd, specs.size());
  std::vector<BatchRow> rows(specs.size());
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t index = cursor.fetch_add(1);
      if (index >= specs.size()) return;
      obs::Span span("batch.guest",
                     "{\"spec\": " + support::json_quote(specs[index]) + "}");
      try {
        rows[index] = process_guest(plan, specs[index]);
      } catch (const std::exception& error) {
        rows[index].name = specs[index];
        rows[index].ok = false;
        rows[index].error = error.what();
      }
      progress.tick(1);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < workers; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();

  // Two distinct kinds of "not ok": a guest whose check genuinely came
  // back negative (row.ok false, no error) and a guest that never produced
  // a verdict because processing threw (row.error set). Conflating them in
  // one count — and one exit code — made a worker exception look like a
  // hardening failure.
  std::size_t failed = 0;
  std::size_t errored = 0;
  for (const BatchRow& row : rows) {
    if (!row.error.empty()) {
      ++errored;
    } else if (!row.ok) {
      ++failed;
    }
  }
  obs::Metrics::instance().counter("batch.guests").add(rows.size());
  obs::Metrics::instance().counter("batch.failed").add(failed);
  obs::Metrics::instance().counter("batch.infra_errors").add(errored);

  std::string text;
  if (format == Format::kJson) {
    text = "{\n  \"command\": " + support::json_quote(plan.cmd) + ",\n  \"guests\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const BatchRow& row = rows[i];
      text += "    {\"name\": " + support::json_quote(row.name) +
              ", \"ok\": " + (row.ok ? "true" : "false");
      if (!row.error.empty()) {
        text += ", \"errored\": true, \"error\": " + support::json_quote(row.error);
      }
      if (!row.json.empty()) {
        // The nested document keeps its pretty-printed newlines; only the
        // trailing one is trimmed so the closing brace stays on the row.
        std::string body = row.json;
        while (!body.empty() && body.back() == '\n') body.pop_back();
        text += ", " + body;
      }
      text += "}";
      text += i + 1 < rows.size() ? ",\n" : "\n";
    }
    text += "  ],\n  \"failed\": " + std::to_string(failed) +
            ",\n  \"errored\": " + std::to_string(errored) + "\n}\n";
  } else {
    harden::TextTable table;
    table.add_row(header_for(plan.cmd, plan.job.campaign.models.order));
    for (const BatchRow& row : rows) {
      std::vector<std::string> cells = {
          row.name, !row.error.empty() ? "ERROR" : row.ok ? "ok" : "FAILED"};
      if (row.error.empty()) {
        cells.insert(cells.end(), row.cells.begin(), row.cells.end());
      } else {
        // Error text lands in a table cell; '|' would split it into
        // spurious columns (both renderings use pipe rows).
        std::string error = row.error;
        for (char& c : error) {
          if (c == '|') c = '/';
        }
        cells.push_back(error);
      }
      table.add_row(std::move(cells));
    }
    harden::Section summary;
    summary.table(std::move(table));
    summary.note("batch " + plan.cmd + ": " + std::to_string(rows.size()) +
                 " guest(s), " + std::to_string(rows.size() - failed - errored) +
                 " ok, " + std::to_string(failed) + " failed, " +
                 std::to_string(errored) + " errored");
    text = summary.render(format == Format::kMarkdown ? harden::Style::kMarkdown
                                                      : harden::Style::kText);
  }
  emit_output(args, out, text);
  // Infra errors dominate: a run that never finished its measurements must
  // not masquerade as "a guest failed its check".
  if (errored != 0) return svc::kInfraExitCode;
  return failed == 0 ? 0 : 1;
}

}  // namespace r2r::cli
