// r2r::cli — the unified driver behind the `r2r` binary.
//
//   r2r lift | harden | campaign | fixpoint | synth | batch
//       | serve | submit | status | shutdown
//
// One subcommand per pipeline stage, every knob the examples used to
// hard-code exposed as a parsed flag over the library's defaulted config
// structs. run() is the whole CLI behind a stream interface, so tests and
// the batch driver execute subcommands in-process and golden-compare their
// output byte-for-byte.
//
// Exit codes (shared by every subcommand):
//   0  success (and, where the command checks something, the check passed)
//   1  the command ran but its check failed (fix-point not reached,
//      hardened behaviour broken, a batch row failed), or a runtime error
//   2  usage error (unknown command/flag, malformed value, bad guest spec)
//   3  infrastructure error (svc::kInfraExitCode): the measurement never
//      finished — a batch row threw, the r2rd daemon was unreachable or
//      refused the job, a daemon worker crashed — as opposed to "the check
//      ran and came back negative"
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cli/args.h"
#include "cli/guest_spec.h"
#include "fault/campaign.h"
#include "svc/job.h"

namespace r2r::cli {

/// One registered subcommand: its parser factory doubles as the help/docs
/// source, its runner gets the parsed flags plus the output streams.
struct Command {
  std::string_view name;
  std::string_view summary;  ///< one line for the top-level help
  ArgParser (*make_parser)();
  int (*run)(const ArgParser& args, std::ostream& out, std::ostream& err);
};

/// The registry, in help order.
const std::vector<Command>& commands();

/// Top-level entry point: args are argv[1..]. Dispatches, parses, prints
/// help, maps exceptions onto the exit-code contract above.
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

/// The `r2r --help` text (golden-tested against docs/r2r.md).
std::string top_level_help();

// ---- shared flag bundles ----------------------------------------------------

/// Output shaping shared by the reporting commands.
enum class Format { kText, kJson, kMarkdown };

/// Registers --format/--out. `formats` names the accepted set in help.
void add_format_flags(ArgParser& parser);
Format format_from(const ArgParser& parser);

/// Writes `text` to --out when given (echoing a one-line confirmation to
/// `out`), to `out` otherwise.
void emit_output(const ArgParser& parser, std::ostream& out, const std::string& text);

/// Registers --good-input/--bad-input.
void add_guest_flags(ArgParser& parser);
GuestOverrides overrides_from(const ArgParser& parser);

/// Registers the campaign knobs: --model, --order, --pair-window,
/// --max-tuples, --sample-seed, --threads, --no-reuse.
void add_campaign_flags(ArgParser& parser);

/// Builds the campaign config the flags select (models parsed against
/// sim::fault_model_names()). Throws Error{kInvalidArgument} on an unknown
/// model or an order outside 1..fault::kMaxCampaignOrder.
fault::CampaignConfig campaign_config_from(const ArgParser& parser);

// ---- jobs (src/svc/job.h runs them) -----------------------------------------

/// The job the flags describe for `guest`: the campaign flags,
/// --max-iterations, --patterns and --format, each at its default where the
/// command registers no such flag. `r2r campaign|fixpoint|harden|submit`
/// pass their resolved positional; `r2r batch` builds one spec before any
/// guest runs (so a bad flag is a usage error) and gives each row its guest.
svc::JobSpec job_spec_from(const ArgParser& parser, svc::JobKind kind,
                           guests::Guest guest = {});

/// The usage check of `r2r harden` and `r2r batch`: reports --hybrid with
/// --patterns on `err` and returns true, so the caller exits 2.
bool conflicting_approaches(const ArgParser& parser, std::ostream& err);

/// The print step of `r2r campaign|fixpoint|submit`: the job's report (to
/// --out when given), then its ELF to --elf when asked. Returns the job's
/// exit code.
int print_job(const ArgParser& parser, const svc::JobResult& job, std::ostream& out,
              std::ostream& err);

/// Writes hardened ELF bytes to `path` and confirms it on `out`.
void write_elf_file(const std::string& path, std::string_view bytes, std::ostream& out);

// ---- subcommand entry points (one per src/cli/cmd_*.cpp) --------------------

ArgParser make_lift_parser();
int run_lift(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_harden_parser();
int run_harden(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_campaign_parser();
int run_campaign_cmd(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_fixpoint_parser();
int run_fixpoint(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_synth_parser();
int run_synth(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_batch_parser();
int run_batch(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_serve_parser();
int run_serve(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_submit_parser();
int run_submit(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_status_parser();
int run_status(const ArgParser& args, std::ostream& out, std::ostream& err);
ArgParser make_shutdown_parser();
int run_shutdown(const ArgParser& args, std::ostream& out, std::ostream& err);

}  // namespace r2r::cli
