// r2r serve / submit / status / shutdown — the CLI face of the r2rd
// campaign service (src/svc/). `serve` runs the daemon in the foreground;
// the other three are one-exchange clients. A daemon worker runs a job
// through svc::execute_job, the runner the one-shot subcommands call
// in-process, and `r2r submit` prints it through their print step, so
// `r2r submit --cmd campaign` prints byte-for-byte what `r2r campaign`
// prints — cached or fresh (docs/r2rd.md pins that contract).
#include <iterator>
#include <ostream>

#include "cli/cli.h"
#include "support/error.h"
#include "svc/client.h"
#include "svc/job.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace r2r::cli {

namespace {

constexpr const char* kDefaultSocket = "r2rd.sock";

void add_socket_flags(ArgParser& parser) {
  parser.add_flag({"--socket", "PATH", "the daemon's Unix socket path", kDefaultSocket});
}

void add_client_flags(ArgParser& parser) {
  add_socket_flags(parser);
  parser.add_flag({"--connect-timeout", "MS",
                   "keep retrying the connection for MS milliseconds (covers\n"
                   "a daemon that is still starting up)",
                   "2000"});
}

/// Connects with the shared client flags; infra failures (no daemon) are
/// reported by the caller as exit 3, not as a thrown runtime error.
svc::Client connect_from(const ArgParser& args) {
  const std::string socket = args.value_or("--socket", kDefaultSocket);
  const unsigned timeout =
      static_cast<unsigned>(args.count_or("--connect-timeout", 2000));
  return svc::Client::connect(socket, timeout);
}

}  // namespace

ArgParser make_serve_parser() {
  ArgParser parser(
      "serve", "",
      "Run r2rd, the campaign service, in the foreground: accept submit /\n"
      "status / shutdown requests on a Unix socket, schedule jobs onto a\n"
      "pool of pre-warmed forked worker processes (a crashing job costs one\n"
      "worker, not the daemon), and serve repeated submissions from a\n"
      "content-addressed result cache — byte-identical to a fresh run.\n"
      "Stops when a client sends 'r2r shutdown' (graceful drain: queued\n"
      "jobs finish, new ones are refused).");
  add_socket_flags(parser);
  parser.add_flag({"--workers", "N", "pre-warmed worker processes", "2"});
  parser.add_flag({"--queue-depth", "N",
                   "max queued jobs before submits are refused (backpressure)", "16"});
  parser.add_flag({"--cache-capacity", "N", "result-cache entries (FIFO eviction)",
                   "1024"});
  return parser;
}

int run_serve(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (!args.positionals().empty()) {
    err << "r2r serve: takes no positional arguments (try 'r2r serve --help')\n";
    return 2;
  }
  svc::ServerConfig config;
  config.socket_path = args.value_or("--socket", kDefaultSocket);
  config.workers = static_cast<unsigned>(args.count_or("--workers", 2, 256));
  config.queue_depth = args.count_or("--queue-depth", 16);
  config.cache_capacity = args.count_or("--cache-capacity", 1024);
  if (config.queue_depth == 0) {
    err << "r2r serve: --queue-depth must be at least 1\n";
    return 2;
  }
  svc::Server server(config);
  server.start();
  out << "r2rd listening on " << config.socket_path << " (" << config.workers
      << " worker(s), queue depth " << config.queue_depth << ")\n";
  out.flush();
  server.wait();
  out << "r2rd drained and stopped\n";
  return 0;
}

ArgParser make_submit_parser() {
  ArgParser parser(
      "submit", "<guest>",
      "Submit one job to a running r2rd daemon and print its report — the\n"
      "same bytes the one-shot subcommand would print, whether the answer\n"
      "was freshly simulated or served from the daemon's result cache.\n"
      "The guest spec is resolved locally (the resolved bytes are what the\n"
      "daemon hashes and runs), so relative .s paths work from the client's\n"
      "directory. Exits with the job's own code (0/1), or 3 when the\n"
      "daemon was unreachable, refused the job, or lost a worker to it.");
  parser.add_flag({"--cmd", "NAME", "job to run: campaign, fixpoint, or harden",
                   "campaign"});
  add_client_flags(parser);
  parser.add_flag({"--priority", "N", "queue priority (higher runs first)", "0"});
  add_campaign_flags(parser);
  parser.add_flag({"--max-iterations", "N", "fixpoint/harden --patterns: iteration cap",
                   "12"});
  parser.add_flag({"--patterns", "", "harden: use the Faulter+Patcher patterns", ""});
  parser.add_flag({"--elf", "FILE",
                   "fixpoint/harden: also write the returned hardened ELF to FILE", ""});
  add_guest_flags(parser);
  add_format_flags(parser);
  return parser;
}

int run_submit(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r submit: expected exactly one guest spec (try 'r2r submit --help')\n";
    return 2;
  }
  (void)format_from(args);  // validated before the guest is resolved
  const std::string cmd = args.value_or("--cmd", "campaign");
  if (cmd != "campaign" && cmd != "fixpoint" && cmd != "harden") {
    err << "r2r submit: unknown --cmd '" << cmd
        << "' (expected campaign, fixpoint, or harden)\n";
    return 2;
  }
  const svc::JobSpec spec =
      job_spec_from(args, svc::job_kind_from(cmd),
                    load_guest(args.positionals()[0], overrides_from(args)));

  try {
    svc::Client client = connect_from(args);
    svc::Message request = spec.to_message();
    request.set("op", "submit");
    request.set_u64("priority", args.count_or("--priority", 0));
    const svc::Message response = client.request(request);
    if (response.get_or("ok", "0") != "1") {
      err << "r2r submit: " << response.get_or("error", "daemon refused the job")
          << "\n";
      return svc::kInfraExitCode;
    }
    const svc::JobResult result = svc::JobResult::from_message(response);
    if (result.infra) {
      err << "r2r submit: " << result.error << "\n";
      return svc::kInfraExitCode;
    }
    return print_job(args, result, out, err);
  } catch (const support::Error& error) {
    err << "r2r submit: " << error.what() << "\n";
    return svc::kInfraExitCode;
  }
}

ArgParser make_status_parser() {
  ArgParser parser(
      "status", "",
      "Query a running r2rd daemon: queue depth and capacity, worker count\n"
      "and respawns, cache entries/hits/misses, jobs submitted, completed\n"
      "and rejected, and whether a drain is in progress.");
  add_client_flags(parser);
  add_format_flags(parser);
  return parser;
}

int run_status(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const Format format = format_from(args);
  try {
    svc::Client client = connect_from(args);
    svc::Message request;
    request.set("op", "status");
    const svc::Message response = client.request(request);
    static constexpr const char* kFields[] = {
        "draining",      "workers",        "queue_depth",    "queue_capacity",
        "cache_entries", "cache_hits",     "cache_misses",   "jobs_submitted",
        "jobs_completed", "jobs_rejected", "workers_respawned",
    };
    std::string text;
    if (format == Format::kJson) {
      text = "{\n";
      for (std::size_t i = 0; i < std::size(kFields); ++i) {
        text += "  \"" + std::string(kFields[i]) +
                "\": " + response.get_or(kFields[i], "0") +
                (i + 1 < std::size(kFields) ? ",\n" : "\n");
      }
      text += "}\n";
    } else {
      const std::string socket = args.value_or("--socket", kDefaultSocket);
      text = "r2rd at " + socket + "\n";
      for (const char* field : kFields) {
        text += "  " + std::string(field) + ": " + response.get_or(field, "0") + "\n";
      }
    }
    emit_output(args, out, text);
    return 0;
  } catch (const support::Error& error) {
    err << "r2r status: " << error.what() << "\n";
    return svc::kInfraExitCode;
  }
}

ArgParser make_shutdown_parser() {
  ArgParser parser(
      "shutdown", "",
      "Gracefully stop a running r2rd daemon: it immediately refuses new\n"
      "jobs, finishes everything already queued, then answers here and\n"
      "exits. The reply reports the final statistics.");
  add_client_flags(parser);
  return parser;
}

int run_shutdown(const ArgParser& args, std::ostream& out, std::ostream& err) {
  try {
    svc::Client client = connect_from(args);
    svc::Message request;
    request.set("op", "shutdown");
    const svc::Message response = client.request(request);
    out << "r2rd drained: " << response.get_or("jobs_completed", "0")
        << " job(s) completed, " << response.get_or("cache_hits", "0")
        << " cache hit(s), " << response.get_or("workers_respawned", "0")
        << " worker respawn(s)\n";
    return 0;
  } catch (const support::Error& error) {
    err << "r2r shutdown: " << error.what() << "\n";
    return svc::kInfraExitCode;
  }
}

}  // namespace r2r::cli
