// r2r campaign — one campaign job against one guest: order-1 single faults
// or order-k fault tuples (k = 2 is the pair sweep), with text/JSON/markdown
// reports. svc::execute_job runs it, as it does for r2rd.
#include <ostream>

#include "cli/cli.h"

namespace r2r::cli {

ArgParser make_campaign_parser() {
  ArgParser parser(
      "campaign", "<guest>",
      "Run a differential fault-injection campaign against the guest: record\n"
      "the golden good/bad-input runs, then classify every allowed fault (at\n"
      "--order 2, every fault pair; at --order 3+, every fault k-tuple) of\n"
      "the bad-input trace. Exits 0 when the sweep completes, whatever it\n"
      "finds — a campaign is a measurement.");
  add_campaign_flags(parser);
  add_guest_flags(parser);
  add_format_flags(parser);
  return parser;
}

int run_campaign_cmd(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r campaign: expected exactly one guest spec (try 'r2r campaign --help')\n";
    return 2;
  }
  const svc::JobSpec spec =
      job_spec_from(args, svc::JobKind::kCampaign,
                    load_guest(args.positionals()[0], overrides_from(args)));
  return print_job(args, svc::execute_job(spec), out, err);
}

}  // namespace r2r::cli
