// r2r fixpoint — the full Faulter+Patcher loop (Fig. 2; order 2+ climbs the
// reinforcement ladder that closes the paper's higher-order gap), with
// per-iteration reporting and the Table-V overhead split. svc::execute_job
// runs it, as it does for r2rd.
#include <ostream>

#include "cli/cli.h"

namespace r2r::cli {

ArgParser make_fixpoint_parser() {
  ArgParser parser(
      "fixpoint", "<guest>",
      "Iterate the Faulter+Patcher loop — campaign, map vulnerabilities to\n"
      "patch sites, apply the protection patterns, re-campaign — until no\n"
      "patchable vulnerability remains. --order 2+ continues past the\n"
      "order-1 fix-point, climbing an order ladder that reinforces every\n"
      "residual fault pair's (then k-tuple's) sites until the sweep at the\n"
      "requested order comes back clean. Exits 0 only at a genuine fix-point.");
  add_campaign_flags(parser);
  parser.add_flag({"--max-iterations", "N", "iteration cap across all ladder rungs", "12"});
  parser.add_flag({"--elf", "FILE", "also write the hardened ELF to FILE", ""});
  add_guest_flags(parser);
  add_format_flags(parser);
  return parser;
}

int run_fixpoint(const ArgParser& args, isa::Arch arch, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r fixpoint: expected exactly one guest spec (try 'r2r fixpoint --help')\n";
    return 2;
  }
  const svc::JobSpec spec =
      job_spec_from(args, svc::JobKind::kFixpoint,
                    load_guest(args.positionals()[0], arch, overrides_from(args)));
  return print_job(args, svc::execute_job(spec), out, err);
}

}  // namespace r2r::cli
