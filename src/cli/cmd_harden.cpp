// r2r harden — guest -> hardened ELF on disk, via either of the paper's
// two approaches: the Faulter+Patcher patterns (--patterns, Fig. 2) or the
// Hybrid lift -> countermeasure pass -> lower chain (--hybrid, Fig. 3).
// Behaviour is re-verified in the emulator before the ELF is written.
// svc::execute_job runs it, as it does for r2rd; --countermeasure and
// --no-cleanup reach it as a harden::HybridConfig.
#include <ostream>

#include "cli/cli.h"
#include "harden/hybrid.h"
#include "support/error.h"

namespace r2r::cli {

using support::ErrorKind;
using support::fail;

ArgParser make_harden_parser() {
  ArgParser parser(
      "harden", "<guest>",
      "Harden the guest and write a loadable ELF64 executable. --hybrid\n"
      "(default) runs lift -> cleanup passes -> countermeasure pass -> lower;\n"
      "--patterns runs the Faulter+Patcher loop with the paper's local\n"
      "protection patterns (honours the campaign flags, including --order).\n"
      "The hardened binary is re-run on both inputs; a behaviour change\n"
      "fails the command before anything is written.");
  parser.add_flag({"--hybrid", "", "use the Hybrid compiler-binary approach (Fig. 3)",
                   ""});
  parser.add_flag({"--patterns", "", "use the Faulter+Patcher patterns (Fig. 2)", ""});
  parser.add_flag({"--countermeasure", "NAME",
                   "--hybrid pass: branch-hardening, instruction-duplication, or none",
                   "branch-hardening"});
  parser.add_flag({"--no-cleanup", "",
                   "--hybrid: skip the state-promotion/folding/DCE cleanup passes", ""});
  parser.add_flag({"--out", "FILE", "output path", "<guest>_hardened.elf"});
  add_campaign_flags(parser);
  parser.add_flag({"--max-iterations", "N", "--patterns: iteration cap", "12"});
  add_guest_flags(parser);
  return parser;
}

int run_harden(const ArgParser& args, isa::Arch arch, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r harden: expected exactly one guest spec (try 'r2r harden --help')\n";
    return 2;
  }
  if (conflicting_approaches(args, err)) return 2;
  const svc::JobSpec spec =
      job_spec_from(args, svc::JobKind::kHarden,
                    load_guest(args.positionals()[0], arch, overrides_from(args)));
  harden::HybridConfig hybrid;
  if (!spec.patterns) {
    const std::string name = args.value_or("--countermeasure", "branch-hardening");
    const auto countermeasure = harden::countermeasure_from(name);
    if (!countermeasure.has_value()) {
      fail(ErrorKind::kInvalidArgument, "unknown --countermeasure '" + name +
                                            "' (expected branch-hardening, "
                                            "instruction-duplication, or none)");
    }
    hybrid.countermeasure = *countermeasure;
    hybrid.cleanup = !args.has("--no-cleanup");
  }
  const svc::JobResult job = svc::execute_job(spec, hybrid);
  out << job.report;
  if (job.exit_code != 0) {
    err << "r2r harden: hardened binary no longer matches the guest oracle; not writing\n";
    return job.exit_code;
  }
  write_elf_file(args.value_or("--out", spec.guest.name + "_hardened.elf"), job.elf, out);
  return 0;
}

}  // namespace r2r::cli
