// r2r harden — guest -> hardened ELF on disk, via either of the paper's
// two approaches: the Faulter+Patcher patterns (--patterns, Fig. 2) or the
// Hybrid lift -> countermeasure pass -> lower chain (--hybrid, Fig. 3).
// Behaviour is re-verified in the emulator before the ELF is written.
#include <ostream>

#include "cli/cli.h"
#include "elf/image.h"
#include "emu/machine.h"
#include "harden/hybrid.h"
#include "harden/report.h"
#include "patch/pipeline.h"
#include "support/error.h"
#include "support/strings.h"

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

int run_harden(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r harden: expected exactly one guest spec (try 'r2r harden --help')\n";
    return 2;
  }
  if (args.has("--hybrid") && args.has("--patterns")) {
    err << "r2r harden: --hybrid and --patterns are mutually exclusive\n";
    return 2;
  }
  const guests::Guest guest = load_guest(args.positionals()[0], overrides_from(args));
  const elf::Image input = guests::build_image(guest);

  elf::Image hardened;
  if (args.has("--patterns")) {
    patch::PipelineConfig config;
    config.campaign = campaign_config_from(args);
    config.max_iterations = static_cast<unsigned>(args.count_or("--max-iterations", 12));
    const patch::PipelineResult result =
        patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
    out << harden::patterns_summary_line(result);
    hardened = result.hardened;
  } else {
    harden::HybridConfig config;
    const std::string countermeasure = args.value_or("--countermeasure", "branch-hardening");
    if (countermeasure == "branch-hardening") {
      config.countermeasure = harden::HybridCountermeasure::kBranchHardening;
    } else if (countermeasure == "instruction-duplication") {
      config.countermeasure = harden::HybridCountermeasure::kInstructionDuplication;
    } else if (countermeasure == "none") {
      config.countermeasure = harden::HybridCountermeasure::kNone;
    } else {
      fail(ErrorKind::kInvalidArgument, "unknown --countermeasure '" + countermeasure +
                                            "' (expected branch-hardening, "
                                            "instruction-duplication, or none)");
    }
    config.cleanup = !args.has("--no-cleanup");
    const harden::HybridResult result = harden::hybrid_harden(input, config);
    out << "hybrid (" << countermeasure << "): IR " << result.ir_before.total << " -> "
        << result.ir_after.total << " ops in " << result.ir_after.blocks << " block(s)\n";
    hardened = result.hardened;
  }
  out << "code size: " << input.code_size() << " -> " << hardened.code_size()
      << " bytes (overhead "
      << support::format_fixed(
             input.code_size() == 0
                 ? 0.0
                 : 100.0 *
                       (static_cast<double>(hardened.code_size()) -
                        static_cast<double>(input.code_size())) /
                       static_cast<double>(input.code_size()),
             1)
      << "%)\n";

  // Behaviour check: the hardened binary must still accept the authorized
  // input and refuse the attacker input exactly as the guest's oracle says.
  // (.s specs without inputs have no oracle to check against.)
  if (guest.good_input.empty() && guest.bad_input.empty() && guest.good_output.empty() &&
      guest.bad_output.empty()) {
    const std::string path = args.value_or("--out", guest.name + "_hardened.elf");
    const std::vector<std::uint8_t> bytes = elf::write_elf(hardened);
    write_file(path,
               std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    out << "behaviour: unchecked (no inputs for this guest)\n";
    out << "hardened ELF written to " << path << " (" << bytes.size() << " bytes)\n";
    return 0;
  }
  const emu::RunResult good = emu::run_image(hardened, guest.good_input);
  const emu::RunResult bad = emu::run_image(hardened, guest.bad_input);
  const bool intact = good.exit_code == guest.good_exit && good.output == guest.good_output &&
                      bad.exit_code == guest.bad_exit && bad.output == guest.bad_output;
  out << "behaviour: good exit=" << good.exit_code << ", bad exit=" << bad.exit_code
      << " (expected " << guest.good_exit << "/" << guest.bad_exit << ") — "
      << (intact ? "intact" : "CHANGED") << "\n";
  if (!intact) {
    err << "r2r harden: hardened binary no longer matches the guest oracle; not writing\n";
    return 1;
  }

  const std::string path = args.value_or("--out", guest.name + "_hardened.elf");
  const std::vector<std::uint8_t> bytes = elf::write_elf(hardened);
  write_file(path,
             std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  out << "hardened ELF written to " << path << " (" << bytes.size() << " bytes)\n";
  return 0;
}

}  // namespace r2r::cli
