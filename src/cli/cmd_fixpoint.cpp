// r2r fixpoint — the full Faulter+Patcher loop (Fig. 2; order 2+ climbs the
// reinforcement ladder that closes the paper's higher-order gap), with
// per-iteration reporting and the Table-V overhead split.
#include <ostream>

#include "cli/cli.h"
#include "elf/image.h"
#include "harden/report.h"
#include "patch/pipeline.h"
#include "support/strings.h"

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

int run_fixpoint(const ArgParser& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r fixpoint: expected exactly one guest spec (try 'r2r fixpoint --help')\n";
    return 2;
  }
  const Format format = format_from(args);
  const guests::Guest guest = load_guest(args.positionals()[0], overrides_from(args));
  const elf::Image image = guests::build_image(guest);

  patch::PipelineConfig config;
  config.campaign = campaign_config_from(args);
  config.max_iterations = static_cast<unsigned>(args.count_or("--max-iterations", 12));
  const patch::PipelineResult result =
      patch::faulter_patcher(image, guest.good_input, guest.bad_input, config);

  std::string text;
  switch (format) {
    case Format::kText: text = harden::fixpoint_section(guest.name, result); break;
    case Format::kJson: text = result.to_json(); break;
    case Format::kMarkdown:
      text = harden::fixpoint_markdown_section(guest.name, result);
      break;
  }
  emit_output(args, out, text);

  if (const auto elf_path = args.value("--elf")) {
    const std::vector<std::uint8_t> bytes = elf::write_elf(result.hardened);
    write_file(*elf_path,
               std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    out << "hardened ELF written to " << *elf_path << " (" << bytes.size() << " bytes)\n";
  }

  return result.verdict() ? 0 : 1;
}

}  // namespace r2r::cli
