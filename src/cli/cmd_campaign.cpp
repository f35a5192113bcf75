// r2r campaign — one fault::run_campaign sweep against one guest: order-1
// single faults or order-k fault tuples (k = 2 is the pair sweep), with
// text/JSON/markdown reports.
#include <ostream>

#include "cli/cli.h"
#include "harden/report.h"

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
  const Format format = format_from(args);  // validated before the sweep
  const guests::Guest guest = load_guest(args.positionals()[0], overrides_from(args));
  const elf::Image image = guests::build_image(guest);
  const fault::TupleCampaignResult result = fault::run_campaign(
      image, guest.good_input, guest.bad_input, campaign_config_from(args));

  std::string text;
  switch (format) {
    case Format::kText: text = harden::campaign_section(guest.name, result); break;
    case Format::kJson: text = result.to_json(); break;
    case Format::kMarkdown:
      text = harden::campaign_markdown_section(guest.name, result);
      break;
  }
  emit_output(args, out, text);
  return 0;
}

}  // namespace r2r::cli
