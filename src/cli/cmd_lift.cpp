// r2r lift — assembly/guest -> BIR listing (reassembleable disassembly) or
// compiler-IR dump: the inspection entry point of the pipeline.
#include <ostream>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "cli/cli.h"
#include "ir/printer.h"
#include "isa/printer.h"
#include "isa/target.h"
#include "lift/lifter.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::cli {

ArgParser make_lift_parser() {
  ArgParser parser(
      "lift", "<guest>",
      "Build the guest and print its recovered binary IR — the labelled,\n"
      "symbolized instruction listing the patcher edits — or, with --ir, the\n"
      "compiler IR the Hybrid approach hardens.");
  parser.add_flag({"--ir", "", "print the lifted compiler IR instead of the BIR listing",
                   ""});
  add_guest_flags(parser);
  // Listings are already text, so lift takes --out without --format.
  parser.add_flag({"--out", "FILE", "write the listing to FILE instead of stdout", ""});
  return parser;
}

namespace {

std::string bir_listing(const guests::Guest& guest, const elf::Image& image,
                        bir::Module& module) {
  const isa::Target& target = isa::target(module.arch);
  std::string out = "; r2r lift — " + guest.name + ": " +
                    std::to_string(module.instruction_count()) + " instruction(s), " +
                    std::to_string(image.code_size()) + " code bytes, entry " +
                    support::hex_string(image.entry) + "\n";
  for (const bir::CodeItem& item : module.text) {
    for (const std::string& label : item.labels) out += label + ":\n";
    if (item.is_instruction()) {
      out += "  " + support::hex_string(item.address) + "  " + target.print(*item.instr) +
             "\n";
    } else if (!item.raw.empty()) {
      out += "  " + support::hex_string(item.address) + "  .byte <" +
             std::to_string(item.raw.size()) + " raw byte(s)>\n";
    }
  }
  return out;
}

}  // namespace

int run_lift(const ArgParser& args, isa::Arch arch, std::ostream& out, std::ostream& err) {
  if (args.positionals().size() != 1) {
    err << "r2r lift: expected exactly one guest spec (try 'r2r lift --help')\n";
    return 2;
  }
  const guests::Guest guest = load_guest(args.positionals()[0], arch, overrides_from(args));
  const elf::Image image = guests::build_image(guest);

  std::string text;
  if (args.has("--ir")) {
    const lift::LiftResult lifted = lift::lift(image);
    text = "; r2r lift --ir — " + guest.name + "\n" + ir::print(lifted.module);
  } else {
    bir::Module module = bir::recover(image);
    bir::assemble(module);  // assign addresses for the listing
    text = bir_listing(guest, image, module);
  }
  emit_output(args, out, text);
  return 0;
}

}  // namespace r2r::cli
