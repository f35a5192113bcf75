// r2r synth — the deterministic guest generator as a command: emit one (or
// a range of) seeded synthetic guests, to stdout or as bundle files that
// `r2r batch --dir` picks up directly.
#include <cstdio>
#include <ostream>

#include "cli/cli.h"
#include "guests/synth.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::cli {

using support::ErrorKind;
using support::fail;

ArgParser make_synth_parser() {
  ArgParser parser(
      "synth", "",
      "Generate seeded synthetic guests in the r2r dialect: a randomized\n"
      "control-flow skeleton around one security decision, plus host-derived\n"
      "good/bad inputs and expected-output oracles. Pure in the seed — the\n"
      "same invocation is byte-identical on every host. Without --out the\n"
      "assembly (with an oracle header) prints to stdout; with --out each\n"
      "guest becomes <name>.s/.good/.bad/.expect.json under the directory.");
  parser.add_flag({"--seed", "K", "first (or only) generator seed", "0"});
  parser.add_flag({"--count", "N", "number of consecutive seeds to emit", "1"});
  parser.add_flag({"--out", "DIR", "write guest bundles into DIR instead of stdout", ""});
  parser.add_flag({"--min-key-len", "N", "input length lower bound (bytes)", "4"});
  parser.add_flag({"--max-key-len", "N", "input length upper bound (bytes)", "8"});
  parser.add_flag({"--max-noise-helpers", "N", "call-tree size bound", "3"});
  parser.add_flag({"--branch-density", "P", "noise conditional chance (percent)", "40"});
  parser.add_flag({"--loop-chance", "P", "data-dependent loop chance (percent)", "60"});
  parser.add_flag({"--max-cmp-jcc-gap", "N",
                   "max flag-neutral filler draws between the decision cmp\nand its jcc "
                   "(Table II/III cmp-far-from-branch shapes)",
                   "4"});
  parser.add_flag({"--decisions", "LIST",
                   "allowed decision kinds: byte, digest, multistage", "all three"});
  return parser;
}

namespace {

std::string_view decision_name(guests::synth::DecisionKind kind) {
  switch (kind) {
    case guests::synth::DecisionKind::kByteCompare: return "byte-compare";
    case guests::synth::DecisionKind::kDigestCompare: return "digest-compare";
    case guests::synth::DecisionKind::kMultiStageGuard: return "multi-stage-guard";
  }
  return "?";
}

std::string printable(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    if (c >= 0x20 && c < 0x7F && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

}  // namespace

int run_synth(const ArgParser& args, isa::Arch arch, std::ostream& out, std::ostream& err) {
  if (!args.positionals().empty()) {
    err << "r2r synth: takes no positional arguments (try 'r2r synth --help')\n";
    return 2;
  }
  guests::synth::SynthConfig config;
  config.arch = arch;
  config.min_key_len = static_cast<unsigned>(args.count_or("--min-key-len", 4));
  config.max_key_len = static_cast<unsigned>(args.count_or("--max-key-len", 8));
  config.max_noise_helpers = static_cast<unsigned>(args.count_or("--max-noise-helpers", 3));
  config.branch_density_percent =
      static_cast<unsigned>(args.count_or("--branch-density", 40));
  config.loop_chance_percent = static_cast<unsigned>(args.count_or("--loop-chance", 60));
  config.max_cmp_jcc_gap = static_cast<unsigned>(args.count_or("--max-cmp-jcc-gap", 4));
  if (const auto list = args.value("--decisions")) {
    config.allow_byte_compare = false;
    config.allow_digest = false;
    config.allow_multistage = false;
    for (const std::string_view piece : support::split(*list, ',')) {
      if (piece == "byte") {
        config.allow_byte_compare = true;
      } else if (piece == "digest") {
        config.allow_digest = true;
      } else if (piece == "multistage") {
        config.allow_multistage = true;
      } else {
        fail(ErrorKind::kInvalidArgument,
             "unknown decision kind '" + std::string(piece) +
                 "' (expected byte, digest, or multistage)");
      }
    }
  }

  const std::uint64_t base = args.count_or("--seed", 0);
  const std::uint64_t count = args.count_or("--count", 1);
  const auto dir = args.value("--out");
  for (std::uint64_t seed = base; seed < base + count; ++seed) {
    config.seed = seed;
    const guests::Guest guest = guests::synth::generate(config);
    const std::string_view decision = decision_name(guests::synth::decision_kind(config));
    if (dir.has_value()) {
      const std::vector<std::string> paths = write_guest_bundle(guest, *dir);
      out << guest.name << " (" << decision << "): " << paths.size()
          << " files under " << *dir << "\n";
      continue;
    }
    out << "; " << guest.name << " — decision: " << decision << "\n";
    out << "; good input \"" << printable(guest.good_input) << "\" -> exit "
        << guest.good_exit << ", bad input \"" << printable(guest.bad_input)
        << "\" -> exit " << guest.bad_exit << "\n";
    out << guest.assembly;
    if (seed + 1 < base + count) out << "\n";
  }
  return 0;
}

}  // namespace r2r::cli
