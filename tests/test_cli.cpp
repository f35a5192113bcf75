// End-to-end tests of the r2r driver (src/cli/): every subcommand runs
// in-process through cli::run against pincheck / toymov / a synth seed,
// asserting exit codes, report contents, JSON equivalence with the
// library, batch -j1 vs -j8 byte-identity, and (CliDocs) that docs/r2r.md
// embeds every --help text verbatim.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "cli/guest_spec.h"
#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "sim/engine.h"
#include "support/strings.h"

namespace {

namespace fs = std::filesystem;
using namespace r2r;

struct CliResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.exit_code = cli::run(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

std::string temp_path(const std::string& name) {
  return (fs::path(testing::TempDir()) / name).string();
}

elf::Image read_image(const std::string& path) {
  const std::string bytes = cli::read_file(path);
  return elf::read_elf(std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                 bytes.size()));
}

// ---- dispatch & usage -------------------------------------------------------

TEST(Cli, TopLevelHelpListsEveryCommand) {
  const CliResult result = run_cli({"--help"});
  EXPECT_EQ(result.exit_code, 0);
  for (const cli::Command& command : cli::commands()) {
    EXPECT_NE(result.out.find(std::string(command.name)), std::string::npos)
        << "missing " << command.name;
  }
}

TEST(Cli, NoArgumentsIsAUsageError) {
  const CliResult result = run_cli({});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.out.find("usage: r2r"), std::string::npos);
}

TEST(Cli, UnknownCommandAndFlagAreUsageErrors) {
  EXPECT_EQ(run_cli({"frobnicate"}).exit_code, 2);
  const CliResult result = run_cli({"campaign", "toymov", "--bogus"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("--bogus"), std::string::npos);
}

TEST(Cli, MalformedCampaignFlagsAreUsageErrors) {
  EXPECT_EQ(run_cli({"campaign", "toymov", "--order", "0"}).exit_code, 2);
  EXPECT_EQ(run_cli({"campaign", "toymov", "--order",
                     std::to_string(fault::kMaxCampaignOrder + 1)})
                .exit_code,
            2);
  EXPECT_EQ(run_cli({"campaign", "toymov", "--model", "quantum"}).exit_code, 2);
  EXPECT_EQ(run_cli({"campaign", "toymov", "--threads", "-4"}).exit_code, 2);
  EXPECT_EQ(run_cli({"campaign", "nosuchguest"}).exit_code, 2);
}

// A malformed or out-of-range client flag is a usage error (2), never
// reported as an unreachable daemon (3): no daemon listens on the socket.
TEST(Cli, MalformedConnectTimeoutIsAUsageError) {
  for (const char* command : {"status", "shutdown"}) {
    for (const char* timeout : {"x", "4294967296"}) {
      const CliResult result = run_cli({command, "--socket", "no_daemon_here.sock",
                                        "--connect-timeout", timeout});
      EXPECT_EQ(result.exit_code, 2) << command << " " << timeout << ": " << result.err;
      EXPECT_NE(result.err.find("--connect-timeout"), std::string::npos) << command;
    }
  }
}

// Count-like flags must reject values beyond their range instead of
// silently wrapping through the unsigned narrowing (4294967297 == 1).
TEST(Cli, CountFlagsRejectOverflowInsteadOfWrapping) {
  const CliResult threads = run_cli({"campaign", "toymov", "--threads", "4294967297"});
  EXPECT_EQ(threads.exit_code, 2);
  EXPECT_NE(threads.err.find("--threads"), std::string::npos);
  EXPECT_NE(threads.err.find("4294967297"), std::string::npos);
  EXPECT_EQ(run_cli({"campaign", "toymov", "--pair-window", "99999999999999999999"})
                .exit_code,
            2);
  EXPECT_EQ(run_cli({"fixpoint", "toymov", "--max-iterations", "4294967296"}).exit_code,
            2);
}

// ---- lift -------------------------------------------------------------------

TEST(Cli, LiftPrintsTheBirListing) {
  const CliResult result = run_cli({"lift", "toymov"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("_start:"), std::string::npos);
  EXPECT_NE(result.out.find("cmp rbx, 65"), std::string::npos);
  EXPECT_NE(result.out.find("25 instruction(s)"), std::string::npos);
}

TEST(Cli, LiftIrPrintsTheCompilerIr) {
  const CliResult result = run_cli({"lift", "toymov", "--ir"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("r2r lift --ir — toymov"), std::string::npos);
  EXPECT_NE(result.out.find("_start"), std::string::npos);
}

// ---- campaign ---------------------------------------------------------------

TEST(Cli, CampaignJsonMatchesTheEngineByteForByte) {
  const guests::Guest& guest = guests::toymov();
  const sim::Engine engine(guests::build_image(guest), guest.good_input, guest.bad_input,
                           {});
  sim::FaultModels models;
  models.bit_flip = false;
  for (const unsigned order : {1u, 2u, 3u}) {
    const CliResult result = run_cli({"campaign", "toymov", "--model", "skip", "--order",
                                      std::to_string(order), "--format", "json"});
    ASSERT_EQ(result.exit_code, 0);
    models.order = order;
    if (order == 1) {
      // The order-1 sweep nests as `order1`, with no levels above it.
      EXPECT_NE(result.out.find("\"order\": 1,"), std::string::npos);
      EXPECT_NE(result.out.find("\"levels\": [],"), std::string::npos);
      EXPECT_NE(result.out.find(support::nest_json(engine.run(models).to_json())),
                std::string::npos);
    } else {
      EXPECT_EQ(result.out, engine.run_tuples(models).to_json()) << "order " << order;
    }
  }
}

TEST(Cli, CampaignTextReportsTheSweep) {
  const CliResult result = run_cli({"campaign", "toymov", "--model", "skip"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("fault campaign: toymov"), std::string::npos);
  EXPECT_NE(result.out.find("faults: 17 over 17 trace entries"), std::string::npos);
  EXPECT_NE(result.out.find("successful-fault"), std::string::npos);
}

TEST(Cli, CampaignOrder2EmitsTupleReports) {
  const CliResult text = run_cli({"campaign", "toymov", "--model", "skip", "--order", "2"});
  EXPECT_EQ(text.exit_code, 0);
  EXPECT_NE(text.out.find("order-2 tuples:"), std::string::npos);

  const CliResult json = run_cli(
      {"campaign", "toymov", "--model", "skip", "--order", "2", "--format", "json"});
  EXPECT_EQ(json.exit_code, 0);
  EXPECT_NE(json.out.find("\"order\": 2,"), std::string::npos);
  EXPECT_NE(json.out.find("\"pair_window\": 8"), std::string::npos);
  EXPECT_NE(json.out.find("\"vulnerable_tuples\""), std::string::npos);

  const CliResult markdown = run_cli(
      {"campaign", "toymov", "--model", "skip", "--order", "2", "--format", "markdown"});
  EXPECT_EQ(markdown.exit_code, 0);
  EXPECT_NE(markdown.out.find("### residual 2-tuple campaign: toymov"), std::string::npos);
}

TEST(Cli, CampaignOutWritesTheReportFile) {
  const std::string path = temp_path("campaign.json");
  const CliResult result = run_cli(
      {"campaign", "toymov", "--model", "skip", "--format", "json", "--out", path});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("report written to"), std::string::npos);
  EXPECT_NE(cli::read_file(path).find("\"total_faults\": 17"), std::string::npos);
}

// ---- fixpoint ---------------------------------------------------------------

TEST(Cli, FixpointOrder2ReachesTheToymovFixpoint) {
  const CliResult result =
      run_cli({"fixpoint", "toymov", "--model", "skip", "--order", "2"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("order-2 clean: yes"), std::string::npos);
  // The CHANGES.md Table-V overhead split for toymov.
  EXPECT_NE(result.out.find("order-1 68.4% -> order-2 71.6%"), std::string::npos);
}

// A ladder that stops on a lower rung (nothing left to patch) reports at
// the requested order, the order its final campaign and exit code are
// judged at.
TEST(Cli, FixpointReportNamesTheRequestedOrderWhenTheLadderStopsLower) {
  const std::vector<std::string> args = {"fixpoint", "synth:101",    "--model", "skip",
                                         "--order",  "3",            "--pair-window", "8"};
  const CliResult text = run_cli(args);
  EXPECT_EQ(text.exit_code, 1);
  EXPECT_NE(text.out.find("order-3 fix-point trajectory: synth_101\n"), std::string::npos)
      << text.out;
  EXPECT_NE(text.out.find("  fix-point: yes, order-3 clean: NO\n"), std::string::npos);
  EXPECT_NE(text.out.find("  overhead vs k:  order 1 "), std::string::npos);
  EXPECT_EQ(text.out.find("order-2"), std::string::npos);

  std::vector<std::string> markdown_args = args;
  markdown_args.insert(markdown_args.end(), {"--format", "markdown"});
  const CliResult markdown = run_cli(markdown_args);
  EXPECT_EQ(markdown.exit_code, 1);
  EXPECT_NE(markdown.out.find("### order-3 fix-point trajectory: synth_101\n"),
            std::string::npos)
      << markdown.out;
  EXPECT_NE(markdown.out.find("\n- fix-point: yes, order-3 clean: NO\n"), std::string::npos);
  EXPECT_NE(markdown.out.find("\n- overhead vs k:  order 1 "), std::string::npos);
  EXPECT_EQ(markdown.out.find("order-2"), std::string::npos);
}

// A run capped on rung 1 is judged by its order-3 sweep, so its report is
// the ladder view at order 3, with the overhead unsplit.
TEST(Cli, FixpointCappedOnRungOneReportsTheRequestedOrder) {
  const std::vector<std::string> args = {"fixpoint", "toymov", "--model",          "skip",
                                         "--order",  "3",      "--max-iterations", "1"};
  const CliResult text = run_cli(args);
  EXPECT_EQ(text.exit_code, 1);
  EXPECT_NE(text.out.find("order-3 fix-point trajectory: toymov\n"), std::string::npos)
      << text.out;
  EXPECT_NE(text.out.find("  fix-point: NO (cap hit), order-3 clean: NO\n"),
            std::string::npos);
  EXPECT_NE(text.out.find("  overhead (Table-V style): 68.4%\n"), std::string::npos);

  std::vector<std::string> markdown_args = args;
  markdown_args.insert(markdown_args.end(), {"--format", "markdown"});
  const CliResult markdown = run_cli(markdown_args);
  EXPECT_EQ(markdown.exit_code, 1);
  EXPECT_NE(markdown.out.find("### order-3 fix-point trajectory: toymov\n"),
            std::string::npos)
      << markdown.out;
  EXPECT_NE(markdown.out.find("\n- fix-point: NO (cap hit), order-3 clean: NO\n"),
            std::string::npos);
  EXPECT_NE(markdown.out.find("\n- overhead (Table-V style): 68.4%\n"), std::string::npos);
}

TEST(Cli, FixpointJsonAndElfOutputs) {
  const std::string elf_path = temp_path("toymov_fix.elf");
  const CliResult result = run_cli({"fixpoint", "toymov", "--model", "skip", "--order",
                                    "2", "--format", "json", "--elf", elf_path});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("\"orderk_fixpoint\": true"), std::string::npos);
  EXPECT_NE(result.out.find("\"iterations\": ["), std::string::npos);

  // The written ELF is loadable and order-1 clean under the skip model.
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  const guests::Guest& guest = guests::toymov();
  const fault::TupleCampaignResult campaign = fault::run_campaign(
      read_image(elf_path), guest.good_input, guest.bad_input, config);
  EXPECT_TRUE(campaign.order1.vulnerabilities.empty());
}

// ---- harden -----------------------------------------------------------------

TEST(Cli, HardenHybridWritesARunnableElf) {
  const std::string path = temp_path("toymov_hybrid.elf");
  const CliResult result = run_cli({"harden", "toymov", "--out", path});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("behaviour: good exit=0, bad exit=1"), std::string::npos);
  EXPECT_NE(result.out.find("intact"), std::string::npos);

  const guests::Guest& guest = guests::toymov();
  const emu::RunResult good = emu::run_image(read_image(path), guest.good_input);
  EXPECT_EQ(good.exit_code, guest.good_exit);
  EXPECT_EQ(good.output, guest.good_output);
}

TEST(Cli, HardenPatternsEliminatesSkipFaults) {
  const std::string path = temp_path("toymov_patterns.elf");
  const CliResult result =
      run_cli({"harden", "toymov", "--patterns", "--model", "skip", "--out", path});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("fix-point reached"), std::string::npos);

  fault::CampaignConfig config;
  config.models.bit_flip = false;
  const guests::Guest& guest = guests::toymov();
  const fault::TupleCampaignResult campaign = fault::run_campaign(
      read_image(path), guest.good_input, guest.bad_input, config);
  EXPECT_TRUE(campaign.order1.vulnerabilities.empty());
}

TEST(Cli, HardenRejectsConflictingApproaches) {
  EXPECT_EQ(run_cli({"harden", "toymov", "--hybrid", "--patterns"}).exit_code, 2);
  EXPECT_EQ(run_cli({"harden", "toymov", "--countermeasure", "prayer"}).exit_code, 2);
}

// ---- synth ------------------------------------------------------------------

TEST(Cli, SynthIsDeterministicAndBundlesRoundTrip) {
  const CliResult first = run_cli({"synth", "--seed", "11"});
  const CliResult second = run_cli({"synth", "--seed", "11"});
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.out, second.out);
  EXPECT_NE(first.out.find("synth_11"), std::string::npos);

  const std::string dir = temp_path("synth_bundle");
  const CliResult bundle = run_cli({"synth", "--seed", "11", "--out", dir});
  EXPECT_EQ(bundle.exit_code, 0);
  for (const char* suffix : {".s", ".good", ".bad", ".expect.json"}) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / ("synth_11" + std::string(suffix))))
        << suffix;
  }

  // The bundle is a valid guest spec: the campaign picks up the sidecar
  // inputs and sweeps the generated binary end-to-end.
  const CliResult campaign =
      run_cli({"campaign", (fs::path(dir) / "synth_11.s").string(), "--model", "skip"});
  EXPECT_EQ(campaign.exit_code, 0);
  EXPECT_NE(campaign.out.find("fault campaign: synth_11"), std::string::npos);
}

// ---- batch ------------------------------------------------------------------

TEST(Cli, BatchIsByteIdenticalAcrossWorkerCounts) {
  for (const char* format : {"text", "json", "markdown"}) {
    const std::vector<std::string> base = {"batch",   "--cmd",  "campaign", "pincheck",
                                           "toymov",  "synth:7", "--model",  "skip",
                                           "--format", format};
    std::vector<std::string> j1 = base;
    j1.push_back("-j1");
    std::vector<std::string> j8 = base;
    j8.push_back("-j8");
    const CliResult serial = run_cli(j1);
    const CliResult parallel = run_cli(j8);
    EXPECT_EQ(serial.exit_code, 0) << format;
    EXPECT_EQ(serial.exit_code, parallel.exit_code) << format;
    EXPECT_EQ(serial.out, parallel.out) << format;
    EXPECT_EQ(serial.err, parallel.err) << format;
  }
}

TEST(Cli, BatchSummarisesEveryGuest) {
  const CliResult result = run_cli(
      {"batch", "--cmd", "campaign", "pincheck", "toymov", "--model", "skip"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("| pincheck | ok"), std::string::npos);
  EXPECT_NE(result.out.find("| toymov   | ok"), std::string::npos);
  EXPECT_NE(result.out.find("batch campaign: 2 guest(s), 2 ok, 0 failed"),
            std::string::npos);
}

TEST(Cli, BatchDiscoversBundleDirectoriesAndLifts) {
  const std::string dir = temp_path("batch_dir");
  ASSERT_EQ(run_cli({"synth", "--seed", "3", "--count", "2", "--out", dir}).exit_code, 0);
  const CliResult result = run_cli({"batch", "--cmd", "lift", "--dir", dir});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("synth_3"), std::string::npos);
  EXPECT_NE(result.out.find("synth_4"), std::string::npos);
  EXPECT_NE(result.out.find("2 guest(s), 2 ok, 0 failed"), std::string::npos);
}

TEST(Cli, SynthAndBatchFollowTheTarget) {
  // synth generates for --target, and batch runs the bundles on it.
  const CliResult printed = run_cli({"--target", "rv32i", "synth", "--seed", "3"});
  ASSERT_EQ(printed.exit_code, 0);
  EXPECT_NE(printed.out.find(guests::synth::generate(3, isa::Arch::kRv32i).assembly),
            std::string::npos);
  const std::string dir = temp_path("rv32i_bundles");
  ASSERT_EQ(run_cli({"--target", "rv32i", "synth", "--seed", "3", "--count", "2", "--out",
                     dir})
                .exit_code,
            0);
  const CliResult batch = run_cli({"--target=rv32i", "batch", "--dir", dir, "--model", "skip"});
  EXPECT_EQ(batch.exit_code, 0) << batch.out;
  EXPECT_NE(batch.out.find("2 guest(s), 2 ok, 0 failed, 0 errored"), std::string::npos)
      << batch.out;
}

TEST(Cli, BundlesRecordTheirTarget) {
  // x64 bundles under --target rv32i are a usage error naming both
  // targets, raised before any guest runs.
  const std::string dir = temp_path("x64_bundles");
  ASSERT_EQ(run_cli({"synth", "--seed", "3", "--count", "2", "--out", dir}).exit_code, 0);
  const std::string expect = cli::read_file((fs::path(dir) / "synth_3.expect.json").string());
  EXPECT_NE(expect.find("\"target\": \"x64\""), std::string::npos) << expect;
  const CliResult batch = run_cli({"--target", "rv32i", "batch", "--dir", dir, "--model", "skip"});
  EXPECT_EQ(batch.exit_code, 2);
  EXPECT_NE(batch.err.find("generated for target 'x64', not 'rv32i'"), std::string::npos)
      << batch.err;
  EXPECT_EQ(batch.out, "");
  const std::string spec = (fs::path(dir) / "synth_3.s").string();
  EXPECT_EQ(run_cli({"--target=rv32i", "campaign", spec, "--model", "skip"}).exit_code, 2);
  EXPECT_EQ(run_cli({"batch", "--dir", dir, "--model", "skip"}).exit_code, 0);

  // A bundle that records no target loads on the target it is given.
  std::string unrecorded = expect;
  unrecorded.erase(unrecorded.find("  \"target\""),
                   unrecorded.find('\n', unrecorded.find("\"target\"")) + 1 -
                       unrecorded.find("  \"target\""));
  cli::write_file((fs::path(dir) / "synth_3.expect.json").string(), unrecorded);
  EXPECT_EQ(run_cli({"campaign", spec, "--model", "skip"}).exit_code, 0);
}

// A guest spec that cannot even be resolved is an *infrastructure* error
// (exit 3, its own row status and summary count), distinct from a guest
// that ran and failed its check (exit 1, "FAILED").
TEST(Cli, BatchInfraErrorsAreDistinctFromCheckFailures) {
  const CliResult result =
      run_cli({"batch", "--cmd", "campaign", "toymov", "nosuchguest", "--model", "skip"});
  EXPECT_EQ(result.exit_code, 3);
  EXPECT_NE(result.out.find("ERROR"), std::string::npos);
  EXPECT_NE(result.out.find("2 guest(s), 1 ok, 0 failed, 1 errored"),
            std::string::npos);
  // JSON marks the row and counts the class separately.
  const CliResult json = run_cli({"batch", "--cmd", "campaign", "toymov",
                                  "nosuchguest", "--model", "skip", "--format", "json"});
  EXPECT_EQ(json.exit_code, 3);
  EXPECT_NE(json.out.find("\"errored\": true"), std::string::npos);
  EXPECT_NE(json.out.find("\"errored\": 1"), std::string::npos);
}

// Duplicate guest specs resolve to the same work; the batch warns and runs
// the guest once instead of paying for (and double-counting) it twice.
TEST(Cli, BatchDeduplicatesRepeatedGuestSpecs) {
  const CliResult result = run_cli(
      {"batch", "--cmd", "campaign", "pincheck", "pincheck", "--model", "skip"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.err.find("duplicate guest spec 'pincheck'"), std::string::npos);
  EXPECT_NE(result.out.find("1 guest(s), 1 ok, 0 failed, 0 errored"),
            std::string::npos);
}

// A .s guest without inputs has no oracle, so `r2r harden` accepts it
// ("behaviour: unchecked"). A batch harden row reads the same harden run:
// it is ok exactly when `r2r harden` exits 0.
TEST(Cli, BatchHardenRowOfAGuestWithoutInputsMatchesHarden) {
  const std::string dir = temp_path("batch_no_inputs");
  fs::create_directories(dir);
  const std::string guest = (fs::path(dir) / "quiet.s").string();
  cli::write_file(guest,
                  ".global _start\n_start:\n    mov rax, 60\n    mov rdi, 0\n    syscall\n");

  const CliResult harden = run_cli({"harden", guest, "--out", temp_path("quiet.elf")});
  EXPECT_EQ(harden.exit_code, 0) << harden.err;
  EXPECT_NE(harden.out.find("behaviour: unchecked"), std::string::npos) << harden.out;

  const CliResult batch = run_cli({"batch", "--cmd", "harden", "--dir", dir});
  EXPECT_EQ(batch.exit_code, 0) << batch.out;
  EXPECT_NE(batch.out.find("| quiet | ok"), std::string::npos) << batch.out;
  EXPECT_NE(batch.out.find("1 guest(s), 1 ok, 0 failed, 0 errored"), std::string::npos);
}

// The JSON row of an unchecked guest says neither intact nor changed.
TEST(Cli, BatchHardenRowOfAnUncheckedGuestIsNeitherIntactNorChanged) {
  const std::string dir = temp_path("batch_unchecked");
  fs::create_directories(dir);
  cli::write_file((fs::path(dir) / "quiet.s").string(),
                  ".global _start\n_start:\n    mov rax, 60\n    mov rdi, 0\n    syscall\n");

  const CliResult unchecked =
      run_cli({"batch", "--cmd", "harden", "--dir", dir, "--format", "json"});
  EXPECT_EQ(unchecked.exit_code, 0) << unchecked.out;
  EXPECT_NE(unchecked.out.find("\"ok\": true"), std::string::npos) << unchecked.out;
  EXPECT_NE(unchecked.out.find("\"behaviour_intact\": null"), std::string::npos)
      << unchecked.out;

  const CliResult checked =
      run_cli({"batch", "--cmd", "harden", "toymov", "--format", "json"});
  EXPECT_EQ(checked.exit_code, 0) << checked.out;
  EXPECT_NE(checked.out.find("\"behaviour_intact\": true"), std::string::npos)
      << checked.out;
}

// Batch refuses the approach conflict `r2r harden` refuses, before any
// guest runs.
TEST(Cli, BatchRejectsConflictingApproaches) {
  const CliResult batch =
      run_cli({"batch", "--cmd", "harden", "--hybrid", "--patterns", "toymov"});
  EXPECT_EQ(batch.exit_code, 2);
  EXPECT_EQ(batch.out, "");
  EXPECT_EQ(batch.err, "r2r batch: --hybrid and --patterns are mutually exclusive\n");

  const CliResult harden = run_cli({"harden", "toymov", "--hybrid", "--patterns"});
  EXPECT_EQ(harden.err, "r2r harden: --hybrid and --patterns are mutually exclusive\n");
}

// ---- docs drift -------------------------------------------------------------

// docs/r2r.md must embed the *current* --help text of the top level and of
// every subcommand verbatim: the manual cannot drift from the binary.
TEST(CliDocs, ManualEmbedsEveryHelpTextVerbatim) {
  const std::string doc = cli::read_file(std::string(R2R_SOURCE_DIR) + "/docs/r2r.md");
  EXPECT_NE(doc.find(cli::top_level_help()), std::string::npos)
      << "docs/r2r.md is missing the current top-level --help text";
  for (const cli::Command& command : cli::commands()) {
    const std::string help = command.make_parser().help();
    EXPECT_NE(doc.find(help), std::string::npos)
        << "docs/r2r.md is missing the current 'r2r " << command.name
        << " --help' text; regenerate with: ./build/r2r " << command.name << " --help";
  }
}

}  // namespace
