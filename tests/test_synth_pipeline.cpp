// End-to-end hardening property harness over the synthetic guest
// generator (src/guests/synth.h).
//
// For every seed in the plan (frozen regression corpus + a randomized
// sweep range) the harness runs the full pipeline and asserts the
// invariants the repo claims on every guest it can generate:
//
//   * the generator is deterministic: same seed -> byte-identical
//     assembly, inputs, and oracles;
//   * the raw binary shows exactly the generated good/bad contract;
//   * lift -> harden -> lower -> faulter+patcher -> ELF round-trip
//     preserves behaviour on both inputs;
//   * order-1 campaign vulnerabilities never increase under hardening;
//   * the Faulter+Patcher loop reaches an order-1 fix-point;
//   * (seed subset) the order-2 fix-point is reached and the hardened
//     binary is byte-identical at 1 vs 8 worker threads;
//   * (same subset) the order-3 ladder reaches its fix-point and the
//     hardened ELF round-trip never reintroduces tuple vulnerabilities.
//
// A failing seed prints a one-line repro (`--seed=K`) and is appended to
// R2R_SYNTH_FAIL_FILE (default synth_failing_seeds.txt) so CI can upload
// it; freeze it into tests/synth_corpus.h to make the repro permanent.
//
// Sweep configuration (PR gate defaults in brackets):
//   R2R_SYNTH_SEED_BASE      first sweep seed                      [1]
//   R2R_SYNTH_SEED_COUNT     sweep width                           [100]
//   R2R_SYNTH_ORDER2_STRIDE  every Nth sweep seed also runs the
//                            order-2 check (0 disables)            [25]
//   R2R_SYNTH_TIME_BUDGET_S  stop starting *sweep* cases after this
//                            many seconds (corpus always runs)     [off]
//   R2R_SYNTH_TARGET         instruction-set target to generate
//                            and harden for ("x64", "rv32i")       [x64]
//   --seed=K[,L,...]         run exactly these seeds, with the
//                            order-2 check, instead of the sweep
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "isa/target.h"
#include "patch/pipeline.h"
#include "synth_corpus.h"

namespace r2r {
namespace {

using guests::Guest;

struct SeedCase {
  std::uint64_t seed = 0;
  bool corpus = false;  ///< corpus cases ignore the time budget
  bool order2 = false;
  const char* why = "";
};

void PrintTo(const SeedCase& c, std::ostream* os) { *os << "seed " << c.seed; }

// ---- plan, filled by main() before InitGoogleTest --------------------------

std::vector<SeedCase>& plan() {
  static std::vector<SeedCase> cases;
  return cases;
}

std::vector<SeedCase> order2_plan() {
  std::vector<SeedCase> subset;
  for (const SeedCase& c : plan()) {
    if (c.order2) subset.push_back(c);
  }
  return subset;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Target the whole harness generates and hardens for (R2R_SYNTH_TARGET;
/// the CI cross-target job sets it to "rv32i"). An unknown name aborts up
/// front rather than silently sweeping the default target.
isa::Arch synth_arch() {
  static const isa::Arch arch = [] {
    const char* name = std::getenv("R2R_SYNTH_TARGET");
    if (name == nullptr || *name == '\0') return isa::Arch::kX64;
    const isa::Target* target = isa::find_target(name);
    if (target == nullptr) {
      std::fprintf(stderr, "R2R_SYNTH_TARGET: unknown target '%s'\n", name);
      std::exit(2);
    }
    return target->arch();
  }();
  return arch;
}

std::chrono::steady_clock::time_point& start_time() {
  static auto t0 = std::chrono::steady_clock::now();
  return t0;
}

/// True when a time budget is configured and exhausted. Corpus cases never
/// consult this — only the randomized sweep is trimmed.
bool sweep_budget_exhausted() {
  static const std::uint64_t budget_s = env_u64("R2R_SYNTH_TIME_BUDGET_S", 0);
  if (budget_s == 0) return false;
  const auto elapsed = std::chrono::steady_clock::now() - start_time();
  return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count() >=
         static_cast<std::int64_t>(budget_s);
}

void build_plan(const std::vector<std::uint64_t>& explicit_seeds) {
  std::set<std::uint64_t> taken;
  for (const synth_corpus::CorpusSeed& c : synth_corpus::kCorpus) {
    plan().push_back({c.seed, /*corpus=*/true, c.order2, c.why});
    taken.insert(c.seed);
  }
  if (!explicit_seeds.empty()) {
    // --seed=K repro mode: run exactly these (plus the corpus), with the
    // order-2 check so a repro exercises everything.
    for (const std::uint64_t seed : explicit_seeds) {
      if (taken.insert(seed).second) {
        plan().push_back({seed, /*corpus=*/true, /*order2=*/true, "--seed"});
      }
    }
    return;
  }
  const std::uint64_t base = env_u64("R2R_SYNTH_SEED_BASE", 1);
  const std::uint64_t count = env_u64("R2R_SYNTH_SEED_COUNT", 100);
  const std::uint64_t stride = env_u64("R2R_SYNTH_ORDER2_STRIDE", 25);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = base + i;
    if (!taken.insert(seed).second) continue;  // corpus already runs it
    const bool order2 = stride != 0 && i % stride == 0;
    plan().push_back({seed, /*corpus=*/false, order2, ""});
  }
}

// ---- failing-seed reporting -------------------------------------------------

void record_failing_seed(std::uint64_t seed) {
  static std::set<std::uint64_t> reported;
  if (!reported.insert(seed).second) return;
  std::fprintf(stderr,
               "\n[synth] FAILING SEED %llu — repro: ./test_synth_pipeline "
               "--seed=%llu ; freeze it in tests/synth_corpus.h\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed));
  const char* path = std::getenv("R2R_SYNTH_FAIL_FILE");
  std::ofstream file(path != nullptr && *path != '\0' ? path
                                                      : "synth_failing_seeds.txt",
                     std::ios::app);
  file << seed << "\n";
}

class SynthSeedTest : public testing::TestWithParam<SeedCase> {
 protected:
  void TearDown() override {
    if (HasFailure()) record_failing_seed(GetParam().seed);
  }
};

fault::CampaignConfig skip_campaign() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;  // the paper's skip model
  config.threads = 0;              // hardware concurrency; thread-invariant
  return config;
}

void expect_contract(const elf::Image& image, const Guest& guest,
                     const char* where) {
  const emu::RunResult good = emu::run_image(image, guest.good_input);
  EXPECT_EQ(good.reason, emu::StopReason::kExited) << where;
  EXPECT_EQ(good.exit_code, guest.good_exit) << where;
  EXPECT_EQ(good.output, guest.good_output) << where;
  const emu::RunResult bad = emu::run_image(image, guest.bad_input);
  EXPECT_EQ(bad.reason, emu::StopReason::kExited) << where;
  EXPECT_EQ(bad.exit_code, guest.bad_exit) << where;
  EXPECT_EQ(bad.output, guest.bad_output) << where;
}

// ---- the property harness ---------------------------------------------------

using SynthPipeline = SynthSeedTest;

TEST_P(SynthPipeline, GeneratorIsDeterministic) {
  const std::uint64_t seed = GetParam().seed;
  const Guest once = guests::synth::generate(seed, synth_arch());
  const Guest twice = guests::synth::generate(seed, synth_arch());
  EXPECT_EQ(once.assembly, twice.assembly) << "assembly differs across calls";
  EXPECT_EQ(once.good_input, twice.good_input);
  EXPECT_EQ(once.bad_input, twice.bad_input);
  EXPECT_EQ(once.good_output, twice.good_output);
  EXPECT_EQ(once.bad_output, twice.bad_output);
  EXPECT_EQ(once.good_exit, twice.good_exit);
  EXPECT_EQ(once.bad_exit, twice.bad_exit);
  EXPECT_EQ(once.name, "synth_" + std::to_string(seed));
  // Inputs must actually be a differential pair.
  EXPECT_NE(once.good_input, once.bad_input);
  EXPECT_NE(once.good_output, once.bad_output);
}

TEST_P(SynthPipeline, FullChainPreservesBehaviourAndNeverAddsVulnerabilities) {
  const SeedCase& param = GetParam();
  if (!param.corpus && sweep_budget_exhausted()) {
    GTEST_SKIP() << "R2R_SYNTH_TIME_BUDGET_S exhausted";
  }
  SCOPED_TRACE("seed " + std::to_string(param.seed) +
               (param.why[0] != '\0' ? std::string(" (") + param.why + ")"
                                     : std::string()));

  const Guest guest = guests::synth::generate(param.seed, synth_arch());
  const elf::Image input = guests::build_image(guest);

  // The raw binary shows exactly the generated contract.
  expect_contract(input, guest, "raw image");

  const sim::CampaignResult original =
      fault::run_campaign(input, guest.good_input, guest.bad_input, skip_campaign()).order1;

  // lift -> harden -> lower.
  const harden::HybridResult hybrid = harden::hybrid_harden(input);
  expect_contract(hybrid.hardened, guest, "hybrid-hardened image");

  // -> faulter+patcher to the order-1 fix-point.
  patch::PipelineConfig pipeline_config;
  pipeline_config.campaign = skip_campaign();
  const patch::PipelineResult patched = patch::faulter_patcher(
      hybrid.hardened, guest.good_input, guest.bad_input, pipeline_config);
  EXPECT_TRUE(patched.fixpoint) << "order-1 fix-point not reached";
  expect_contract(patched.hardened, guest, "patched image");

  // -> a real ELF file and back; the round-trip must be byte-stable and
  // behaviour-preserving.
  const std::vector<std::uint8_t> bytes = elf::write_elf(patched.hardened);
  const elf::Image reloaded = elf::read_elf(bytes);
  EXPECT_EQ(elf::write_elf(reloaded), bytes) << "ELF round-trip not byte-stable";
  expect_contract(reloaded, guest, "reloaded image");

  // Hardening must never add order-1 vulnerabilities — measured on the
  // re-read bytes so the writer/reader are part of the surface.
  const sim::CampaignResult after = fault::run_campaign(
      reloaded, guest.good_input, guest.bad_input, skip_campaign()).order1;
  EXPECT_LE(after.vulnerabilities.size(), original.vulnerabilities.size())
      << "hardening added vulnerabilities";
  EXPECT_LE(after.vulnerable_addresses().size(),
            original.vulnerable_addresses().size());
}

TEST_P(SynthPipeline, CachedDispatchIsStepIdenticalToUncached) {
  // Differential oracle for the decoded-block cache: on every seed the
  // cached dispatch loop must produce the exact TraceEntry sequence,
  // outcome, and step count of per-step fetch+decode — faultless on both
  // inputs, and under every fault kind at a mid-trace step.
  const SeedCase& param = GetParam();
  if (!param.corpus && sweep_budget_exhausted()) {
    GTEST_SKIP() << "R2R_SYNTH_TIME_BUDGET_S exhausted";
  }
  SCOPED_TRACE("seed " + std::to_string(param.seed));

  const Guest guest = guests::synth::generate(param.seed, synth_arch());
  const elf::Image image = guests::build_image(guest);

  const auto run_both = [&](const std::string& input,
                            std::optional<emu::FaultSpec> fault) {
    emu::RunConfig config;
    config.record_trace = true;
    config.fault = fault;
    emu::Machine cached(image, input);
    emu::Machine uncached(image, input);
    uncached.set_block_cache_enabled(false);
    const emu::RunResult a = cached.run(config);
    const emu::RunResult b = uncached.run(config);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.exit_code, b.exit_code);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.crash_detail, b.crash_detail);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size() && i < b.trace.size(); ++i) {
      if (a.trace[i].address != b.trace[i].address ||
          a.trace[i].length != b.trace[i].length) {
        ADD_FAILURE() << "trace diverges at step " << i;
        break;
      }
    }
    return a;
  };

  run_both(guest.good_input, std::nullopt);
  const emu::RunResult golden = run_both(guest.bad_input, std::nullopt);
  const std::uint64_t mid = golden.trace.size() / 2;
  using Kind = emu::FaultSpec::Kind;
  run_both(guest.bad_input, emu::FaultSpec{Kind::kSkip, mid, 0});
  run_both(guest.bad_input, emu::FaultSpec{Kind::kBitFlip, mid, 3});
  run_both(guest.bad_input, emu::FaultSpec{Kind::kRegisterBitFlip, mid, 0 * 64 + 5});
  run_both(guest.bad_input, emu::FaultSpec{Kind::kFlagFlip, mid, 3});
}

using SynthOrder2 = SynthSeedTest;

TEST_P(SynthOrder2, Order2FixpointAndThreadInvariantBinary) {
  const SeedCase& param = GetParam();
  if (!param.corpus && sweep_budget_exhausted()) {
    GTEST_SKIP() << "R2R_SYNTH_TIME_BUDGET_S exhausted";
  }
  SCOPED_TRACE("seed " + std::to_string(param.seed));

  const Guest guest = guests::synth::generate(param.seed, synth_arch());
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig serial;
  serial.campaign = skip_campaign();
  serial.campaign.models.order = 2;
  serial.campaign.models.pair_window = 8;
  serial.campaign.threads = 1;
  patch::PipelineConfig parallel = serial;
  parallel.campaign.threads = 8;

  const patch::PipelineResult one =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, serial);
  EXPECT_TRUE(one.fixpoint) << "order-1 fix-point not reached";
  EXPECT_TRUE(one.orderk_fixpoint()) << "order-2 fix-point not reached";
  EXPECT_EQ(one.final_campaign.order1.vulnerabilities.size(), 0u);
  EXPECT_EQ(one.final_campaign.vulnerabilities.size(), 0u);
  expect_contract(one.hardened, guest, "order-2 hardened image");

  const patch::PipelineResult eight =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, parallel);
  EXPECT_EQ(elf::write_elf(one.hardened), elf::write_elf(eight.hardened))
      << "hardened binary differs between 1 and 8 worker threads";
  EXPECT_EQ(one.final_campaign.outcome_counts, eight.final_campaign.outcome_counts);
  EXPECT_EQ(one.final_campaign.order1.outcome_counts,
            eight.final_campaign.order1.outcome_counts);
}

TEST(SynthAluDup, PairsThroughBothAndOrCopiesCloseAtOrder2) {
  // Every residual pair of these seeds once skipped both copies of a
  // kAluDup `or`; reinforcing the pair's copy closes them.
  const std::vector<std::pair<std::uint64_t, isa::Arch>> seeds = {
      {176, isa::Arch::kX64},   {201, isa::Arch::kX64},   {101, isa::Arch::kRv32i},
      {201, isa::Arch::kRv32i}, {226, isa::Arch::kRv32i}};
  for (const auto& [seed, arch] : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " on " + std::string(isa::to_string(arch)));
    const Guest guest = guests::synth::generate(seed, arch);
    patch::PipelineConfig config;
    config.campaign = skip_campaign();
    config.campaign.models.order = 2;
    config.campaign.models.pair_window = 8;
    const patch::PipelineResult result = patch::faulter_patcher(
        guests::build_image(guest), guest.good_input, guest.bad_input, config);
    EXPECT_TRUE(result.orderk_fixpoint()) << "order-2 fix-point not reached";
    EXPECT_EQ(result.final_campaign.vulnerabilities.size(), 0u);
    expect_contract(result.hardened, guest, "order-2 hardened image");
  }
}

using SynthOrder3 = SynthSeedTest;

TEST_P(SynthOrder3, Order3FixpointNeverAddsTupleVulnsThroughElfRoundTrip) {
  const SeedCase& param = GetParam();
  if (!param.corpus && sweep_budget_exhausted()) {
    GTEST_SKIP() << "R2R_SYNTH_TIME_BUDGET_S exhausted";
  }
  SCOPED_TRACE("seed " + std::to_string(param.seed));

  const Guest guest = guests::synth::generate(param.seed, synth_arch());
  const elf::Image input = guests::build_image(guest);

  fault::CampaignConfig campaign = skip_campaign();
  campaign.models.order = 3;
  campaign.models.pair_window = 8;

  const fault::TupleCampaignResult original =
      fault::run_campaign(input, guest.good_input, guest.bad_input, campaign);

  patch::PipelineConfig config;
  config.campaign = campaign;
  config.max_iterations = 32;  // the order ladder climbs one rung per clean sweep
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
  // Some guests carry triples none of the local patterns can break (the
  // residual-risk fix-point); `orderk_fixpoint()` asserts cleanliness only
  // when the pipeline claims it.
  EXPECT_TRUE(result.fixpoint) << "no fix-point reached (iteration cap hit)";
  if (result.orderk_fixpoint()) {
    EXPECT_EQ(result.final_campaign.order1.vulnerabilities.size(), 0u);
    EXPECT_EQ(result.final_campaign.vulnerabilities.size(), 0u);
  }
  expect_contract(result.hardened, guest, "order-3 hardened image");

  // Through a real ELF file and back: byte-stable, behaviour-preserving,
  // and the order-3 campaign on the re-read bytes must reproduce the
  // pipeline's final campaign exactly — hardening plus the round-trip must
  // never add a single or tuple vulnerability.
  const std::vector<std::uint8_t> bytes = elf::write_elf(result.hardened);
  const elf::Image reloaded = elf::read_elf(bytes);
  EXPECT_EQ(elf::write_elf(reloaded), bytes) << "ELF round-trip not byte-stable";
  expect_contract(reloaded, guest, "reloaded order-3 image");

  const fault::TupleCampaignResult after =
      fault::run_campaign(reloaded, guest.good_input, guest.bad_input, campaign);
  EXPECT_EQ(after.order1.vulnerabilities, result.final_campaign.order1.vulnerabilities)
      << "order-1 result changed through the ELF round-trip";
  EXPECT_EQ(after.vulnerabilities, result.final_campaign.vulnerabilities)
      << "tuple result changed through the ELF round-trip";
  EXPECT_LE(after.order1.vulnerabilities.size(), original.order1.vulnerabilities.size())
      << "hardening added order-1 vulnerabilities";
  EXPECT_LE(after.vulnerabilities.size(), original.vulnerabilities.size())
      << "hardening added tuple vulnerabilities";
}

std::string case_name(const testing::TestParamInfo<SeedCase>& info) {
  return "seed_" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthPipeline, testing::ValuesIn(plan()), case_name);
INSTANTIATE_TEST_SUITE_P(Seeds, SynthOrder2, testing::ValuesIn(order2_plan()),
                         case_name);
// The order-3 subset rides the same higher-order seed plan: the frozen
// corpus seeds flagged for order 2 plus every R2R_SYNTH_ORDER2_STRIDE-th
// sweep seed.
INSTANTIATE_TEST_SUITE_P(Seeds, SynthOrder3, testing::ValuesIn(order2_plan()),
                         case_name);

}  // namespace
}  // namespace r2r

int main(int argc, char** argv) {
  r2r::start_time();  // anchor the sweep time budget at process start

  // Strip --seed=K[,L,...] (repeatable) before handing argv to gtest.
  std::vector<std::uint64_t> explicit_seeds;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      const std::string list = arg.substr(7);
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const std::string token = list.substr(start, comma - start);
        if (!token.empty()) {
          explicit_seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
        }
        start = comma + 1;
      }
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;

  r2r::build_plan(explicit_seeds);
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
