// The Faulter+Patcher fix-point loop (Fig. 2) on both case studies: the
// paper's Section V-C claims, instruction-skip model.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "isa/target.h"
#include "patch/pipeline.h"

namespace r2r {
namespace {

using guests::Guest;

fault::CampaignConfig skip_only() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  return config;
}

class SkipPipeline : public testing::TestWithParam<const Guest*> {};

TEST_P(SkipPipeline, ReachesFixpointWithZeroSkipVulnerabilities) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_TRUE(result.fixpoint);
  // Section V-C: "In the case of the instruction skip fault model, we were
  // able to resolve all the vulnerabilities".
  EXPECT_EQ(result.final_campaign.order1.vulnerabilities.size(), 0u)
      << guest.name << " retains skip vulnerabilities after patching";
}

TEST_P(SkipPipeline, HardenedBinaryPreservesBehaviour) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  const emu::RunResult good = emu::run_image(result.hardened, guest.good_input);
  EXPECT_EQ(good.output, guest.good_output);
  EXPECT_EQ(good.exit_code, guest.good_exit);
  const emu::RunResult bad = emu::run_image(result.hardened, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
  EXPECT_EQ(bad.exit_code, guest.bad_exit);
}

TEST_P(SkipPipeline, OverheadIsTargetedNotHolistic) {
  // Table V shape: the Faulter+Patcher overhead stays well below the
  // Hybrid/holistic range because only vulnerable points are patched.
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_GT(result.hardened_code_size, result.original_code_size);
  EXPECT_LT(result.overhead_percent(), 100.0) << "targeted patching exploded";
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, SkipPipeline,
                         testing::Values(&guests::pincheck(), &guests::bootloader(),
                                         &guests::toymov()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

TEST(PipelineIterations, FirstIterationFindsVulnerabilitiesInPincheck) {
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_GT(result.iterations.front().successful_faults, 0u);
  EXPECT_GT(result.iterations.front().patches_applied, 0u);
  // The loop must actually iterate to a clean final campaign.
  EXPECT_EQ(result.iterations.back().successful_faults, 0u);
}

// ---- order-2 (pair-aware) fix point ----------------------------------------

fault::CampaignConfig skip_pairs() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  config.models.order = 2;
  config.models.pair_window = 8;
  config.threads = 0;  // hardware concurrency; results are thread-invariant
  return config;
}

class Order2Pipeline : public testing::TestWithParam<const Guest*> {};

TEST_P(Order2Pipeline, ReachesOrderTwoFixpointWithZeroResidualPairs) {
  // The order-2 gap: the Fig. 2 loop declares fixpoint on binaries a fault
  // *pair* still breaks. With campaign order 2 the loop continues past the
  // order-1 fixpoint, reinforcing every implicated site until the pair
  // sweep comes back clean — on all three guests, within the shared cap.
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig config;
  config.campaign = skip_pairs();
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  EXPECT_TRUE(result.fixpoint) << guest.name;
  EXPECT_TRUE(result.orderk_fixpoint()) << guest.name;
  EXPECT_EQ(result.final_campaign.order, 2u) << guest.name;
  EXPECT_EQ(result.final_campaign.order1.vulnerabilities.size(), 0u) << guest.name;
  EXPECT_EQ(result.final_campaign.vulnerabilities.size(), 0u)
      << guest.name << " retains double-fault vulnerabilities after reinforcement";
  EXPECT_GT(result.final_campaign.total_tuples, 0u) << guest.name;

  // The trajectory: order-1 iterations first, then order-2 ones; the first
  // order-2 pass must have found the residual pairs PR 2 demonstrated, and
  // the last one must be clean.
  ASSERT_GE(result.iterations.size(), 2u);
  EXPECT_EQ(result.iterations.front().order, 1u);
  std::uint64_t first_order2_pairs = 0;
  bool seen_order2 = false;
  for (const auto& iteration : result.iterations) {
    if (!seen_order2 && iteration.order == 2) {
      seen_order2 = true;
      first_order2_pairs = iteration.successful_tuples;
    }
  }
  ASSERT_TRUE(seen_order2);
  EXPECT_GT(first_order2_pairs, 0u)
      << guest.name << ": order-1 hardening left no pairs; the scenario degenerated";
  EXPECT_EQ(result.iterations.back().order, 2u);
  EXPECT_EQ(result.iterations.back().successful_tuples, 0u);

  // Overhead bookkeeping: original <= order-1 fixpoint <= order-2 fixpoint.
  EXPECT_GT(result.order1_code_size(), result.original_code_size);
  EXPECT_GT(result.hardened_code_size, result.order1_code_size());
  EXPECT_GT(result.order2_overhead_delta_percent(), 0.0);

  // Behaviour preserved through the deeper redundancy patterns.
  const emu::RunResult good = emu::run_image(result.hardened, guest.good_input);
  EXPECT_EQ(good.output, guest.good_output);
  EXPECT_EQ(good.exit_code, guest.good_exit);
  const emu::RunResult bad = emu::run_image(result.hardened, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
  EXPECT_EQ(bad.exit_code, guest.bad_exit);
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, Order2Pipeline,
                         testing::ValuesIn(guests::all_guests()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

TEST(Order2PipelineDeterminism, ThreadCountDoesNotChangeTheHardenedBinary) {
  // The acceptance bar's second half: the order-2 loop is driven by engine
  // sweeps that are bit-identical across thread counts, so the *hardened
  // artifact* — not just the campaign counters — must be byte-identical too.
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);

  patch::PipelineConfig serial;
  serial.campaign = skip_pairs();
  serial.campaign.threads = 1;
  patch::PipelineConfig parallel = serial;
  parallel.campaign.threads = 8;

  const patch::PipelineResult one =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, serial);
  const patch::PipelineResult eight =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, parallel);

  EXPECT_EQ(elf::write_elf(one.hardened), elf::write_elf(eight.hardened));
  // Order-1 results bit-identical at every thread count, on the final image.
  EXPECT_EQ(one.final_campaign.order1.vulnerabilities,
            eight.final_campaign.order1.vulnerabilities);
  EXPECT_EQ(one.final_campaign.order1.outcome_counts,
            eight.final_campaign.order1.outcome_counts);
  EXPECT_EQ(one.final_campaign.order1.total_faults,
            eight.final_campaign.order1.total_faults);
  EXPECT_EQ(one.final_campaign.vulnerabilities, eight.final_campaign.vulnerabilities);
  EXPECT_EQ(one.final_campaign.outcome_counts, eight.final_campaign.outcome_counts);
  ASSERT_EQ(one.iterations.size(), eight.iterations.size());
  for (std::size_t i = 0; i < one.iterations.size(); ++i) {
    EXPECT_EQ(one.iterations[i].successful_tuples, eight.iterations[i].successful_tuples);
    EXPECT_EQ(one.iterations[i].patches_applied, eight.iterations[i].patches_applied);
  }
}

// ---- the iteration cap -------------------------------------------------------

TEST(PipelineCap, CleanSweepAtTheCapIsAFixpointAtOrderOne) {
  // toymov's one skip vulnerability takes one patch; the cap then re-sweeps
  // the patched module, and a clean sweep there is a fix-point.
  const Guest& guest = guests::toymov();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_only();
  config.max_iterations = 1;
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  ASSERT_EQ(result.iterations.size(), 1u);
  EXPECT_GT(result.iterations.front().patches_applied, 0u);
  EXPECT_TRUE(result.fixpoint);
  EXPECT_TRUE(result.verdict());
  EXPECT_EQ(result.final_campaign.order, 1u);
  EXPECT_EQ(result.final_campaign.order1.vulnerabilities.size(), 0u);
}

TEST(PipelineCap, CapOnRungOneStillReportsTheRequestedOrder) {
  // The cap hits while the ladder is still on rung 1: the final campaign
  // sweeps the requested order, so an order-2 caller gets order-2 data.
  const Guest& guest = guests::toymov();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign = skip_pairs();
  config.max_iterations = 1;
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  ASSERT_EQ(result.iterations.size(), 1u);
  EXPECT_EQ(result.iterations.front().order, 1u);
  EXPECT_EQ(result.final_campaign.order, 2u);
  ASSERT_EQ(result.final_campaign.levels.size(), 1u);
  EXPECT_EQ(result.final_campaign.levels.front().order, 2u);
  EXPECT_GT(result.final_campaign.total_tuples, 0u);
  // The order-1 fix-point still falls to fault pairs, and the verdict is
  // judged at the requested order.
  EXPECT_GT(result.final_campaign.vulnerabilities.size(), 0u);
  EXPECT_FALSE(result.fixpoint);
  EXPECT_FALSE(result.verdict());
}

TEST(PipelineResidualRisk, StopOnALowerRungStillReportsTheRequestedOrder) {
  // x64 synth:101 and rv32i synth:18 keep fault pairs no pattern can
  // reinforce, so their order-3 ladders stop on rung 2 with nothing left
  // to patch. The final campaign is still the order-3 sweep of the
  // hardened image, on both targets.
  for (const auto& [seed, arch] : {std::pair{std::uint64_t{101}, isa::Arch::kX64},
                                   std::pair{std::uint64_t{18}, isa::Arch::kRv32i}}) {
    SCOPED_TRACE(std::string(isa::target(arch).name()));
    const Guest guest = guests::synth::generate(seed, arch);
    const elf::Image input = guests::build_image(guest);
    patch::PipelineConfig config;
    config.campaign = skip_only();
    config.campaign.models.order = 3;
    config.campaign.models.pair_window = 8;
    config.max_iterations = 32;
    const patch::PipelineResult result =
        patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

    ASSERT_FALSE(result.iterations.empty());
    EXPECT_EQ(result.iterations.back().order, 2u);
    EXPECT_TRUE(result.fixpoint);
    EXPECT_FALSE(result.verdict());
    EXPECT_EQ(result.final_campaign.order, 3u);
    const fault::TupleCampaignResult sweep = fault::run_campaign(
        result.hardened, guest.good_input, guest.bad_input, config.campaign);
    EXPECT_EQ(result.final_campaign.to_json(), sweep.to_json());
  }
}

TEST(PipelineBitFlip, BitFlipVulnerabilitiesAreReducedInPincheck) {
  // Section V-C: "In the case of the single bit flip fault model we were
  // able to reduce the number of vulnerable points by 50%".
  const Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);

  fault::CampaignConfig flips;
  flips.models.skip = false;
  const sim::CampaignResult before =
      fault::run_campaign(input, guest.good_input, guest.bad_input, flips).order1;
  ASSERT_GT(before.vulnerable_addresses().size(), 0u);

  patch::PipelineConfig config;
  config.campaign = flips;
  config.max_iterations = 6;
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  const std::size_t after = result.final_campaign.order1.vulnerable_addresses().size();
  EXPECT_LE(after, before.vulnerable_addresses().size() / 2)
      << "bit-flip vulnerable points not reduced by at least 50%";
}

}  // namespace
}  // namespace r2r
