// Fault campaign: reference classification, determinism, model coverage.
#include <gtest/gtest.h>

#include <set>

#include "fault/campaign.h"
#include "guests/guests.h"
#include "support/error.h"

namespace r2r::fault {
namespace {

using guests::Guest;

TEST(References, RejectsIndistinguishableInputs) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  EXPECT_THROW(sim::make_references(image, guest.good_input, guest.good_input),
               support::Error);
}

TEST(References, ClassifiesReferenceRuns) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  EXPECT_EQ(sim::classify(refs, refs.good_reference, 42), Outcome::kSuccess);
  EXPECT_EQ(sim::classify(refs, refs.bad_reference, 42), Outcome::kNoEffect);

  emu::RunResult detected;
  detected.reason = emu::StopReason::kExited;
  detected.exit_code = 42;
  EXPECT_EQ(sim::classify(refs, detected, 42), Outcome::kDetected);

  emu::RunResult crashed;
  crashed.reason = emu::StopReason::kCrashed;
  EXPECT_EQ(sim::classify(refs, crashed, 42), Outcome::kCrash);

  emu::RunResult hung;
  hung.reason = emu::StopReason::kFuelExhausted;
  EXPECT_EQ(sim::classify(refs, hung, 42), Outcome::kHang);

  emu::RunResult garbled;
  garbled.reason = emu::StopReason::kExited;
  garbled.exit_code = 9;
  garbled.output = "???";
  EXPECT_EQ(sim::classify(refs, garbled, 42), Outcome::kOtherBehavior);
}

TEST(References, TraceMatchesBadReferenceSteps) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  EXPECT_EQ(refs.bad_trace.size(), refs.bad_reference.steps);
}

TEST(Campaign, SkipModelFindsKnownToymovVulnerability) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  CampaignConfig config;
  config.models.bit_flip = false;
  const sim::CampaignResult result =
      run_campaign(image, guest.good_input, guest.bad_input, config).order1;
  // One fault per dynamic instruction.
  EXPECT_EQ(result.total_faults, result.trace_length);
  // The jne must be skippable into the granting path.
  EXPECT_FALSE(result.vulnerabilities.empty());
  for (const Vulnerability& v : result.vulnerabilities) {
    EXPECT_EQ(v.spec.kind, emu::FaultSpec::Kind::kSkip);
  }
}

TEST(Campaign, BitFlipModelEnumeratesEveryBit) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  CampaignConfig config;
  config.models.skip = false;
  const sim::CampaignResult result =
      run_campaign(image, guest.good_input, guest.bad_input, config).order1;
  // Total faults = 8 bits per encoded byte of the executed trace.
  std::uint64_t expected = 0;
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  for (const auto& entry : refs.bad_trace) expected += 8ULL * entry.length;
  EXPECT_EQ(result.total_faults, expected);
  EXPECT_FALSE(result.vulnerabilities.empty());
}

TEST(Campaign, IsDeterministic) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::CampaignResult a =
      run_campaign(image, guest.good_input, guest.bad_input).order1;
  const sim::CampaignResult b =
      run_campaign(image, guest.good_input, guest.bad_input).order1;
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.vulnerabilities.size(), b.vulnerabilities.size());
  EXPECT_EQ(a.vulnerable_addresses(), b.vulnerable_addresses());
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
}

TEST(Campaign, OutcomeCountsCoverEveryInjection) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::CampaignResult result =
      run_campaign(image, guest.good_input, guest.bad_input).order1;
  std::uint64_t sum = 0;
  for (const auto& [outcome, count] : result.outcome_counts) sum += count;
  EXPECT_EQ(sum, result.total_faults);
}

TEST(Campaign, VulnerableAddressesAreSortedUnique) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  const sim::CampaignResult result =
      run_campaign(image, guest.good_input, guest.bad_input).order1;
  const auto addresses = result.vulnerable_addresses();
  for (std::size_t i = 1; i < addresses.size(); ++i) {
    EXPECT_LT(addresses[i - 1], addresses[i]);
  }
}

TEST(Campaign, OrderTwoKnobSweepsFaultPairs) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  CampaignConfig config;
  config.models.bit_flip = false;
  config.models.order = 2;
  config.models.pair_window = 4;
  const TupleCampaignResult result =
      run_campaign(image, guest.good_input, guest.bad_input, config);

  // The order-1 section is still the single-fault sweep...
  CampaignConfig single = config;
  single.models.order = 1;
  const TupleCampaignResult order1 =
      run_campaign(image, guest.good_input, guest.bad_input, single);
  EXPECT_EQ(result.order1.vulnerabilities, order1.order1.vulnerabilities);
  EXPECT_EQ(result.order1.outcome_counts, order1.order1.outcome_counts);
  EXPECT_EQ(result.order1.total_faults, order1.order1.total_faults);

  // ...and the pair level covers every pair in the window exactly once.
  EXPECT_EQ(result.order, 2u);
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_GT(result.total_tuples, 0u);
  std::uint64_t pair_sum = 0;
  for (const auto& [outcome, count] : result.outcome_counts) pair_sum += count;
  EXPECT_EQ(pair_sum, result.total_tuples);
  EXPECT_EQ(result.count(Outcome::kSuccess), result.vulnerabilities.size());
  for (const TupleVulnerability& pair : result.vulnerabilities) {
    ASSERT_EQ(pair.faults.size(), 2u);
    EXPECT_LT(pair.faults[0].trace_index, pair.faults[1].trace_index);
    EXPECT_LE(pair.faults[1].trace_index - pair.faults[0].trace_index,
              config.models.pair_window);
  }
  // An order-1 config leaves the tuple levels empty.
  EXPECT_EQ(order1.order, 1u);
  EXPECT_TRUE(order1.levels.empty());
  EXPECT_EQ(order1.total_tuples, 0u);
  EXPECT_TRUE(order1.vulnerabilities.empty());
}

TEST(Campaign, ModelsReachTheEngineVerbatim) {
  // CampaignConfig embeds sim::FaultModels instead of hand-copying knobs, so
  // a campaign with distinctive models must classify identically to driving
  // the engine directly with the very same struct — including the extension
  // models the old field-by-field copy could silently drop.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  CampaignConfig config;
  config.models.skip = true;
  config.models.bit_flip = false;
  config.models.flag_flip = true;
  config.models.register_flip = true;
  config.models.register_flip_regs = {0, 3};
  config.models.register_flip_bit_stride = 16;
  const sim::CampaignResult campaign =
      run_campaign(image, guest.good_input, guest.bad_input, config).order1;

  sim::EngineConfig engine_config;
  engine_config.threads = config.threads;
  const sim::Engine engine(image, guest.good_input, guest.bad_input, engine_config);
  const sim::CampaignResult direct = engine.run(config.models);

  EXPECT_EQ(campaign.total_faults, direct.total_faults);
  EXPECT_EQ(campaign.outcome_counts, direct.outcome_counts);
  EXPECT_EQ(campaign.vulnerabilities, direct.vulnerabilities);
  // The distinctive models actually shaped the sweep: flag flips (6 per
  // step) and strided register flips (2 regs x 4 bits) plus the skip.
  EXPECT_EQ(campaign.total_faults, campaign.trace_length * (1 + 6 + 2 * 4));
}

TEST(OutcomeNames, AllDistinct) {
  std::set<std::string_view> names;
  for (const Outcome outcome :
       {Outcome::kNoEffect, Outcome::kSuccess, Outcome::kCrash, Outcome::kHang,
        Outcome::kDetected, Outcome::kOtherBehavior}) {
    EXPECT_TRUE(names.insert(to_string(outcome)).second);
  }
}

}  // namespace
}  // namespace r2r::fault
