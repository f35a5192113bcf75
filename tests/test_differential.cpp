// Differential test of the whole pipeline, for every guest:
//
//   binary --lift--> IR --harden--> --lower--> hardened binary
//          --faulter+patcher--> patched binary --write_elf/read_elf-->
//
// Two invariants must survive the full chain: (1) the good/bad-input
// behaviour of the final binary is observably identical to the original
// guest contract, and (2) hardening never *adds* order-1 vulnerabilities —
// the successful-fault count after the chain is bounded by the original's.
#include <gtest/gtest.h>

#include <vector>

#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "harden/hybrid.h"
#include "patch/pipeline.h"

namespace r2r {
namespace {

using guests::Guest;

fault::CampaignConfig fast_skip_campaign() {
  fault::CampaignConfig config;
  config.models.bit_flip = false;  // the paper's skip model
  config.threads = 0;             // hardware concurrency; thread-invariant
  return config;
}

class PipelineDifferential : public testing::TestWithParam<const Guest*> {};

TEST_P(PipelineDifferential, FullChainPreservesBehaviourAndNeverAddsVulnerabilities) {
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);
  const sim::CampaignResult original =
      fault::run_campaign(input, guest.good_input, guest.bad_input,
                          fast_skip_campaign()).order1;

  // lift -> harden -> lower (the Hybrid pipeline, branch hardening).
  const harden::HybridResult hybrid = harden::hybrid_harden(input);

  // -> patch (the Faulter+Patcher loop over the lowered binary).
  patch::PipelineConfig pipeline_config;
  pipeline_config.campaign = fast_skip_campaign();
  const patch::PipelineResult patched = patch::faulter_patcher(
      hybrid.hardened, guest.good_input, guest.bad_input, pipeline_config);
  EXPECT_TRUE(patched.fixpoint) << guest.name;

  // -> a real ELF file and back, so the byte-level writer/reader are part
  // of the differential surface too.
  const std::vector<std::uint8_t> bytes = elf::write_elf(patched.hardened);
  const elf::Image reloaded = elf::read_elf(bytes);

  for (const elf::Image* image : {&hybrid.hardened, &patched.hardened, &reloaded}) {
    const emu::RunResult good = emu::run_image(*image, guest.good_input);
    EXPECT_EQ(good.reason, emu::StopReason::kExited) << guest.name;
    EXPECT_EQ(good.exit_code, guest.good_exit) << guest.name;
    EXPECT_EQ(good.output, guest.good_output) << guest.name;
    const emu::RunResult bad = emu::run_image(*image, guest.bad_input);
    EXPECT_EQ(bad.reason, emu::StopReason::kExited) << guest.name;
    EXPECT_EQ(bad.exit_code, guest.bad_exit) << guest.name;
    EXPECT_EQ(bad.output, guest.bad_output) << guest.name;
  }

  // Hardening must not open new order-1 holes anywhere along the chain.
  const sim::CampaignResult final_campaign =
      fault::run_campaign(reloaded, guest.good_input, guest.bad_input,
                          fast_skip_campaign()).order1;
  EXPECT_LE(final_campaign.vulnerabilities.size(), original.vulnerabilities.size())
      << guest.name << ": the hardened binary has more vulnerabilities";
  EXPECT_LE(final_campaign.vulnerable_addresses().size(),
            original.vulnerable_addresses().size())
      << guest.name;
  // And on these guests the chain actually resolves every skip fault.
  EXPECT_EQ(final_campaign.vulnerabilities.size(), 0u) << guest.name;
}

TEST_P(PipelineDifferential, OrderTwoHardeningNeverAddsPairVulnerabilities) {
  // The order-2 differential invariant: for every guest, running the
  // order-2 Faulter+Patcher ladder must never leave the binary with *more*
  // pair vulnerabilities than it started with — and on these guests it
  // actually reaches zero. The ELF round-trip is part of the surface: the
  // campaign runs against the re-read bytes, not the in-memory image.
  const Guest& guest = *GetParam();
  const elf::Image input = guests::build_image(guest);

  fault::CampaignConfig order2 = fast_skip_campaign();
  order2.models.order = 2;
  order2.models.pair_window = 8;
  const fault::TupleCampaignResult original =
      fault::run_campaign(input, guest.good_input, guest.bad_input, order2);

  patch::PipelineConfig config;
  config.campaign = order2;
  const patch::PipelineResult patched =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
  EXPECT_TRUE(patched.orderk_fixpoint()) << guest.name;

  const std::vector<std::uint8_t> bytes = elf::write_elf(patched.hardened);
  const elf::Image reloaded = elf::read_elf(bytes);
  const fault::TupleCampaignResult after =
      fault::run_campaign(reloaded, guest.good_input, guest.bad_input, order2);

  EXPECT_LE(after.vulnerabilities.size(), original.vulnerabilities.size())
      << guest.name << ": hardening added pair vulnerabilities";
  EXPECT_LE(after.order1.vulnerabilities.size(), original.order1.vulnerabilities.size())
      << guest.name;
  EXPECT_EQ(after.vulnerabilities.size(), 0u) << guest.name;
  EXPECT_EQ(after.order1.vulnerabilities.size(), 0u) << guest.name;
}

INSTANTIATE_TEST_SUITE_P(AllGuests, PipelineDifferential,
                         testing::ValuesIn(guests::all_guests()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

}  // namespace
}  // namespace r2r
