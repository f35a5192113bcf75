// Hybrid approach (Section IV-C): differential testing of
// machine(binary) ≡ interpret(lift(binary)) ≡ machine(lower(lift(binary))),
// plus end-to-end branch hardening.
#include <gtest/gtest.h>

#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "harden/hybrid.h"
#include "ir/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lift/lifter.h"
#include "lower/lower.h"
#include "passes/pass.h"

namespace r2r {
namespace {

using guests::Guest;

emu::Memory data_memory_for(const elf::Image& image) {
  emu::Memory memory;
  for (const auto& segment : image.segments) {
    if ((segment.flags & elf::kExecute) != 0) continue;
    memory.map(segment.name, segment.vaddr, segment.size_in_memory(), segment.flags,
               segment.data);
  }
  return memory;
}

class LiftDifferential : public testing::TestWithParam<const Guest*> {};

TEST_P(LiftDifferential, InterpretedLiftMatchesMachineOnBothInputs) {
  const Guest& guest = *GetParam();
  const elf::Image image = guests::build_image(guest);
  lift::LiftResult lifted = lift::lift(image);
  ir::verify(lifted.module);

  for (const std::string& input : {guest.good_input, guest.bad_input}) {
    const emu::RunResult machine_run = emu::run_image(image, input);
    emu::Memory memory = data_memory_for(image);
    const ir::InterpResult ir_run = ir::interpret(lifted.module, memory, input);
    ASSERT_EQ(ir_run.stop, ir::InterpStop::kExited) << ir_run.crash_detail;
    EXPECT_EQ(ir_run.exit_code, machine_run.exit_code);
    EXPECT_EQ(ir_run.output, machine_run.output);
  }
}

TEST_P(LiftDifferential, CleanupPassesPreserveInterpretedBehaviour) {
  const Guest& guest = *GetParam();
  const elf::Image image = guests::build_image(guest);
  lift::LiftResult lifted = lift::lift(image);

  passes::PassManager cleanup;
  cleanup.add(passes::make_state_promotion());
  cleanup.add(passes::make_constant_fold());
  cleanup.add(passes::make_dce());
  cleanup.run_to_fixpoint(lifted.module);
  ir::verify(lifted.module);

  for (const std::string& input : {guest.good_input, guest.bad_input}) {
    const emu::RunResult machine_run = emu::run_image(image, input);
    emu::Memory memory = data_memory_for(image);
    const ir::InterpResult ir_run = ir::interpret(lifted.module, memory, input);
    ASSERT_EQ(ir_run.stop, ir::InterpStop::kExited) << ir_run.crash_detail;
    EXPECT_EQ(ir_run.exit_code, machine_run.exit_code);
    EXPECT_EQ(ir_run.output, machine_run.output);
  }
}

TEST_P(LiftDifferential, LoweredBinaryMatchesMachineOnBothInputs) {
  const Guest& guest = *GetParam();
  const elf::Image image = guests::build_image(guest);

  harden::HybridConfig config;
  config.countermeasure = harden::HybridCountermeasure::kNone;
  const harden::HybridResult result = harden::hybrid_harden(image, config);

  for (const std::string& input : {guest.good_input, guest.bad_input}) {
    const emu::RunResult original = emu::run_image(image, input);
    const emu::RunResult lowered = emu::run_image(result.hardened, input);
    ASSERT_EQ(lowered.reason, emu::StopReason::kExited) << lowered.crash_detail;
    EXPECT_EQ(lowered.exit_code, original.exit_code);
    EXPECT_EQ(lowered.output, original.output);
  }
}

TEST_P(LiftDifferential, BranchHardenedBinaryPreservesBehaviour) {
  const Guest& guest = *GetParam();
  const elf::Image image = guests::build_image(guest);

  const harden::HybridResult result = harden::hybrid_harden(image);
  for (const std::string& input : {guest.good_input, guest.bad_input}) {
    const emu::RunResult original = emu::run_image(image, input);
    const emu::RunResult hardened = emu::run_image(result.hardened, input);
    ASSERT_EQ(hardened.reason, emu::StopReason::kExited) << hardened.crash_detail;
    EXPECT_EQ(hardened.exit_code, original.exit_code);
    EXPECT_EQ(hardened.output, original.output);
  }
}

TEST_P(LiftDifferential, DuplicationBaselinePreservesBehaviour) {
  const Guest& guest = *GetParam();
  const elf::Image image = guests::build_image(guest);

  harden::HybridConfig config;
  config.countermeasure = harden::HybridCountermeasure::kInstructionDuplication;
  const harden::HybridResult result = harden::hybrid_harden(image, config);
  for (const std::string& input : {guest.good_input, guest.bad_input}) {
    const emu::RunResult original = emu::run_image(image, input);
    const emu::RunResult hardened = emu::run_image(result.hardened, input);
    ASSERT_EQ(hardened.reason, emu::StopReason::kExited) << hardened.crash_detail;
    EXPECT_EQ(hardened.exit_code, original.exit_code);
    EXPECT_EQ(hardened.output, original.output);
  }
}

INSTANTIATE_TEST_SUITE_P(AllGuests, LiftDifferential,
                         testing::ValuesIn(guests::all_guests()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

TEST(HybridHardening, BranchHardeningAddsSwitchValidation) {
  const Guest& guest = guests::pincheck();
  const harden::HybridResult result = harden::hybrid_harden(guests::build_image(guest));
  // Table IV shape: the pass introduces switch validations (4 per branch)
  // and checksum arithmetic (xor/and/or/zext/sub).
  EXPECT_EQ(result.ir_before.count(ir::Opcode::kSwitch), 0u);
  EXPECT_GT(result.ir_after.count(ir::Opcode::kSwitch), 0u);
  EXPECT_EQ(result.ir_after.count(ir::Opcode::kSwitch) % 4, 0u)
      << "each hardened branch contributes exactly 4 switches";
  EXPECT_GT(result.ir_after.count(ir::Opcode::kXor), result.ir_before.count(ir::Opcode::kXor));
}

TEST(HybridHardening, HybridOverheadExceedsFaulterPatcherShape) {
  // Table V shape: hybrid (holistic) overhead is larger than zero and the
  // hardened binary is strictly bigger than the lift+lower baseline.
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  harden::HybridConfig plain;
  plain.countermeasure = harden::HybridCountermeasure::kNone;
  const harden::HybridResult baseline = harden::hybrid_harden(image, plain);
  const harden::HybridResult hardened = harden::hybrid_harden(image);

  EXPECT_GT(baseline.hardened_code_size, 0u);
  EXPECT_GT(hardened.hardened_code_size, baseline.hardened_code_size);
}

class HybridSkipCoverage : public testing::TestWithParam<const Guest*> {};

TEST_P(HybridSkipCoverage, HardenedBinaryHasZeroSkipVulnerabilities) {
  // Section V-C: "In the case of the instruction skip fault model, we were
  // able to resolve all the vulnerabilities" — for the Hybrid approach too.
  const Guest& guest = *GetParam();
  const harden::HybridResult result = harden::hybrid_harden(guests::build_image(guest));

  fault::CampaignConfig skip_only;
  skip_only.models.bit_flip = false;
  const sim::CampaignResult campaign = fault::run_campaign(
      result.hardened, guest.good_input, guest.bad_input, skip_only).order1;
  EXPECT_EQ(campaign.vulnerabilities.size(), 0u)
      << guest.name << " hybrid-hardened binary still has skip vulnerabilities";
  EXPECT_GT(campaign.count(fault::Outcome::kDetected), 0u)
      << "the trap handler should fire for at least some skip faults";
}

INSTANTIATE_TEST_SUITE_P(CaseStudies, HybridSkipCoverage,
                         testing::Values(&guests::pincheck(), &guests::toymov()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

}  // namespace
}  // namespace r2r
