// Local protection patterns (Tables I-III): behaviour preservation and
// fault-killing power at the patched site.
#include <gtest/gtest.h>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "patch/patcher.h"
#include "patch/patterns.h"

namespace r2r {
namespace {

using guests::Guest;
using patch::PatternKind;

elf::Image assemble_fresh(bir::Module& module) { return bir::assemble(module); }

/// Patches every protectable instruction in the module (the "holistic"
/// application of the local patterns), used to check behaviour preservation
/// under maximal insertion.
void protect_everything(bir::Module& module) {
  // Walk by address snapshot: collect indices of original instructions
  // first, then patch from the last to the first so indices stay valid.
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (patch::classify_pattern(module, i) != PatternKind::kNone) indices.push_back(i);
  }
  for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
    patch::protect_instruction(module, *it);
  }
}

class PatternBehaviour : public testing::TestWithParam<const Guest*> {};

TEST_P(PatternBehaviour, FullyPatchedGuestPreservesBothBehaviours) {
  const Guest& guest = *GetParam();
  bir::Module module = guests::build_module(guest);
  protect_everything(module);
  const elf::Image image = assemble_fresh(module);

  const emu::RunResult good = emu::run_image(image, guest.good_input);
  ASSERT_EQ(good.reason, emu::StopReason::kExited) << good.crash_detail;
  EXPECT_EQ(good.output, guest.good_output);
  EXPECT_EQ(good.exit_code, guest.good_exit);

  const emu::RunResult bad = emu::run_image(image, guest.bad_input);
  ASSERT_EQ(bad.reason, emu::StopReason::kExited) << bad.crash_detail;
  EXPECT_EQ(bad.output, guest.bad_output);
  EXPECT_EQ(bad.exit_code, guest.bad_exit);
}

TEST_P(PatternBehaviour, FullyPatchedGuestGrowsCode) {
  const Guest& guest = *GetParam();
  bir::Module module = guests::build_module(guest);
  const elf::Image before = assemble_fresh(module);
  protect_everything(module);
  const elf::Image after = assemble_fresh(module);
  EXPECT_GT(after.code_size(), before.code_size());
}

INSTANTIATE_TEST_SUITE_P(AllGuests, PatternBehaviour,
                         testing::ValuesIn(guests::all_guests()),
                         [](const testing::TestParamInfo<const Guest*>& info) {
                           return info.param->name;
                         });

TEST(Patterns, FaultHandlerIsInjectedOnce) {
  bir::Module module = guests::build_module(guests::toymov());
  const std::string first = patch::ensure_fault_handler(module);
  const std::size_t size_after_first = module.text.size();
  const std::string second = patch::ensure_fault_handler(module);
  EXPECT_EQ(first, second);
  EXPECT_EQ(module.text.size(), size_after_first);
}

TEST(Patterns, JccPatternKillsSkipFaultOnBranch) {
  // Find the jne in toymov, patch it, and verify the skip fault that
  // previously granted access is now impossible at that site.
  const Guest& guest = guests::toymov();

  bir::Module module = guests::build_module(guest);
  elf::Image unprotected = bir::assemble(module);
  fault::CampaignConfig skip_only;
  skip_only.models.bit_flip = false;
  const sim::CampaignResult before =
      fault::run_campaign(unprotected, guest.good_input, guest.bad_input, skip_only).order1;
  ASSERT_FALSE(before.vulnerabilities.empty())
      << "unprotected toymov must be skip-vulnerable";

  const patch::PatchStats stats = patch::apply_patches(module, before.vulnerabilities);
  EXPECT_GT(stats.total_applied(), 0u);

  elf::Image patched = bir::assemble(module);
  const sim::CampaignResult after =
      fault::run_campaign(patched, guest.good_input, guest.bad_input, skip_only).order1;
  EXPECT_LT(after.vulnerabilities.size(), before.vulnerabilities.size());
}

TEST(Patterns, CmpPatternDetectsInconsistentComparison) {
  // The cmp pattern must keep behaviour identical when no fault occurs.
  const Guest& guest = guests::pincheck();
  bir::Module module = guests::build_module(guest);

  // Protect exactly the cmp instructions.
  std::vector<std::size_t> cmps;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kCmp) {
      cmps.push_back(i);
    }
  }
  ASSERT_FALSE(cmps.empty());
  for (auto it = cmps.rbegin(); it != cmps.rend(); ++it) {
    EXPECT_EQ(patch::protect_instruction(module, *it), PatternKind::kCmp);
  }
  const elf::Image image = bir::assemble(module);
  const emu::RunResult good = emu::run_image(image, guest.good_input);
  EXPECT_EQ(good.output, guest.good_output);
  const emu::RunResult bad = emu::run_image(image, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
}

TEST(Patterns, SynthesizedCodeIsNeverRepatched) {
  bir::Module module = guests::build_module(guests::toymov());
  // Patch one mov, then ensure all inserted items refuse further patching.
  std::size_t mov_index = 0;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kMov) {
      mov_index = i;
      break;
    }
  }
  ASSERT_NE(patch::protect_instruction(module, mov_index), PatternKind::kNone);
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].synthesized) {
      EXPECT_EQ(patch::classify_pattern(module, i), PatternKind::kNone);
    }
  }
}

// ---- order-2 reinforcement patterns ----------------------------------------

std::size_t find_synth(const bir::Module& module, isa::Mnemonic mnemonic,
                       std::size_t from = 0) {
  for (std::size_t i = from; i < module.text.size(); ++i) {
    if (module.text[i].synthesized && module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == mnemonic) {
      return i;
    }
  }
  return SIZE_MAX;
}

TEST(Reinforce, OriginalInstructionGetsTheOrderOnePattern) {
  // A pair often defeats a check no single fault could (e.g. a loop
  // back-edge); reinforcing an original instruction is ordinary patching.
  bir::Module module = guests::build_module(guests::toymov());
  std::size_t jcc = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kJcc) {
      jcc = i;
      break;
    }
  }
  ASSERT_NE(jcc, SIZE_MAX);
  EXPECT_EQ(patch::reinforce_instruction(module, jcc, 8), PatternKind::kJcc);
}

TEST(Reinforce, SynthesizedRetGainsAThirdDuplicate) {
  bir::Module module = bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    call f\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n"
      "f:\n"
      "    mov rbx, 1\n"
      "    ret\n");
  std::size_t ret = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kRet) {
      ret = i;
      break;
    }
  }
  ASSERT_NE(ret, SIZE_MAX);
  ASSERT_EQ(patch::protect_instruction(module, ret), PatternKind::kRetDup);
  // A pair skips both duplicated rets and falls through; the reinforcement
  // adds a third the pair cannot reach.
  EXPECT_EQ(patch::reinforce_instruction(module, ret, 8), PatternKind::kRetTriple);
  for (std::size_t i = ret; i < ret + 3; ++i) {
    ASSERT_LT(i, module.text.size());
    EXPECT_EQ(module.text[i].instr->mnemonic, isa::Mnemonic::kRet);
    EXPECT_TRUE(module.text[i].synthesized);
  }
  const emu::RunResult run = emu::run_image(bir::assemble(module), "");
  ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
  EXPECT_EQ(run.exit_code, 0);
}

TEST(Reinforce, HandlerCallIsDuplicatedAndPoisonMovIsDuplicated) {
  // The jcc pattern tails end in `re-branch; call handler`: reinforcing the
  // lone handler call doubles it. The call-guard poison mov duplicates the
  // same way (idempotent register write).
  const Guest& guest = guests::pincheck();
  bir::Module module = guests::build_module(guest);

  // check_pin zeroes rax before reading it, so its call is guardable.
  std::size_t call = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kCall &&
        isa::is_label(module.text[i].instr->op(0)) &&
        std::get<isa::LabelOperand>(module.text[i].instr->op(0)).name == "check_pin") {
      call = i;
      break;
    }
  }
  ASSERT_NE(call, SIZE_MAX);
  ASSERT_EQ(patch::protect_instruction(module, call), PatternKind::kCallGuard);
  const std::size_t poison = call;  // the guard inserts the poison at `call`
  EXPECT_EQ(patch::reinforce_instruction(module, poison, 8),
            PatternKind::kGuardMovDup);
  EXPECT_TRUE(module.text[poison + 1].synthesized);
  EXPECT_EQ(module.text[poison + 1].instr->mnemonic, isa::Mnemonic::kMov);

  // Apply a jcc pattern to get a synthesized handler call, then reinforce it.
  std::size_t jcc = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (!module.text[i].synthesized && module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kJcc) {
      jcc = i;
      break;
    }
  }
  ASSERT_NE(jcc, SIZE_MAX);
  ASSERT_EQ(patch::protect_instruction(module, jcc), PatternKind::kJcc);
  const std::size_t handler_call = find_synth(module, isa::Mnemonic::kCall, jcc);
  ASSERT_NE(handler_call, SIZE_MAX);
  EXPECT_EQ(patch::reinforce_instruction(module, handler_call, 8),
            PatternKind::kHandlerCallDup);
  EXPECT_EQ(module.text[handler_call + 1].instr->mnemonic, isa::Mnemonic::kCall);
  EXPECT_TRUE(module.text[handler_call + 1].synthesized);

  // Behaviour is still the guest contract.
  const elf::Image image = bir::assemble(module);
  const emu::RunResult bad = emu::run_image(image, guest.bad_input);
  ASSERT_EQ(bad.reason, emu::StopReason::kExited) << bad.crash_detail;
  EXPECT_EQ(bad.output, guest.bad_output);
}

TEST(Reinforce, CmpFarPlacesTheDuplicateBeyondThePairWindow) {
  const Guest& guest = guests::pincheck();
  bir::Module module = guests::build_module(guest);
  std::size_t cmp = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kCmp) {
      cmp = i;
      break;
    }
  }
  ASSERT_NE(cmp, SIZE_MAX);
  ASSERT_EQ(patch::protect_instruction(module, cmp), PatternKind::kCmp);

  // The authoritative third compare is the pattern's last instruction;
  // reinforce it with window 8: the duplicate must sit behind more than 8
  // flag-neutral nops, so no single fault pair spans both compares.
  std::size_t authoritative = SIZE_MAX;
  for (std::size_t i = cmp; i < module.text.size(); ++i) {
    if (module.text[i].synthesized && module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kCmp) {
      authoritative = i;  // keep the last synthesized cmp of the pattern
    }
  }
  ASSERT_NE(authoritative, SIZE_MAX);
  const std::uint64_t window = 8;
  EXPECT_EQ(patch::reinforce_instruction(module, authoritative, window),
            PatternKind::kCmpFar);
  std::uint64_t nops = 0;
  std::size_t i = authoritative + 1;
  for (; i < module.text.size() &&
         module.text[i].instr->mnemonic == isa::Mnemonic::kNop;
       ++i) {
    EXPECT_TRUE(module.text[i].synthesized);
    ++nops;
  }
  EXPECT_GT(nops, window) << "duplicate compare within the pair window";
  ASSERT_LT(i, module.text.size());
  EXPECT_EQ(module.text[i].instr->mnemonic, isa::Mnemonic::kCmp);
  EXPECT_TRUE(module.text[i].synthesized);

  const elf::Image image = bir::assemble(module);
  const emu::RunResult good = emu::run_image(image, guest.good_input);
  ASSERT_EQ(good.reason, emu::StopReason::kExited) << good.crash_detail;
  EXPECT_EQ(good.output, guest.good_output);
  const emu::RunResult bad = emu::run_image(image, guest.bad_input);
  EXPECT_EQ(bad.output, guest.bad_output);
}

/// The index of the first instruction with `mnemonic`, or SIZE_MAX.
std::size_t find_first(const bir::Module& module, isa::Mnemonic mnemonic) {
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() && module.text[i].instr->mnemonic == mnemonic) return i;
  }
  return SIZE_MAX;
}

TEST(Patterns, AndWhoseDestinationFeedsItsAddressIsNotDuplicated) {
  // `and rax, [rax]` leaves rax = &tbl & 0x600000 = 0x600000, so the guest
  // exits with 6. A second copy would read [0x600000], which is `lo`, and
  // exit with 0: the and is not idempotent, so no kAluDup.
  bir::Module module = bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rax, offset tbl\n"
      "    and rax, qword ptr [rax]\n"
      "    shr rax, 20\n"
      "    mov rdi, rax\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "lo: .quad 0\n"
      "tbl: .quad 0x600000\n");
  const std::size_t and_index = find_first(module, isa::Mnemonic::kAnd);
  ASSERT_NE(and_index, SIZE_MAX);
  ASSERT_EQ(emu::run_image(bir::assemble(module), "").exit_code, 6);
  EXPECT_EQ(patch::classify_pattern(module, and_index), PatternKind::kNone);
  EXPECT_EQ(patch::protect_instruction(module, and_index), PatternKind::kNone);
  // The same guard holds for a synthesized copy under reinforcement.
  module.text[and_index].synthesized = true;
  EXPECT_EQ(patch::reinforce_instruction(module, and_index, 8, 3), PatternKind::kNone);
  const emu::RunResult run = emu::run_image(bir::assemble(module), "");
  ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
  EXPECT_EQ(run.exit_code, 6);
}

TEST(Reinforce, AluDupGainsOrderMinusOneCopies) {
  // Both copies of a kAluDup pair skipped: reinforcement at order k adds
  // k - 1 more, and the guest still computes the same value.
  for (const unsigned order : {2u, 3u}) {
    SCOPED_TRACE("order " + std::to_string(order));
    bir::Module module = bir::module_from_assembly(
        ".global _start\n"
        "_start:\n"
        "    mov rax, 0x3c\n"
        "    mov rbx, 0x1f\n"
        "    or rax, rbx\n"
        "    mov rdi, rax\n"
        "    mov rax, 60\n"
        "    syscall\n");
    const std::size_t or_index = find_first(module, isa::Mnemonic::kOr);
    ASSERT_NE(or_index, SIZE_MAX);
    ASSERT_EQ(patch::protect_instruction(module, or_index), PatternKind::kAluDup);
    EXPECT_EQ(patch::reinforce_instruction(module, or_index, 8, order), PatternKind::kAluDup);
    for (std::size_t i = or_index; i < or_index + 1 + order; ++i) {
      EXPECT_EQ(module.text[i].instr->mnemonic, isa::Mnemonic::kOr);
      EXPECT_TRUE(module.text[i].synthesized);
    }
    EXPECT_EQ(module.text[or_index + 1 + order].instr->mnemonic, isa::Mnemonic::kMov);
    const emu::RunResult run = emu::run_image(bir::assemble(module), "");
    ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
    EXPECT_EQ(run.exit_code, 0x3f);
  }
}

TEST(Reinforce, ShapesWithNoLocalReinforcementReturnNone) {
  // popfq (and the pattern's own plumbing) cannot be locally duplicated —
  // the pair's other site carries the fix.
  const Guest& guest = guests::toymov();
  bir::Module module = guests::build_module(guest);
  std::size_t jcc = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kJcc) {
      jcc = i;
      break;
    }
  }
  ASSERT_NE(jcc, SIZE_MAX);
  ASSERT_EQ(patch::protect_instruction(module, jcc), PatternKind::kJcc);
  const std::size_t popfq = find_synth(module, isa::Mnemonic::kPopfq, jcc);
  ASSERT_NE(popfq, SIZE_MAX);
  EXPECT_EQ(patch::reinforce_instruction(module, popfq, 8), PatternKind::kNone);
}

TEST(Reinforce, PairPatchesMapBothSitesOfEveryPair) {
  // Reinforcing a pair's tuple_patch_sites covers the first fault's site and
  // the site the second fault actually struck, once per distinct address.
  const Guest& guest = guests::pincheck();
  bir::Module module = guests::build_module(guest);
  const elf::Image image = bir::assemble(module);

  // Fabricate one pair implicating an original ret (first) and an original
  // jcc (second hit): both must receive their order-1 patterns.
  std::uint64_t ret_address = 0;
  std::uint64_t jcc_address = 0;
  for (const auto& item : module.text) {
    if (!item.is_instruction()) continue;
    if (ret_address == 0 && item.instr->mnemonic == isa::Mnemonic::kRet) {
      ret_address = item.address;
    }
    if (jcc_address == 0 && item.instr->mnemonic == isa::Mnemonic::kJcc) {
      jcc_address = item.address;
    }
  }
  ASSERT_NE(ret_address, 0u);
  ASSERT_NE(jcc_address, 0u);

  fault::TupleVulnerability pair;
  pair.faults.resize(2);
  pair.addresses = {ret_address, 0xdead};  // golden-trace address: deliberately stale
  pair.hit_addresses = {ret_address, jcc_address};
  const patch::PatchStats stats =
      patch::reinforce_sites(module, sim::tuple_patch_sites({pair}), 8, 2);
  EXPECT_EQ(stats.total_applied(), 2u);
  EXPECT_EQ(stats.applied.at(PatternKind::kRetDup), 1u);
  EXPECT_EQ(stats.applied.at(PatternKind::kJcc), 1u);
  // The stale golden-trace address is not a patch site — only the first
  // fault's address and the actual hit address are attributed.
  EXPECT_TRUE(stats.unpatchable.empty());
}

TEST(Patterns, FlagsLivenessDetectsConsumingJcc) {
  // mov between cmp and jcc: flags are live, pattern must preserve them.
  bir::Module module = bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rbx, 7\n"
      "    cmp rbx, 7\n"
      "    mov rcx, 1\n"   // <- patched mov with live flags
      "    jne bad\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n"
      "bad:\n"
      "    mov rax, 60\n"
      "    mov rdi, 1\n"
      "    syscall\n");
  const auto index = [&module]() -> std::size_t {
    for (std::size_t i = 0; i < module.text.size(); ++i) {
      if (module.text[i].is_instruction() &&
          module.text[i].instr->mnemonic == isa::Mnemonic::kMov &&
          isa::is_imm(module.text[i].instr->op(1)) &&
          std::get<isa::ImmOperand>(module.text[i].instr->op(1)).value == 1) {
        return i;
      }
    }
    return SIZE_MAX;
  }();
  ASSERT_NE(index, SIZE_MAX);
  EXPECT_TRUE(patch::flags_live_after(module, index));
  ASSERT_EQ(patch::protect_instruction(module, index), PatternKind::kMov);

  // Behaviour must be unchanged: exit 0 (the jne must not fire).
  const elf::Image image = bir::assemble(module);
  const emu::RunResult run = emu::run_image(image, "");
  ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
  EXPECT_EQ(run.exit_code, 0);
}

}  // namespace
}  // namespace r2r
