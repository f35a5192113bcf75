// Local protection patterns (Tables I-III): behaviour preservation and
// fault-killing power at the patched site.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "patch/patcher.h"
#include "patch/patterns.h"
#include "patch/pipeline.h"
#include "support/sha256.h"
#include "synth_corpus.h"

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

/// Protects the first `mov r, 1` of `source`, after which the flags are
/// live, and expects the patched guest to exit 0 as the original does.
void expect_mov_keeps_live_flags(const std::string& source) {
  bir::Module module = bir::module_from_assembly(source);
  std::size_t index = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size() && index == SIZE_MAX; ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kMov &&
        isa::is_imm(module.text[i].instr->op(1)) &&
        std::get<isa::ImmOperand>(module.text[i].instr->op(1)).value == 1) {
      index = i;
    }
  }
  ASSERT_NE(index, SIZE_MAX);
  EXPECT_TRUE(patch::flags_live_after(module, index));
  ASSERT_EQ(patch::protect_instruction(module, index), PatternKind::kMov);
  const emu::RunResult run = emu::run_image(bir::assemble(module), "");
  ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
  EXPECT_EQ(run.exit_code, 0);
}

TEST(Patterns, FlagsLivenessDetectsConsumingJcc) {
  // mov between cmp and jcc: flags are live, pattern must preserve them
  // (the jne must not fire).
  expect_mov_keeps_live_flags(
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
}

TEST(Patterns, FlagsLivenessFollowsCarryThroughInc) {
  // inc writes every flag but CF, so the cmp's carry still reaches the jb:
  // the pattern's compare must not clobber it (3 < 7, so jb is taken).
  expect_mov_keeps_live_flags(
      ".global _start\n"
      "_start:\n"
      "    mov rbx, 3\n"
      "    cmp rbx, 7\n"
      "    mov rcx, 1\n"   // <- patched mov with live CF
      "    inc rdx\n"
      "    jb yes\n"
      "    mov rax, 60\n"
      "    mov rdi, 1\n"
      "    syscall\n"
      "yes:\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
}

TEST(Patterns, CallGuardSkipsACalleeThatWritesOnlyPartOfRax) {
  // f merges one byte into rax, so the rest of the caller's rax survives
  // the call: poisoning rax before it would change the good path.
  bir::Module module = bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rax, 321\n"
      "    call f\n"
      "    mov rdi, rax\n"
      "    mov rax, 60\n"
      "    syscall\n"
      "f:\n"
      "    mov rsi, offset buf\n"
      "    mov al, byte ptr [rsi]\n"
      "    ret\n"
      ".section .data\n"
      "buf: .byte 7\n");
  std::size_t call = SIZE_MAX;
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kCall) {
      call = i;
    }
  }
  ASSERT_NE(call, SIZE_MAX);
  EXPECT_EQ(patch::protect_instruction(module, call), PatternKind::kNone);
  const emu::RunResult run = emu::run_image(bir::assemble(module), "");
  ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
  EXPECT_EQ(run.exit_code, 256 + 7);
}

TEST(Patterns, StackFramePushesBelowTheRedZone) {
  // The guest keeps 5 at [rsp-8], below rsp, where the SysV red zone lets
  // a leaf function keep data. A Table I form that pushes a scratch with
  // dead flags must still step over the red zone first, or the push
  // overwrites the 5 with rbx's 9.
  const std::string source =
      ".global _start\n"
      "_start:\n"
      "    mov rbx, 9\n"
      "    mov rax, 5\n"
      "    mov qword ptr [rsp-8], rax\n"
      "    mov rdi, offset cell\n"
      "    mov rdi, qword ptr [rdi]\n"     // self-aliasing load
      "    mov rcx, 0x1122334455667788\n"  // no cmp r64, imm64
      "    mov rdi, qword ptr [rsp-8]\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "cell: .quad 0\n";
  bir::Module unpatched = bir::module_from_assembly(source);
  ASSERT_EQ(emu::run_image(bir::assemble(unpatched), "").exit_code, 5);
  for (const std::size_t line : {7u, 8u}) {  // the two shapes' source lines
    SCOPED_TRACE("line " + std::to_string(line));
    bir::Module module = bir::module_from_assembly(source);
    std::size_t index = SIZE_MAX;
    for (std::size_t i = 0; i < module.text.size(); ++i) {
      if (module.text[i].source_line == line) index = i;
    }
    ASSERT_NE(index, SIZE_MAX);
    ASSERT_FALSE(patch::flags_live_after(module, index));
    ASSERT_EQ(patch::protect_instruction(module, index), PatternKind::kMov);
    const emu::RunResult run = emu::run_image(bir::assemble(module), "");
    ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
    EXPECT_EQ(run.exit_code, 5);
  }
}

// ---- PatternGolden: the patcher's code bytes, pinned ------------------------
//
// Behaviour checks cannot see a change of scratch register, save order or
// compare form inside a pattern; these rows pin the .text bytes the
// patcher writes, as its size and SHA-256. Label names reach only the
// symbol table, so they are free to change. A change that alters pattern
// bytes on purpose updates the rows in its own diff, with the reason.

struct TextGolden {
  std::uint64_t size = 0;
  std::string_view sha256;  ///< of the .text segment's bytes
};

void expect_text(const elf::Image& image, const TextGolden& want) {
  const elf::Segment* text = image.find_segment(".text");
  ASSERT_NE(text, nullptr);
  const std::string digest = support::sha256_hex(std::string_view(
      reinterpret_cast<const char*>(text->data.data()), text->data.size()));
  EXPECT_EQ(text->data.size(), want.size);
  EXPECT_EQ(digest, want.sha256) << "row {" << text->data.size() << ", \"" << digest << "\"}";
}

/// Guests for the Table I shapes no case study or corpus seed reaches:
/// self-aliasing loads, wide immediates and memory sources under live
/// flags. Each exits 7.
Guest crafted_live_flags(isa::Arch arch) {
  Guest guest;
  guest.arch = arch;
  guest.good_exit = guest.bad_exit = 7;
  if (arch == isa::Arch::kX64) {
    guest.name = "live_flags_x64";
    guest.assembly =
        ".global _start\n"
        "_start:\n"
        "    mov rdi, offset cell\n"
        "    cmp rdi, 0\n"
        "    mov rdi, qword ptr [rdi]\n"     // self-aliasing load
        "    mov rcx, 0x1122334455667788\n"  // no cmp r64, imm64
        "    jne done\n"
        "    mov rdi, 1\n"
        "done:\n"
        "    mov rax, 60\n"
        "    syscall\n"
        ".section .data\n"
        "cell: .quad 7\n";
  } else {
    guest.name = "live_flags_rv32i";
    guest.assembly =
        ".global _start\n"
        "_start:\n"
        "    mov a5, offset cell\n"
        "    mov a3, offset cell\n"
        "    cmp a5, 0\n"
        "    mov a5, [a5]\n"    // self-aliasing load
        "    mov a2, [a3+8]\n"  // memory source
        "    mov a1, a2\n"      // register source
        "    jne done\n"
        "    mov a5, 1\n"
        "done:\n"
        "    mov a0, 60\n"
        "    syscall\n"
        ".section .data\n"
        "cell: .quad 7, 3\n";
  }
  return guest;
}

/// A builtin case study, or "live_flags" for crafted_live_flags().
Guest golden_guest(std::string_view name, isa::Arch arch) {
  if (name == "live_flags") return crafted_live_flags(arch);
  const Guest* guest = guests::find_guest(name, arch);
  if (guest == nullptr) throw std::invalid_argument("no guest " + std::string(name));
  return *guest;
}

/// protect_instruction on every original instruction, then the guest's
/// own behaviour check.
void expect_protect_everything(const Guest& guest, const TextGolden& want) {
  bir::Module module = guests::build_module(guest);
  protect_everything(module);
  const elf::Image image = bir::assemble(module);
  expect_text(image, want);
  const emu::RunResult good = emu::run_image(image, guest.good_input);
  ASSERT_EQ(good.reason, emu::StopReason::kExited) << good.crash_detail;
  EXPECT_EQ(good.exit_code, guest.good_exit);
}

struct GuestGolden {
  std::string_view guest;
  isa::Arch arch;
  TextGolden text;
};

struct SeedGolden {
  std::uint64_t seed;
  TextGolden x64;
  TextGolden rv32i;
};

constexpr GuestGolden kProtectGolden[] = {
    {"pincheck", isa::Arch::kX64,
     {2550, "7b115837bdaeb0f6c4698bd036831cb94abee0482103e8d81972f8e5ed371dbe"}},
    {"bootloader", isa::Arch::kX64,
     {2326, "80d4d5bbca858c49e9dd5a531d36c15117b42176db8b849997914b8ceb0c38b1"}},
    {"toymov", isa::Arch::kX64,
     {583, "8ed77d276754ecc71d61a56b72f196c261fae991a7ccaa16987f812dc57974d3"}},
    {"pincheck", isa::Arch::kRv32i,
     {2040, "e014cd9a467f6d1a133fab0f6bf164f0a926fd9d774c60a80744fcfcb7b7176f"}},
    {"toymov", isa::Arch::kRv32i,
     {476, "4841191e046d687a9dc3749fcec25b642e3be83d8f81e8ba4229f41a01b60839"}},
    {"live_flags", isa::Arch::kX64,
     {320, "23f7005d7ebf3262afe9a665a299f99d79ee629495d4c7d04d7ae67bbfa9c202"}},
    {"live_flags", isa::Arch::kRv32i,
     {292, "9f937bb8f7b5544a128b5df55c65207f5e885767c08f8ab7f8b9919fa9de2ade"}},
};

/// One row per synth_corpus::kCorpus seed, in its order.
constexpr SeedGolden kCorpusProtectGolden[] = {
    {10,
     {1948, "597ca7f365573304d917e9fdf0ce3a2ffe91f10d5d486943d77a8bc575783651"},
     {1556, "a092d95e05401ed34a6627eefff2ffb6faa75e82539948f01102d7e5de868d60"}},
    {20,
     {1830, "3a957674d2398aee3d18e02c218467b1a45c6756bfefec0cf4612811eeb79aa7"},
     {1500, "748df8760a334d90d93da328b7ff372db615884c364a5b6a42fde0ca5c3aa857"}},
    {2,
     {3146, "6828c7287e598f71e4a37bf4b16598971f5bbf5d75e90896c3b9ccbadc32652d"},
     {2472, "c27d2e1874e03c510667f4d0fc7384ba6663b47750d13b0a615df683abf3a903"}},
    {8,
     {2689, "484065b84e279131fbe7aa9dd5e84d4c36e9d48a6a77e64eb8bdf0b58320b358"},
     {2160, "57204e727ff1b054c6237583081b06fef357bfc1cf9d982ee6a380404f64dbeb"}},
    {9,
     {3978, "5d0f26e6b988ee15b56eb28fe17227cdfb35eef2456c0e133c1d9c976523479f"},
     {3036, "5fd30dc1934ccd941bd3ed03bd619cb01bde6685619b0fd2bd10f961cfbdf6ff"}},
    {15,
     {2922, "4d6f57ed7df8d61323e54f40a28fe1dbdedc000ea19bb6145ee6fb87e6d9ae4e"},
     {2468, "33c70f46324a6e30211016c7d71460533a63117f958873e88b42229da0d41bc3"}},
    {23,
     {1520, "3eaa33f20c07956289f386a322b077f5ecd378e387d1c5b766b4abd3b5cd5d2a"},
     {1228, "69bb3496fbdf3da0e4b6c2a038f5d6ae9c02362f07118a0cc002c6aaa982cc1f"}},
    {36,
     {2345, "1148a5ce94619e5aec85eb0f35a5487862fc31c21a5f974b1e7a6c4bed9e97f0"},
     {1840, "c36ca83cbe5742e9d36adba84f51739d3a960dc4fb8ea28871278e00911f70d8"}},
    {77,
     {2544, "9f4202c3c3b7ef220ffbd31e42ee2a7a06e3d9e30a79dc9810a7d3c056ed215c"},
     {2032, "d614b25988cf4fe679740e4df8663c58f2c5be38976521faefbd05f122e1b738"}},
};

TEST(PatternGolden, ProtectEveryInstruction) {
  for (const GuestGolden& golden : kProtectGolden) {
    SCOPED_TRACE(std::string(golden.guest) + " on " + std::string(isa::to_string(golden.arch)));
    expect_protect_everything(golden_guest(golden.guest, golden.arch), golden.text);
  }
}

TEST(PatternGolden, ProtectEveryInstructionOfTheFrozenCorpus) {
  ASSERT_EQ(std::size(kCorpusProtectGolden), std::size(synth_corpus::kCorpus));
  for (std::size_t i = 0; i < std::size(kCorpusProtectGolden); ++i) {
    const SeedGolden& golden = kCorpusProtectGolden[i];
    ASSERT_EQ(golden.seed, synth_corpus::kCorpus[i].seed);
    for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
      SCOPED_TRACE("synth:" + std::to_string(golden.seed) + " on " +
                   std::string(isa::to_string(arch)));
      expect_protect_everything(guests::synth::generate(golden.seed, arch),
                                arch == isa::Arch::kX64 ? golden.x64 : golden.rv32i);
    }
  }
}

/// faulter_patcher at `order`, skip only or skip + bit flip.
void expect_fixpoint(const Guest& guest, unsigned order, bool bit_flip, const TextGolden& want) {
  patch::PipelineConfig config;
  config.campaign.models.order = order;
  config.campaign.models.bit_flip = bit_flip;
  const patch::PipelineResult result = patch::faulter_patcher(
      guests::build_image(guest), guest.good_input, guest.bad_input, config);
  expect_text(result.hardened, want);
}

struct FixpointGolden {
  std::string_view guest;
  isa::Arch arch;
  unsigned order;
  bool bit_flip;
  TextGolden text;
};

constexpr FixpointGolden kFixpointGolden[] = {
    {"pincheck", isa::Arch::kX64, 1, false,
     {829, "2d9f992557686a4163970c249c4075e11e37dbb2410c3dad4cdaae1859b15414"}},
    {"pincheck", isa::Arch::kX64, 2, false,
     {954, "ea06207eb7e89955a42526010265dc0b57821eb77b39975615ee6c9cac5d6498"}},
    {"pincheck", isa::Arch::kX64, 3, false,
     {1095, "eaa08933615e5c5bd1ef73e65136d5bbf26757dfecc185856a9031d7525e7275"}},
    {"toymov", isa::Arch::kX64, 1, false,
     {261, "a5a50c066d244c56918dfd52600f0270dd92ffa27abe0e6a9afdc23643a9e00f"}},
    {"toymov", isa::Arch::kX64, 2, false,
     {266, "fe313dc99a03023cbbd9ada09f08985c67fc298e5edb7e7f52de489a7a3b4a59"}},
    {"toymov", isa::Arch::kX64, 3, false,
     {286, "96735983fca69aac9ae9e077494dd7a258110a07d624b96aa2d17d1d37553ade"}},
    {"bootloader", isa::Arch::kX64, 1, false,
     {668, "27acda88efe7ea6238dfb75ca91c76bc4a7eb7fcbff0b42d87bfda8eeb0f2ebc"}},
    {"bootloader", isa::Arch::kX64, 2, false,
     {685, "7dcfaa45d655e7f2b4f3cf26960df1aae69da9f244853e88f1e3b96a8e9b5544"}},
    {"pincheck", isa::Arch::kX64, 1, true,
     {970, "e04a2ee8009ebd72e33a7d008223af8f9fdc6c38592e69a7590d4cafb10ac3c3"}},
    {"bootloader", isa::Arch::kX64, 1, true,
     {668, "27acda88efe7ea6238dfb75ca91c76bc4a7eb7fcbff0b42d87bfda8eeb0f2ebc"}},
    {"toymov", isa::Arch::kX64, 1, true,
     {261, "a5a50c066d244c56918dfd52600f0270dd92ffa27abe0e6a9afdc23643a9e00f"}},
    {"pincheck", isa::Arch::kRv32i, 1, false,
     {664, "35493f38c14a6e5345c495e6fb816e85307c9c3f9ab8cf5af02faf8279485aa8"}},
    {"pincheck", isa::Arch::kRv32i, 2, false,
     {832, "f4a3310101391cbae2ef6eff160e44e92fef255f0999795cd9b46a545f93d779"}},
    {"pincheck", isa::Arch::kRv32i, 3, false,
     {880, "a614425f02deca58c0a2b9fba88f75a666fad52602dcfd8ec92cbab0333573b4"}},
    {"toymov", isa::Arch::kRv32i, 1, false,
     {192, "cdd5b8eba52fc11d90ef1f82ece18529e0bdbb60f77494b60ec57bfbb54ecdd4"}},
    {"toymov", isa::Arch::kRv32i, 2, false,
     {196, "4973c73d6878f68bf65dfea596fda8b8bea8da7f2d4ca0ac0adbffdbc4dde736"}},
    {"toymov", isa::Arch::kRv32i, 3, false,
     {212, "5f86a44b12651f664a7a29afccc07baa0f5d6054177a50db53a4458d2c135188"}},
};

/// Order 2, skip only; one row per synth_corpus::kCorpus seed, in its order.
constexpr SeedGolden kCorpusFixpointGolden[] = {
    {10,
     {757, "4d3f892bc6fef472a810fa5b2ffc0cc420ae7431ac22792c021c2aa846051c4f"},
     {660, "942af3b5560a68f5f9409d3853b21d5a94b6b97195e64084d92341ecd3c105fb"}},
    {20,
     {856, "287374331f2761b22c9c1ee61dff48796eeab89d2cdb3fb9a10da7f88d5077db"},
     {740, "4376d476950abebfab0c33704b0af1cc4578463285430b1e5cc5d7c6d69d5544"}},
    {2,
     {800, "aa1a4c839df74d99ec5eb70d798ed6d9472b141fcad04d04bf38d1df12e2e426"},
     {628, "e58359aaf24db633195e7fab1b7da47fe4349254a928059608f5ec49aedd627a"}},
    {8,
     {948, "90c55171aa3492c2b4a5bac0f248f0b529dd794f0adbdf1d07a1545fb1437ef2"},
     {812, "df92c5e1b807bdc0acfff05a85fbcbd59196b95a7e3e5a3d53dc591bc6d3996f"}},
    {9,
     {972, "9f2a1b6ff08754cc317a468526e4d2d84f0ff1a3b4b1ae6f7f2e030b53513752"},
     {748, "c0d2e1f21041c13856f748ee319382b08551f3e667afd34cd0e32895cddf85a6"}},
    {15,
     {1002, "0d91a1f0824f2830a9899a698fd777fd04729eef5ee83413ef4a3d990801d5f2"},
     {872, "d0fd3e6922599515468ce9070e4bb6dc58276a06da70bf2eb1dd238eafc853c2"}},
    {23,
     {688, "89023bd02b3c56f8cf9a4eb5753af72e33f2640db936ee7c56437fad2a2cf8e3"},
     {608, "647c282db953176c725672452baf54be852836dc5e2784adb0a885820b57f2b3"}},
    {36,
     {494, "475f353f0094fc49abac569d8c89f29fa39c65b4ea8523cf7e18344f011151f5"},
     {400, "48fb48bbffa2fa4c45fe567d0e296b26cdd81130ef198da7e1ca693fb70307a8"}},
    {77,
     {880, "aed22aba17ab2a41e8e8a17f1e05151ba1b5e0627019570515b3613c24029e0d"},
     {764, "2132fbc440c8531a23400e70f0aa6b931fcb892f242187d06025be05e5d8114f"}},
};

TEST(PatternGolden, FaulterPatcherFixpoints) {
  for (const FixpointGolden& golden : kFixpointGolden) {
    SCOPED_TRACE(std::string(golden.guest) + " on " + std::string(isa::to_string(golden.arch)) +
                 " at order " + std::to_string(golden.order) +
                 (golden.bit_flip ? " under skip+bit_flip" : " under skip"));
    expect_fixpoint(golden_guest(golden.guest, golden.arch), golden.order, golden.bit_flip,
                    golden.text);
  }
}

TEST(PatternGolden, FrozenCorpusFixpointsAtOrderTwo) {
  ASSERT_EQ(std::size(kCorpusFixpointGolden), std::size(synth_corpus::kCorpus));
  for (std::size_t i = 0; i < std::size(kCorpusFixpointGolden); ++i) {
    const SeedGolden& golden = kCorpusFixpointGolden[i];
    ASSERT_EQ(golden.seed, synth_corpus::kCorpus[i].seed);
    for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
      SCOPED_TRACE("synth:" + std::to_string(golden.seed) + " on " +
                   std::string(isa::to_string(arch)));
      expect_fixpoint(guests::synth::generate(golden.seed, arch), 2, false,
                      arch == isa::Arch::kX64 ? golden.x64 : golden.rv32i);
    }
  }
}

}  // namespace
}  // namespace r2r
