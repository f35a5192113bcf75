// Hybrid approach (Section IV-C): differential testing of
// machine(binary) ≡ interpret(lift(binary)) ≡ machine(lower(lift(binary))),
// plus end-to-end branch hardening.
#include <gtest/gtest.h>

#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "ir/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lift/lifter.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "synth_corpus.h"

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
  cleanup.add(passes::make_global_store_elim());
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

std::string guest_param_name(const testing::TestParamInfo<const Guest*>& info) {
  return info.param->name;
}

std::vector<Guest> generate_synth_corpus(isa::Arch arch) {
  std::vector<Guest> generated;
  for (const synth_corpus::CorpusSeed& entry : synth_corpus::kCorpus) {
    generated.push_back(guests::synth::generate(entry.seed, arch));
  }
  return generated;
}

std::vector<const Guest*> pointers_to(const std::vector<Guest>& guests) {
  std::vector<const Guest*> pointers;
  for (const Guest& guest : guests) pointers.push_back(&guest);
  return pointers;
}

/// The frozen synth corpus (tests/synth_corpus.h) generated for `arch`.
const std::vector<const Guest*>& synth_corpus(isa::Arch arch) {
  static const std::vector<Guest> x64 = generate_synth_corpus(isa::Arch::kX64);
  static const std::vector<Guest> rv32i = generate_synth_corpus(isa::Arch::kRv32i);
  static const std::vector<const Guest*> x64_pointers = pointers_to(x64);
  static const std::vector<const Guest*> rv32i_pointers = pointers_to(rv32i);
  return arch == isa::Arch::kX64 ? x64_pointers : rv32i_pointers;
}

INSTANTIATE_TEST_SUITE_P(AllGuests, LiftDifferential,
                         testing::ValuesIn(guests::all_guests()), guest_param_name);
INSTANTIATE_TEST_SUITE_P(Rv32iGuests, LiftDifferential,
                         testing::ValuesIn(guests::all_guests(isa::Arch::kRv32i)),
                         guest_param_name);
INSTANTIATE_TEST_SUITE_P(SynthCorpusX64, LiftDifferential,
                         testing::ValuesIn(synth_corpus(isa::Arch::kX64)), guest_param_name);
INSTANTIATE_TEST_SUITE_P(SynthCorpusRv32i, LiftDifferential,
                         testing::ValuesIn(synth_corpus(isa::Arch::kRv32i)),
                         guest_param_name);

std::string x64_write_and_exit(const std::string& symbol, int length, int code) {
  return "    mov rax, 1\n"
         "    mov rdi, 1\n"
         "    mov rsi, offset " + symbol + "\n"
         "    mov rdx, " + std::to_string(length) + "\n"
         "    syscall\n"
         "    mov rax, 60\n"
         "    mov rdi, " + std::to_string(code) + "\n"
         "    syscall\n";
}

std::string rv32i_write_and_exit(const std::string& symbol, int length, int code) {
  return "    mov a0, 1\n"
         "    mov a5, 1\n"
         "    mov a4, offset " + symbol + "\n"
         "    mov a2, " + std::to_string(length) + "\n"
         "    syscall\n"
         "    mov a0, 60\n"
         "    mov a5, " + std::to_string(code) + "\n"
         "    syscall\n";
}

const std::string kYesNoData =
    "\n"
    ".section .data\n"
    "buf: .zero 8\n"
    "msg_yes: .asciz \"YES\\n\"\n"
    "msg_no: .asciz \"NO\\n\"\n";

Guest yes_no_guest(std::string name, isa::Arch arch, std::string good, std::string bad,
                   std::string body) {
  Guest guest;
  guest.name = std::move(name);
  guest.arch = arch;
  guest.good_input = std::move(good);
  guest.bad_input = std::move(bad);
  guest.good_output = "YES\n";
  guest.bad_output = "NO\n";
  guest.assembly = std::move(body) + kYesNoData;
  return guest;
}

/// sar on a 32-bit register lifts through sext i32 -> i64, which x64
/// lowering spells as shl 32; sar 32. Input bit 6 lands in ebx's sign
/// bit, so a zero-extending lowering would take the other branch.
Guest sar32_guest() {
  return yes_no_guest(
      "sar32", isa::Arch::kX64, "A", "!",
      ".global _start\n"
      ".section .text\n"
      "_start:\n"
      "    mov rax, 0\n"
      "    mov rdi, 0\n"
      "    mov rsi, offset buf\n"
      "    mov rdx, 1\n"
      "    syscall\n"
      "    mov rsi, offset buf\n"
      "    movzx rbx, byte ptr [rsi]\n"
      "    shl rbx, 25\n"
      "    sar ebx, 1\n"
      "    shr rbx, 30\n"
      "    cmp rbx, 3\n"
      "    jne no\n"
      "yes:\n" + x64_write_and_exit("msg_yes", 4, 0) +
      "no:\n" + x64_write_and_exit("msg_no", 3, 1));
}

/// `hop` holds only a jump to the next block, and a branch that is not
/// adjacent to it (`je hop`) reaches it too: falling through from hop
/// empties its block, and its label must move onto `yes`. "B" takes the
/// far path through hop, "C" neither.
Guest jump_only_block_guest(isa::Arch arch) {
  const bool x64 = arch == isa::Arch::kX64;
  const std::string read = x64 ? "    mov rax, 0\n"
                                 "    mov rdi, 0\n"
                                 "    mov rsi, offset buf\n"
                                 "    mov rdx, 1\n"
                                 "    syscall\n"
                                 "    mov rsi, offset buf\n"
                                 "    movzx rbx, byte ptr [rsi]\n"
                               : "    mov a0, 0\n"
                                 "    mov a5, 0\n"
                                 "    mov a4, offset buf\n"
                                 "    mov a2, 1\n"
                                 "    syscall\n"
                                 "    mov a4, offset buf\n"
                                 "    movzx a3, byte ptr [a4]\n";
  const std::string value = x64 ? "rbx" : "a3";
  const auto write_and_exit = x64 ? x64_write_and_exit : rv32i_write_and_exit;
  return yes_no_guest(std::string("jump_only_block_") + std::string(isa::to_string(arch)), arch,
                      "B", "C",
                      ".global _start\n"
                      ".section .text\n"
                      "_start:\n" + read +
                      "    cmp " + value + ", 65\n"
                      "    jne no\n"
                      "hop:\n"
                      "    jmp yes\n"
                      "yes:\n" + write_and_exit("msg_yes", 4, 0) +
                      "no:\n"
                      "    cmp " + value + ", 66\n"
                      "    je hop\n" + write_and_exit("msg_no", 3, 1));
}

/// `cmp` on constants leaves CF a known 1 and `dec` keeps it, so after
/// cleanup `ja` is `not (or i1 zf, true)` (never taken) and `jbe` is
/// `or i1 zf, true` (always taken), each the only use of its ZF compare.
/// "A" zeroes the first dec, "B" the second: folding that `or` as if it
/// were a negation sends the input to `wrong` (exit 2).
Guest flags_after_dec_guest() {
  return yes_no_guest(
      "flags_after_dec", isa::Arch::kX64, "B", "A",
      ".global _start\n"
      ".section .text\n"
      "_start:\n"
      "    mov rax, 0\n"
      "    mov rdi, 0\n"
      "    mov rsi, offset buf\n"
      "    mov rdx, 1\n"
      "    syscall\n"
      "    mov rsi, offset buf\n"
      "    movzx rbx, byte ptr [rsi]\n"
      "    sub rbx, 64\n"
      "    mov rax, 1\n"
      "    cmp rax, 2\n"
      "    dec rbx\n"
      "    ja wrong\n"
      "    mov rax, 1\n"
      "    cmp rax, 2\n"
      "    dec rbx\n"
      "    jbe check\n"
      "wrong:\n" + x64_write_and_exit("msg_no", 3, 2) +
      "check:\n"
      "    cmp rbx, 0\n"
      "    jne no\n"
      "yes:\n" + x64_write_and_exit("msg_yes", 4, 0) +
      "no:\n" + x64_write_and_exit("msg_no", 3, 1));
}

/// Hand-written guests for shapes the builtins and the synth corpus miss.
const std::vector<Guest>& crafted_guests() {
  static const std::vector<Guest> guests = {
      sar32_guest(), jump_only_block_guest(isa::Arch::kX64),
      jump_only_block_guest(isa::Arch::kRv32i), flags_after_dec_guest()};
  return guests;
}

INSTANTIATE_TEST_SUITE_P(CraftedGuests, LiftDifferential,
                         testing::ValuesIn(pointers_to(crafted_guests())), guest_param_name);

TEST(CraftedGuests, MachineTakesTheIntendedPathOnEachInput) {
  for (const Guest& guest : crafted_guests()) {
    const elf::Image image = guests::build_image(guest);
    EXPECT_EQ(emu::run_image(image, guest.good_input).output, guest.good_output) << guest.name;
    EXPECT_EQ(emu::run_image(image, guest.bad_input).output, guest.bad_output) << guest.name;
  }
}

// ---- lifter shapes -----------------------------------------------------------

/// Reads two input bytes: a sign-extended into r9, b zero-extended into
/// r8 (through an indexed memory operand).
const std::string kReadTwoBytes =
    ".global _start\n"
    ".section .text\n"
    "_start:\n"
    "    mov rax, 0\n"
    "    mov rdi, 0\n"
    "    mov rsi, offset buf\n"
    "    mov rdx, 2\n"
    "    syscall\n"
    "    mov rsi, offset buf\n"
    "    mov rcx, 1\n"
    "    movsx r9, byte ptr [rsi]\n"
    "    movzx r8, byte ptr [rsi + rcx*1]\n";

/// Prints the two low bytes of a 9-bit code whose bit i is set when the
/// i-th conditional branch falls through. The branches test ae, s, ns, o,
/// no, ge, le, g and l in that order, on the flags of cmp, test and add.
Guest condition_shapes_guest() {
  Guest guest;
  guest.name = "condition_shapes";
  guest.arch = isa::Arch::kX64;
  guest.good_input = std::string("\x05\x03", 2);
  guest.bad_input = std::string("\xfb\x90", 2);
  guest.assembly = kReadTwoBytes +
                   "    xor r12, r12\n"
                   "    cmp r8, 100\n"
                   "    jae c1\n"
                   "    or r12, 1\n"
                   "c1:\n"
                   "    test r9, r9\n"
                   "    js c2\n"
                   "    or r12, 2\n"
                   "c2:\n"
                   "    test r9, r9\n"
                   "    jns c3\n"
                   "    or r12, 4\n"
                   "c3:\n"
                   "    mov r13, 0x7fffffffffffff80\n"
                   "    add r13, r8\n"
                   "    jo c4\n"
                   "    or r12, 8\n"
                   "c4:\n"
                   "    mov r13, 0x7ffffffffffffffe\n"
                   "    add r13, r9\n"
                   "    jno c5\n"
                   "    or r12, 16\n"
                   "c5:\n"
                   "    cmp r9, -5\n"
                   "    jge c6\n"
                   "    or r12, 32\n"
                   "c6:\n"
                   "    cmp r9, 3\n"
                   "    jle c7\n"
                   "    or r12, 64\n"
                   "c7:\n"
                   "    cmp r9, r8\n"
                   "    jg c8\n"
                   "    or r12, 128\n"
                   "c8:\n"
                   "    cmp r8, 16\n"
                   "    jl c9\n"
                   "    or r12, 256\n"
                   "c9:\n"
                   "    mov [rsi], r12\n"
                   "    mov rax, 1\n"
                   "    mov rdi, 1\n"
                   "    mov rdx, 2\n"
                   "    syscall\n"
                   "    mov rax, 60\n"
                   "    mov rdi, 0\n"
                   "    syscall\n"
                   "\n"
                   ".section .data\n"
                   "buf: .zero 8\n";
  return guest;
}

/// Moves a and b through push/pop, folds them with lea over an index,
/// not and neg, picks with setcc and cmovcc (64- and 32-bit), writes
/// 8-bit registers, and prints the eight resulting bytes.
Guest data_shapes_guest() {
  Guest guest;
  guest.name = "data_shapes";
  guest.arch = isa::Arch::kX64;
  guest.good_input = std::string("\x05\x03", 2);
  guest.bad_input = std::string("\xfb\x90", 2);
  guest.assembly = kReadTwoBytes +
                   "    push r9\n"
                   "    push r8\n"
                   "    pop rbx\n"
                   "    pop rdx\n"
                   "    lea r10, [rdx + rbx*4 + 7]\n"
                   "    not r10\n"
                   "    neg r10\n"
                   "    mov r11, 0x1234\n"
                   "    cmp rdx, rbx\n"
                   "    setl r11b\n"
                   "    setg cl\n"
                   "    cmovle r10, rbx\n"
                   "    mov r13, -1\n"
                   "    cmp rbx, 40\n"
                   "    cmovb r13d, edx\n"
                   "    mov r14, 0x55\n"
                   "    mov al, bl\n"
                   "    add al, 0x7f\n"
                   "    sets r14b\n"
                   "    mov rdi, offset out\n"
                   "    mov [rdi], r10b\n"
                   "    mov [rdi + 1], r11b\n"
                   "    mov [rdi + 2], cl\n"
                   "    mov [rdi + 3], r13b\n"
                   "    mov [rdi + 4], al\n"
                   "    shr r13, 32\n"
                   "    mov [rdi + 5], r13b\n"
                   "    mov rcx, 6\n"
                   "    mov [rdi + rcx*1], r14b\n"
                   "    shr r11, 8\n"
                   "    mov [rdi + 7], r11b\n"
                   "    mov rax, 1\n"
                   "    mov rsi, rdi\n"
                   "    mov rdi, 1\n"
                   "    mov rdx, 8\n"
                   "    syscall\n"
                   "    mov rax, 60\n"
                   "    mov rdi, 0\n"
                   "    syscall\n"
                   "\n"
                   ".section .data\n"
                   "buf: .zero 8\n"
                   "out: .zero 8\n";
  return guest;
}

/// Two-byte inputs (a, b) that send every branch of condition_shapes both
/// ways: a negative, small, positive and at the signed limits; b below
/// 16, between 16 and 100, at and above 128.
const std::vector<std::string>& shape_inputs() {
  static const std::vector<std::string> inputs = {
      std::string("\x00\x00", 2), std::string("\x05\x03", 2), std::string("\xfb\x90", 2),
      std::string("\x7f\xff", 2), std::string("\x80\x01", 2), std::string("\x02\x64", 2),
      std::string("\xfa\x10", 2), std::string("\x03\x0f", 2), std::string("\x04\x80", 2),
      "zz"};
  return inputs;
}

class LiftShapes : public testing::TestWithParam<Guest> {};

TEST_P(LiftShapes, LiftAndEveryCountermeasureKeepBehaviourOnEveryInput) {
  const Guest& guest = GetParam();
  const elf::Image image = guests::build_image(guest);
  lift::LiftResult lifted = lift::lift(image);
  ir::verify(lifted.module);
  std::vector<std::pair<harden::HybridCountermeasure, elf::Image>> hardened;
  for (const auto countermeasure :
       {harden::HybridCountermeasure::kNone, harden::HybridCountermeasure::kBranchHardening,
        harden::HybridCountermeasure::kInstructionDuplication}) {
    harden::HybridConfig config;
    config.countermeasure = countermeasure;
    hardened.emplace_back(countermeasure, harden::hybrid_harden(image, config).hardened);
  }

  for (const std::string& input : shape_inputs()) {
    SCOPED_TRACE("input " + std::to_string(static_cast<unsigned char>(input[0])) + "," +
                 std::to_string(static_cast<unsigned char>(input[1])));
    const emu::RunResult original = emu::run_image(image, input);
    ASSERT_EQ(original.reason, emu::StopReason::kExited) << original.crash_detail;

    emu::Memory memory = data_memory_for(image);
    const ir::InterpResult ir_run = ir::interpret(lifted.module, memory, input);
    ASSERT_EQ(ir_run.stop, ir::InterpStop::kExited) << ir_run.crash_detail;
    EXPECT_EQ(ir_run.exit_code, original.exit_code);
    EXPECT_EQ(ir_run.output, original.output);

    for (const auto& [countermeasure, binary] : hardened) {
      SCOPED_TRACE(std::string(harden::to_string(countermeasure)));
      const emu::RunResult run = emu::run_image(binary, input);
      ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
      EXPECT_EQ(run.exit_code, original.exit_code);
      EXPECT_EQ(run.output, original.output);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(X64, LiftShapes,
                         testing::Values(condition_shapes_guest(), data_shapes_guest()),
                         [](const testing::TestParamInfo<Guest>& info) {
                           return info.param.name;
                         });

TEST(LiftShapes, InputsSendEveryConditionalBranchBothWays) {
  const elf::Image image = guests::build_image(condition_shapes_guest());
  unsigned fell_through = 0;
  unsigned taken = 0;
  for (const std::string& input : shape_inputs()) {
    const emu::RunResult run = emu::run_image(image, input);
    ASSERT_EQ(run.output.size(), 2u);
    const unsigned code = static_cast<unsigned char>(run.output[0]) |
                          static_cast<unsigned>(static_cast<unsigned char>(run.output[1])) << 8;
    fell_through |= code;
    taken |= ~code;
  }
  EXPECT_EQ(fell_through & 0x1FF, 0x1FFu);
  EXPECT_EQ(taken & 0x1FF, 0x1FFu);
}

TEST(LiftShapes, ShiftByClIsATypedLiftError) {
  Guest guest;
  guest.name = "shift_by_cl";
  guest.arch = isa::Arch::kX64;
  guest.assembly =
      ".global _start\n"
      ".section .text\n"
      "_start:\n"
      "    mov rdi, 3\n"
      "    mov rcx, 2\n"
      "    shl rdi, cl\n"
      "    mov rax, 60\n"
      "    syscall\n";
  const elf::Image image = guests::build_image(guest);
  EXPECT_EQ(emu::run_image(image, "").exit_code, 12);
  try {
    (void)lift::lift(image);
    FAIL() << "a shift by cl lifted";
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kLift);
    EXPECT_NE(std::string(error.what()).find("shift count must be immediate"), std::string::npos)
        << error.what();
  }
}

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
