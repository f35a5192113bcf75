// Emulator: flag semantics against a host-computed oracle (property
// sweeps), memory permissions, syscalls, fault-injection mechanics.
#include <gtest/gtest.h>

#include "bir/assemble.h"
#include "bir/module.h"
#include "emu/machine.h"
#include "sim/snapshot.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"

namespace r2r::emu {
namespace {

using isa::Cond;
using isa::Reg;
using isa::Width;

/// Assembles a tiny program and returns the image.
elf::Image build(const std::string& text) {
  bir::Module module = bir::module_from_assembly(".global _start\n_start:\n" + text);
  return bir::assemble(module);
}

/// Runs `body` then exits with al as the code; returns the run.
RunResult run_and_exit_al(const std::string& body, std::string input = {}) {
  const elf::Image image = build(body +
                                 "    mov rdi, rax\n"
                                 "    and rdi, 0xff\n"
                                 "    mov rax, 60\n"
                                 "    syscall\n");
  return run_image(image, std::move(input));
}

// ---- flag oracle sweeps --------------------------------------------------------

struct FlagCase {
  std::uint64_t a;
  std::uint64_t b;
};

class FlagOracle : public testing::TestWithParam<FlagCase> {
 protected:
  /// Executes `mnemonic rbx, rcx` in a scratch program and returns the
  /// resulting RFLAGS (captured with pushfq/pop).
  Flags run_op(isa::Mnemonic m, std::uint64_t a, std::uint64_t b) {
    bir::Module op_module = bir::module_from_assembly(
        ".global _start\n_start:\n"
        "    mov rbx, 0x" + to_hex(a) + "\n"
        "    mov rcx, 0x" + to_hex(b) + "\n"
        "    " + std::string(isa::mnemonic_name(m)) + " rbx, rcx\n"
        "    pushfq\n"
        "    pop rdx\n"
        "    mov rax, 60\n"
        "    mov rdi, 0\n"
        "    syscall\n");
    elf::Image op_image = bir::assemble(op_module);
    Machine op_machine(op_image, "");
    RunConfig config;
    const RunResult result = op_machine.run(config);
    EXPECT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
    return Flags::from_rflags(op_machine.cpu().read(Reg::rdx, Width::b64));
  }

  static std::string to_hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
    return buf;
  }
};

TEST_P(FlagOracle, AddFlagsMatchHostComputation) {
  const auto [a, b] = GetParam();
  const Flags flags = run_op(isa::Mnemonic::kAdd, a, b);
  const std::uint64_t r = a + b;
  EXPECT_EQ(flags.zf, r == 0);
  EXPECT_EQ(flags.sf, (r >> 63) != 0);
  EXPECT_EQ(flags.cf, r < a);
  const bool of = (((a ^ ~b) & (a ^ r)) >> 63) != 0;
  EXPECT_EQ(flags.of, of);
  EXPECT_EQ(flags.pf, support::parity_even_low8(r));
}

TEST_P(FlagOracle, SubFlagsMatchHostComputation) {
  const auto [a, b] = GetParam();
  const Flags flags = run_op(isa::Mnemonic::kSub, a, b);
  const std::uint64_t r = a - b;
  EXPECT_EQ(flags.zf, r == 0);
  EXPECT_EQ(flags.sf, (r >> 63) != 0);
  EXPECT_EQ(flags.cf, a < b);
  const bool of = (((a ^ b) & (a ^ r)) >> 63) != 0;
  EXPECT_EQ(flags.of, of);
}

TEST_P(FlagOracle, LogicClearsCarryAndOverflow) {
  const auto [a, b] = GetParam();
  for (const isa::Mnemonic m : {isa::Mnemonic::kAnd, isa::Mnemonic::kOr,
                                isa::Mnemonic::kXor}) {
    const Flags flags = run_op(m, a, b);
    EXPECT_FALSE(flags.cf);
    EXPECT_FALSE(flags.of);
    std::uint64_t r = 0;
    if (m == isa::Mnemonic::kAnd) r = a & b;
    if (m == isa::Mnemonic::kOr) r = a | b;
    if (m == isa::Mnemonic::kXor) r = a ^ b;
    EXPECT_EQ(flags.zf, r == 0);
    EXPECT_EQ(flags.sf, (r >> 63) != 0);
  }
}

std::vector<FlagCase> flag_cases() {
  std::vector<FlagCase> cases = {
      {0, 0},
      {1, 1},
      {0xFFFFFFFFFFFFFFFFULL, 1},
      {0x7FFFFFFFFFFFFFFFULL, 1},
      {0x8000000000000000ULL, 1},
      {0x8000000000000000ULL, 0x8000000000000000ULL},
      {5, 3},
      {3, 5},
      {0xFF, 0x100},
  };
  support::Rng rng(2026);
  for (int i = 0; i < 24; ++i) cases.push_back(FlagCase{rng.next(), rng.next()});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlagOracle, testing::ValuesIn(flag_cases()));

// ---- instruction semantics ---------------------------------------------------------

TEST(MachineSemantics, WidthWriteRules) {
  // 32-bit writes zero-extend; 8-bit writes merge.
  const RunResult r32 = run_and_exit_al(
      "    mov rax, 0x1122334455667788\n"
      "    mov eax, 0x99\n"
      "    cmp rax, 0x99\n"
      "    sete al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(r32.exit_code, 1);

  const RunResult r8 = run_and_exit_al(
      "    mov rbx, 0x1100\n"
      "    mov bl, 0x22\n"
      "    cmp rbx, 0x1122\n"
      "    sete al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(r8.exit_code, 1);
}

TEST(MachineSemantics, PushPopPreserveValues) {
  const RunResult result = run_and_exit_al(
      "    mov rbx, 0x12345678\n"
      "    push rbx\n"
      "    pop rcx\n"
      "    cmp rcx, rbx\n"
      "    sete al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(MachineSemantics, PushfqPopfqRoundTripsFlags) {
  const RunResult result = run_and_exit_al(
      "    cmp rax, rax\n"   // ZF=1
      "    pushfq\n"
      "    cmp rsp, 0\n"     // clobber flags (rsp != 0 so ZF=0)
      "    popfq\n"
      "    sete al\n"        // ZF restored to 1
      "    movzx rax, al\n");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(MachineSemantics, CallRetRoundTrip) {
  const RunResult result = run_and_exit_al(
      "    call sub\n"
      "    jmp done\n"
      "sub:\n"
      "    mov rax, 7\n"
      "    ret\n"
      "done:\n");
  EXPECT_EQ(result.exit_code, 7);
}

TEST(MachineSemantics, CmovTakesOnlyWhenConditionHolds) {
  const RunResult result = run_and_exit_al(
      "    mov rax, 1\n"
      "    mov rbx, 9\n"
      "    cmp rax, 1\n"
      "    cmove rax, rbx\n"   // taken: rax = 9
      "    cmp rbx, 1\n"
      "    cmove rax, rbx\n"   // not taken
      );
  EXPECT_EQ(result.exit_code, 9);
}

TEST(MachineSemantics, ImulAndShifts) {
  const RunResult result = run_and_exit_al(
      "    mov rax, 6\n"
      "    mov rbx, 7\n"
      "    imul rax, rbx\n"   // 42
      "    shl rax, 2\n"      // 168
      "    shr rax, 1\n"      // 84
      );
  EXPECT_EQ(result.exit_code, 84);
}

TEST(MachineSemantics, IncDecPreserveCarry) {
  const RunResult result = run_and_exit_al(
      "    mov rbx, 0\n"
      "    cmp rbx, 1\n"      // CF=1 (0 < 1)
      "    inc rbx\n"          // must keep CF
      "    setb al\n"
      "    movzx rax, al\n");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(MachineSemantics, SyscallClobbersRcxAndR11) {
  const elf::Image image = build(
      "    mov rcx, 5\n"
      "    mov r11, 5\n"
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    mov rsi, offset buf\n"
      "    mov rdx, 0\n"
      "    syscall\n"
      "    xor rax, rax\n"
      "    cmp rcx, 5\n"
      "    sete al\n"          // al=1 would mean rcx survived (it must not)
      "    movzx rdi, al\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "buf: .zero 1\n");
  const RunResult result = run_image(image, "");
  ASSERT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
  EXPECT_EQ(result.exit_code, 0);
}

// ---- memory model -------------------------------------------------------------------

TEST(Memory, PermissionEnforcement) {
  Memory memory;
  memory.map("ro", 0x1000, 0x100, elf::kRead);
  memory.map("rw", 0x2000, 0x100, elf::kRead | elf::kWrite);
  EXPECT_NO_THROW(memory.read(0x1000, 8));
  EXPECT_THROW(memory.write(0x1000, 1, 1), support::Error);
  EXPECT_NO_THROW(memory.write(0x2000, 1, 1));
  EXPECT_THROW(memory.read(0x3000, 1), support::Error);
  std::array<std::uint8_t, 4> window{};
  EXPECT_THROW(memory.fetch(0x2000, window), support::Error);
}

TEST(Memory, RejectsOverlappingMaps) {
  Memory memory;
  memory.map("a", 0x1000, 0x100, elf::kRead);
  EXPECT_THROW(memory.map("b", 0x1080, 0x100, elf::kRead), support::Error);
  EXPECT_NO_THROW(memory.map("c", 0x1100, 0x100, elf::kRead));
}

TEST(Memory, CrossBoundaryAccessFails) {
  Memory memory;
  memory.map("a", 0x1000, 0x10, elf::kRead | elf::kWrite);
  EXPECT_NO_THROW(memory.read(0x1008, 8));
  EXPECT_THROW(memory.read(0x1009, 8), support::Error);
}

TEST(Memory, HostAccessorsThrowTheGuestFaultMessages) {
  Memory memory;
  memory.map("ro", 0x1000, 0x100, elf::kRead);
  const auto message = [](const auto& access) -> std::string {
    try {
      access();
    } catch (const support::Error& error) {
      EXPECT_EQ(error.kind(), support::ErrorKind::kMemory);
      return error.what();
    }
    return "no error";
  };
  std::array<std::uint8_t, 4> window{};
  EXPECT_EQ(message([&] { (void)memory.read(0x3000, 1); }),
            "memory: unmapped read at 0x3000");
  EXPECT_EQ(message([&] { memory.write(0x1000, 1, 1); }),
            "memory: permission violation writing 0x1000");
  EXPECT_EQ(message([&] { (void)memory.fetch(0x1000, window); }),
            "memory: fetch from non-executable memory at 0x1000");
  EXPECT_EQ(message([&] { (void)memory.read_block(0x10ff, 2); }),
            "memory: unmapped block read at 0x10ff");
  const std::array<std::uint8_t, 2> bytes{};
  EXPECT_EQ(message([&] { memory.write_block(0x2000, bytes); }),
            "memory: unmapped block write at 0x2000");
}

TEST(Memory, LittleEndianValues) {
  Memory memory;
  memory.map("a", 0x1000, 0x10, elf::kRead | elf::kWrite);
  memory.write(0x1000, 0x1122334455667788ULL, 8);
  EXPECT_EQ(memory.read(0x1000, 1), 0x88u);
  EXPECT_EQ(memory.read(0x1007, 1), 0x11u);
  EXPECT_EQ(memory.read(0x1000, 4), 0x55667788u);
}

// ---- crash classification ------------------------------------------------------------

TEST(MachineCrashes, TrapsReportCrash) {
  for (const std::string body : {"    hlt\n", "    ud2\n", "    int3\n"}) {
    const elf::Image image = build(body);
    const RunResult result = run_image(image, "");
    EXPECT_EQ(result.reason, StopReason::kCrashed) << body;
    EXPECT_FALSE(result.crash_detail.empty());
  }
}

TEST(MachineCrashes, UnmappedAccessReportsCrash) {
  const elf::Image image = build("    mov rax, [0x1]\n");
  const RunResult result = run_image(image, "");
  EXPECT_EQ(result.reason, StopReason::kCrashed);
}

TEST(MachineCrashes, FuelExhaustionOnInfiniteLoop) {
  const elf::Image image = build("spin:\n    jmp spin\n");
  RunConfig config;
  config.fuel = 1000;
  const RunResult result = run_image(image, "", config);
  EXPECT_EQ(result.reason, StopReason::kFuelExhausted);
  EXPECT_EQ(result.steps, 1000u);
}

// ---- run-end contract -----------------------------------------------------------------
// Every run end (exit, memory fault, failed decode, trap, output limit) is
// machine status, not a thrown exception. Every RunResult field must read
// as it always has, with the decoded-block cache on (parameter true) and
// off.

class RunEnd : public testing::TestWithParam<bool> {
 protected:
  /// One traced run of `image` on a fresh machine.
  RunResult run_fresh(const elf::Image& image, const std::string& input = {}) const {
    Machine machine(image, input);
    machine.set_block_cache_enabled(GetParam());
    return machine.run(traced());
  }

  static RunConfig traced() {
    RunConfig config;
    config.record_trace = true;
    return config;
  }
};

void expect_same_result(const RunResult& actual, const RunResult& expected) {
  EXPECT_EQ(actual.reason, expected.reason);
  EXPECT_EQ(actual.exit_code, expected.exit_code);
  EXPECT_EQ(actual.output, expected.output);
  EXPECT_EQ(actual.crash_detail, expected.crash_detail);
  EXPECT_EQ(actual.steps, expected.steps);
  ASSERT_EQ(actual.trace.size(), expected.trace.size());
  for (std::size_t i = 0; i < actual.trace.size(); ++i) {
    EXPECT_EQ(actual.trace[i].address, expected.trace[i].address) << "trace entry " << i;
    EXPECT_EQ(actual.trace[i].length, expected.trace[i].length) << "trace entry " << i;
  }
}

TEST_P(RunEnd, MemoryFaultCrashDetailGoldens) {
  const elf::Image data_image = build(
      "    mov rax, offset buf\n"
      "    jmp rax\n"
      ".section .data\n"
      "buf: .zero 8\n");
  const elf::Symbol* buf = data_image.find_symbol("buf");
  ASSERT_NE(buf, nullptr);

  struct Case {
    elf::Image image;
    std::string detail;
    std::uint64_t steps;
  };
  const elf::Image store_image = build(
      "    mov rbx, offset _start\n"
      "    mov [rbx], rax\n");
  const std::vector<Case> cases = {
      {build("    mov rax, [0x1]\n"), "memory: unmapped read at 0x1", 1},
      {build("    mov rax, 5\n    mov [0x10], rax\n"), "memory: unmapped write at 0x10", 2},
      {store_image,
       "memory: permission violation writing " + support::hex_string(store_image.entry), 2},
      {build("    mov rax, 0x12345\n    jmp rax\n"), "memory: unmapped fetch at 0x12345", 3},
      {data_image,
       "memory: fetch from non-executable memory at " + support::hex_string(buf->value), 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.detail);
    const RunResult result = run_fresh(c.image);
    EXPECT_EQ(result.reason, StopReason::kCrashed);
    EXPECT_EQ(result.crash_detail, c.detail);
    EXPECT_EQ(result.exit_code, -1);
    EXPECT_EQ(result.steps, c.steps);
    ASSERT_EQ(result.trace.size(), c.steps);
    // A fetch that faults leaves its trace entry's length at 0.
    const bool fetch_fault = c.detail.find("fetch") != std::string::npos;
    EXPECT_EQ(result.trace.back().length == 0, fetch_fault);
  }
}

elf::Image build_rv32i(const std::string& text) {
  bir::Module module =
      bir::module_from_assembly(".global _start\n_start:\n" + text, isa::Arch::kRv32i);
  return bir::assemble(module);
}

TEST_P(RunEnd, DecodeAndTrapCrashDetailGoldens) {
  struct Case {
    elf::Image image;
    std::string detail;
    std::uint64_t steps;
    std::uint8_t last_length;  ///< 0: the last step failed to decode
  };
  const std::vector<Case> cases = {
      {build("    mov rax, 1\n    .byte 0x06\n"), "decode: unsupported opcode", 2, 0},
      {build("    .byte 0x0f, 0xff\n"), "decode: unsupported 0F opcode", 1, 0},
      // mov eax, imm32 cut short by the end of .text: a 2-byte window.
      {build("    mov rax, 1\n    .byte 0xb8, 0x01\n"), "decode: byte reader underrun", 2, 0},
      // C0 /6 is no shift; the extension is checked before the missing
      // immediate is read.
      {build("    .byte 0xc0, 0xf0\n"), "decode: unsupported shift-group extension", 1, 0},
      {build("    nop\n    hlt\n"), "execution: hlt in user mode", 2, 1},
      {build("    int3\n"), "execution: breakpoint trap", 1, 1},
      {build("    nop\n    ud2\n"), "execution: ud2 invalid opcode", 2, 2},
      {build("    mov rax, 1\n"
             "    mov rdi, 1\n"
             "    mov rsi, rsp\n"
             "    mov rdx, 0x100001\n"
             "    syscall\n"),
       "execution: guest output limit exceeded", 5, 2},
      // rv32i: a plain jal word (jal x0, 0), and addi x3, x3, 1 (gp is
      // outside the register file).
      {build_rv32i("    nop\n    .byte 0x6f, 0x00, 0x00, 0x00\n"),
       "decode: rv32i direct jumps use the checked-jal extension word (word 111)", 2, 0},
      {build_rv32i("    .byte 0x93, 0x81, 0x11, 0x00\n"),
       "decode: register x3 is not in the rv32i register file", 1, 0},
      // cmp x3, x4 (custom-0): both registers are outside the file, and
      // rs1 is checked first.
      {build_rv32i("    .byte 0x0b, 0x80, 0x41, 0x00\n"),
       "decode: register x3 is not in the rv32i register file", 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.detail);
    const RunResult result = run_fresh(c.image);
    EXPECT_EQ(result.reason, StopReason::kCrashed);
    EXPECT_EQ(result.crash_detail, c.detail);
    EXPECT_EQ(result.exit_code, -1);
    EXPECT_EQ(result.output, "");
    EXPECT_EQ(result.steps, c.steps);
    ASSERT_EQ(result.trace.size(), c.steps);
    EXPECT_EQ(result.trace.back().length, c.last_length);
  }
}

TEST_P(RunEnd, OutputLimitHoldsForLengthsNearTwoToThe64) {
  // One byte of output, then write(1, rsp, -1): the length must not wrap
  // the limit check around and start reading the stack.
  const elf::Image image = build(
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    mov rsi, rsp\n"
      "    mov rdx, 1\n"
      "    syscall\n"
      "    mov rax, 1\n"
      "    mov rdx, -1\n"
      "    syscall\n");
  const RunResult result = run_fresh(image);
  EXPECT_EQ(result.reason, StopReason::kCrashed);
  EXPECT_EQ(result.crash_detail, "execution: guest output limit exceeded");
  EXPECT_EQ(result.output, std::string(1, '\0'));
  EXPECT_EQ(result.steps, 8u);
  EXPECT_EQ(result.trace.back().length, 2u);
}

TEST_P(RunEnd, WriteSyscallRunningOffItsMappingKeepsTheBytesBeforeTheFault) {
  // rsp starts 16 bytes below the stack top; the buffer at rsp+8 holds
  // "hello" and runs 8 bytes past the end of the stack mapping.
  const elf::Image image = build(
      "    mov rax, 0x6f6c6c6568\n"
      "    mov [rsp+8], rax\n"
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    lea rsi, [rsp+8]\n"
      "    mov rdx, 16\n"
      "    syscall\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
  const RunResult result = run_fresh(image);
  EXPECT_EQ(result.reason, StopReason::kCrashed);
  EXPECT_EQ(result.crash_detail,
            "memory: unmapped read at " + support::hex_string(Machine::kStackBase));
  EXPECT_EQ(result.output, std::string("hello\0\0\0", 8));
  EXPECT_EQ(result.steps, 7u);
}

TEST_P(RunEnd, ReadSyscallRunningOffItsMappingKeepsTheBytesBeforeTheFault) {
  // rsp+12 is 4 bytes below the stack top: four stdin bytes land, the
  // fifth store faults, and the stdin cursor does not move.
  const elf::Image image = build(
      "    mov rax, 0\n"
      "    mov rdi, 0\n"
      "    lea rsi, [rsp+12]\n"
      "    mov rdx, 8\n"
      "    syscall\n");
  Machine machine(image, "abcdefgh");
  machine.set_block_cache_enabled(GetParam());
  const RunResult result = machine.run(traced());
  EXPECT_EQ(result.reason, StopReason::kCrashed);
  EXPECT_EQ(result.crash_detail,
            "memory: unmapped write at " + support::hex_string(Machine::kStackBase));
  EXPECT_EQ(result.steps, 5u);
  const std::vector<std::uint8_t> landed =
      machine.memory().read_block(Machine::kStackBase - 4, 4);
  EXPECT_EQ(std::string(landed.begin(), landed.end()), "abcd");
  EXPECT_EQ(machine.stdin_pos(), 0u);
}

TEST_P(RunEnd, FaultingLoadStopsTheRestOfTheInstruction) {
  // push qword ptr [0x1] (ff 34 25 01 00 00 00): the load faults, so the
  // push stores nothing over the marker below rsp.
  const elf::Image image = build(
      "    mov rax, 0x1234\n"
      "    mov [rsp-8], rax\n"
      "    .byte 0xff, 0x34, 0x25, 0x01, 0x00, 0x00, 0x00\n");
  Machine machine(image, "");
  machine.set_block_cache_enabled(GetParam());
  const RunResult result = machine.run(traced());
  EXPECT_EQ(result.reason, StopReason::kCrashed);
  EXPECT_EQ(result.crash_detail, "memory: unmapped read at 0x1");
  EXPECT_EQ(result.steps, 3u);
  EXPECT_EQ(machine.memory().read(Machine::kStackBase - 24, 8), 0x1234u);
}

TEST_P(RunEnd, ExitAndCrashStateDoNotLeakAcrossRestores) {
  const elf::Image exits = build(
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    mov rsi, offset msg\n"
      "    mov rdx, 2\n"
      "    syscall\n"
      "    mov rax, 60\n"
      "    mov rdi, 3\n"
      "    syscall\n"
      ".section .data\n"
      "msg: .ascii \"ok\"\n");
  const elf::Image crashes = build(
      "    mov rax, 1\n"
      "    mov rbx, 2\n"
      "    mov rcx, [0x1]\n");
  RunConfig pause;
  pause.fuel = 2;
  for (const elf::Image* image : {&exits, &crashes}) {
    Machine fresh(*image, "");
    fresh.set_block_cache_enabled(GetParam());
    ASSERT_EQ(fresh.run(pause).reason, StopReason::kFuelExhausted);
    const RunResult reference = fresh.run(traced());

    Machine machine(*image, "");
    machine.set_block_cache_enabled(GetParam());
    const sim::MachineSnapshot entry = sim::capture(machine);
    ASSERT_EQ(machine.run(pause).reason, StopReason::kFuelExhausted);
    const sim::MachineSnapshot paused = sim::capture(machine);
    expect_same_result(machine.run(traced()), reference);

    // Back to the pause point, then to entry (the synced snapshot and one
    // that is not): each rerun ends exactly as a fresh machine's does.
    sim::restore(paused, machine);
    expect_same_result(machine.run(traced()), reference);
    sim::restore(entry, machine);
    ASSERT_EQ(machine.run(pause).reason, StopReason::kFuelExhausted);
    expect_same_result(machine.run(traced()), reference);
  }
  EXPECT_EQ(run_fresh(exits).exit_code, 3);
  EXPECT_EQ(run_fresh(exits).output, "ok");
  EXPECT_EQ(run_fresh(crashes).crash_detail, "memory: unmapped read at 0x1");
}

INSTANTIATE_TEST_SUITE_P(BlockCache, RunEnd, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "cached" : "uncached";
                         });

// ---- fault injection mechanics ---------------------------------------------------------

TEST(FaultInjection, SkipFaultSkipsExactlyOneInstruction) {
  // Program: rax=1; rax=2; exit(rax). Skipping the second mov exits 1.
  const std::string body =
      "    mov rax, 1\n"
      "    mov rax, 2\n"
      "    mov rdi, rax\n"
      "    mov rax, 60\n"
      "    syscall\n";
  const elf::Image image = build(body);
  EXPECT_EQ(run_image(image, "").exit_code, 2);

  RunConfig config;
  config.fault = FaultSpec{FaultSpec::Kind::kSkip, 1, 0};
  const RunResult faulted = run_image(image, "", config);
  EXPECT_EQ(faulted.reason, StopReason::kExited);
  EXPECT_EQ(faulted.exit_code, 1);
}

TEST(FaultInjection, BitFlipIsTransient) {
  // Flip a bit in a loop-body instruction: only that dynamic instance is
  // affected, because the fault hits the fetch, not memory.
  const std::string body =
      "    mov rbx, 0\n"
      "    mov rcx, 3\n"
      "loop:\n"
      "    inc rbx\n"
      "    dec rcx\n"
      "    cmp rcx, 0\n"
      "    jne loop\n"
      "    mov rdi, rbx\n"
      "    mov rax, 60\n"
      "    syscall\n";
  const elf::Image image = build(body);
  EXPECT_EQ(run_image(image, "").exit_code, 3);

  // Skip the first `inc rbx` (trace index 2): one increment is lost but
  // later iterations still execute the original instruction.
  RunConfig config;
  config.fault = FaultSpec{FaultSpec::Kind::kSkip, 2, 0};
  const RunResult faulted = run_image(image, "", config);
  EXPECT_EQ(faulted.exit_code, 2);
}

TEST(FaultInjection, FaultedRunsAreDeterministic) {
  const elf::Image image = build(
      "    mov rax, 60\n"
      "    mov rdi, 9\n"
      "    syscall\n");
  RunConfig config;
  config.fault = FaultSpec{FaultSpec::Kind::kBitFlip, 1, 3};
  const RunResult a = run_image(image, "", config);
  const RunResult b = run_image(image, "", config);
  EXPECT_TRUE(a.observably_equal(b));
}

}  // namespace
}  // namespace r2r::emu
