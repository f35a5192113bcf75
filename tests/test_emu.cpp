// Emulator: flag semantics against a host-computed oracle (property
// sweeps), memory permissions, syscalls, fault-injection mechanics.
#include <gtest/gtest.h>

#include "bir/assemble.h"
#include "bir/module.h"
#include "emu/machine.h"
#include "isa/condition.h"
#include "machine_oracle.h"
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

/// The Error{kInvalidArgument} text `map` throws, or "no error".
template <typename Map>
std::string map_error(const Map& map) {
  try {
    map();
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kInvalidArgument);
    return error.what();
  }
  return "no error";
}

TEST(Memory, RejectsRegionsThatWrapTheAddressSpace) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  Memory memory;
  memory.map("low", 0x1000, 0x1000, elf::kRead);
  // base + size wraps to 0x1800: the overlap test alone took it for a
  // region below "low".
  EXPECT_NE(map_error([&] { memory.map("wrap", kTop - 0x7ff, 0x2000, elf::kRead); })
                .find("'wrap' wraps the address space"),
            std::string::npos);
  // A region ending exactly at 2^64 has no representable end either.
  EXPECT_NE(map_error([&] { memory.map("edge", kTop - 0xfff, 0x1000, elf::kRead); })
                .find("wraps the address space"),
            std::string::npos);
  EXPECT_EQ(map_error([&] { memory.map("below", kTop - 0x1000, 0x1000, elf::kRead); }),
            "no error");
}

TEST(Memory, RejectsRegionsOverTheSizeCap) {
  Memory memory;
  EXPECT_NE(map_error([&] {
              memory.map("huge", 0x1000, Memory::kMaxRegionBytes + 1, elf::kRead);
            }).find("'huge' exceeds the region size cap"),
            std::string::npos);
}

TEST(Memory, ImageWithAHugeSegmentFailsToLoadWithATypedError) {
  // p_memsz 2^44 passes read_elf (memsz >= filesz, no wrap); mapping it
  // asked the host for a 16 TiB vector.
  std::vector<std::uint8_t> bytes = elf::write_elf(build("    nop\n"));
  const std::size_t phoff = static_cast<std::size_t>(bytes[0x20] | (bytes[0x21] << 8));
  for (int i = 0; i < 8; ++i) {
    bytes[phoff + 40 + i] = static_cast<std::uint8_t>((std::uint64_t{1} << 44) >> (8 * i));
  }
  const elf::Image image = elf::read_elf(bytes);
  EXPECT_NE(map_error([&] { Machine machine(image, ""); }).find("exceeds the region size cap"),
            std::string::npos);
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

// ---- lazy-flag consumer matrix -------------------------------------------------------
// Cached blocks run specialized handlers that leave the flags pending (the
// last flag-writing operation and its operands); the uncached machine runs
// the generic entry, which computes them eagerly. Every flag writer below
// runs at each width on operands that hit zero, sign change, signed
// overflow, carry/borrow, AF nibble carry and both parities, and each one
// is followed by every flag consumer: each jcc/setcc/cmovcc condition,
// pushfq (x64), mvflags (rv32i), syscall's r11, a flag-flip fault of each
// flag on the next step, and a fuel pause followed by capture. Cached and
// uncached runs must agree on the full machine state (tests/machine_oracle.h).

/// Register spellings and instruction shapes of one target's matrix.
struct FlagTarget {
  isa::Arch arch;
  std::string a, b, result, result8, base;  ///< rbx/rcx/rdx/dl/rdi on x64
  unsigned slot_bytes;                      ///< bytes per stored result
  std::string prologue;                     ///< sets `base` (and the x64 slot pointer)
  std::string exit;

  /// The operand load before each writer: a in `a`, b in `b`, and on x64
  /// b also in memory at [rsi] for the memory-source cmp.
  [[nodiscard]] std::string load(std::uint64_t av, std::uint64_t bv) const {
    const auto value = [&](std::uint64_t v) {
      return support::hex_string(arch == isa::Arch::kX64 ? v : v & 0xFFFF'FFFF);
    };
    std::string text = "    mov " + a + ", " + value(av) + "\n    mov " + b + ", " + value(bv) + "\n";
    if (arch == isa::Arch::kX64) text += "    mov [rsi], rcx\n";
    return text;
  }
  [[nodiscard]] unsigned load_instructions() const { return arch == isa::Arch::kX64 ? 3 : 2; }
};

FlagTarget x64_flags() {
  return {isa::Arch::kX64, "rbx", "rcx", "rdx", "dl", "rdi", 8,
          "    mov rdi, offset out\n    mov rsi, offset slot\n",
          "    mov rax, 60\n    mov rdi, 0\n    syscall\n"};
}

FlagTarget rv32i_flags() {
  return {isa::Arch::kRv32i, "a3", "a1", "a2", "a2b", "s0", 4, "    mov s0, offset out\n",
          "    mov a0, 60\n    mov a5, 0\n    syscall\n"};
}

struct FlagWriter {
  std::string text;        ///< writes the flags from the loaded operands
  unsigned instructions;  ///< dynamic instructions in `text`
};

/// The writers at every width the target encodes, for operands (av, bv).
std::vector<FlagWriter> flag_writers(const FlagTarget& t, std::uint64_t bv) {
  std::vector<FlagWriter> writers;
  const auto one = [&](const std::string& line) { writers.push_back({"    " + line + "\n", 1}); };
  const auto imm = std::to_string(static_cast<std::int64_t>(bv));
  if (t.arch == isa::Arch::kX64) {
    const std::vector<std::pair<std::string, std::string>> widths = {
        {"bl", "cl"}, {"ebx", "ecx"}, {"rbx", "rcx"}};
    for (const auto& [a, b] : widths) {
      for (const char* op : {"add", "sub", "cmp", "and", "or", "xor", "test"}) {
        one(std::string(op) + " " + a + ", " + b);
      }
      for (const char* op : {"neg", "inc", "dec"}) one(std::string(op) + " " + a);
      for (const char* op : {"shl", "shr", "sar"}) {
        one(std::string(op) + " " + a + ", 1");
        one(std::string(op) + " " + a + ", cl");
      }
      if (a != "bl") one("imul " + a + ", " + b);  // no 8-bit two-operand imul
    }
    // The specialized immediate and memory-source shapes.
    if (support::fits_int32(static_cast<std::int64_t>(bv))) {
      for (const char* op : {"add", "sub", "cmp", "and", "or", "xor", "test"}) {
        one(std::string(op) + " rbx, " + imm);
      }
    }
    one("cmp rbx, [rsi]");
    // CF crosses a pending record: inc/dec keep the CF the writer before
    // them left (the specialized add is the immediate form).
    std::vector<std::string> firsts = {"add rbx, rcx", "sub rbx, rcx", "cmp rbx, rcx",
                                       "xor rbx, rcx", "imul rbx, rcx"};
    if (support::fits_int32(static_cast<std::int64_t>(bv))) firsts.push_back("add rbx, " + imm);
    for (const std::string& first : firsts) {
      for (const char* second : {"inc", "dec"}) {
        writers.push_back({"    " + first + "\n    " + second + " rbx\n", 2});
      }
    }
    return writers;
  }
  for (const char* op : {"add", "sub", "and", "or", "xor"}) one(std::string(op) + " a3, a1");
  for (const char* op : {"cmp", "test"}) {
    one(std::string(op) + " a3, a1");
    one(std::string(op) + " a3b, a1b");  // the custom-0 byte forms
  }
  const auto iv = static_cast<std::int32_t>(bv & 0xFFFF'FFFF);
  if (iv >= -2048 && iv <= 2047) {
    for (const char* op : {"add", "and", "or", "xor", "cmp"}) {
      if (iv == -1 && std::string(op) == "xor") continue;  // rv32i spells it `not`
      one(std::string(op) + " a3, " + std::to_string(iv));
    }
    one("cmp a3b, " + std::to_string(iv));
  }
  one("neg a3");
  for (const char* op : {"shl", "shr", "sar"}) {
    one(std::string(op) + " a3, 1");
    one(std::string(op) + " a3, a1");
  }
  return writers;
}

/// Every consumer once, each after its own copy of the load and `writer`,
/// storing what it read at the next result slot.
std::string consumer_program(const FlagTarget& t, std::uint64_t av, std::uint64_t bv,
                             const FlagWriter& writer) {
  const bool x64 = t.arch == isa::Arch::kX64;
  std::vector<std::string> consumers;
  for (unsigned cc = 0; cc < 16; ++cc) {
    const std::string suffix(isa::cond_suffix(static_cast<Cond>(cc)));
    const std::string label = "taken_" + std::to_string(cc);
    consumers.push_back("    mov " + t.result + ", 0\n    j" + suffix + " " + label + "\n    mov " +
                        t.result + ", 1\n" + label + ":\n");
    consumers.push_back("    mov " + t.result + ", 0\n    set" + suffix + " " + t.result8 + "\n");
    if (x64) {
      consumers.push_back("    mov rdx, 7\n    mov r8, 9\n    cmov" + suffix + " rdx, r8\n");
      consumers.push_back("    mov rdx, -1\n    mov r8, 9\n    cmov" + suffix + " edx, r8d\n");
    }
  }
  consumers.push_back(x64 ? "    pushfq\n    pop rdx\n" : "    mvflags a2\n");
  consumers.push_back(x64 ? "    mov rax, 39\n    syscall\n    mov rdx, r11\n"
                          : "    mov a0, 39\n    syscall\n    mov a2, t4\n");
  std::string text = t.prologue;
  for (std::size_t k = 0; k < consumers.size(); ++k) {
    text += t.load(av, bv) + writer.text + consumers[k];
    text += "    mov [" + t.base + " + " + std::to_string(k * t.slot_bytes) + "], " + t.result + "\n";
  }
  text += t.exit + ".section .data\nslot: .zero 8\nout: .zero " +
          std::to_string(consumers.size() * t.slot_bytes) + "\n";
  return text;
}

elf::Image build_for(isa::Arch arch, const std::string& text) {
  bir::Module module = bir::module_from_assembly(".global _start\n_start:\n" + text, arch);
  return bir::assemble(module);
}

/// Operand pairs: zero results, sign changes, signed overflow and
/// carry/borrow at each width, AF nibble carries and both parities.
const std::vector<std::pair<std::uint64_t, std::uint64_t>>& flag_operands() {
  static const std::vector<std::pair<std::uint64_t, std::uint64_t>> kOperands = {
      {0, 0},
      {5, 5},
      {3, 5},
      {0x0F, 1},
      {0x10, 1},
      {0x7F, 1},
      {0xFF, 1},
      {0x7FFF'FFFF, 1},
      {0xFFFF'FFFF, 1},
      {0x7FFF'FFFF'FFFF'FFFF, 1},
      {0xFFFF'FFFF'FFFF'FFFF, 1},
      {0x8000'0000'0000'0000, 1},
      {0x8000'0000'8000'0080, 0xFFFF'FFFF'FFFF'FFFF},
      {0x4000'0000'0000'0000, 2},
      {0x1'0000'0000, 0x1'0000'0000},
      {0x1234, 3},
  };
  return kOperands;
}

void expect_flag_matrix(const FlagTarget& t) {
  for (const auto& [av, bv] : flag_operands()) {
    for (const FlagWriter& writer : flag_writers(t, bv)) {
      SCOPED_TRACE("a=" + support::hex_string(av) + " b=" + support::hex_string(bv) + "\n" +
                   writer.text);
      oracle::expect_cached_equals_uncached(
          build_for(t.arch, consumer_program(t, av, bv, writer)), "", std::nullopt, 0);

      // One writer, then a flag flip of each flag on the next step, or a
      // fuel pause right there followed by capture (the oracle compares
      // the full state at every pause).
      const std::string consume = t.arch == isa::Arch::kX64 ? "    pushfq\n    pop rdx\n"
                                                            : "    mvflags a2\n";
      const elf::Image image =
          build_for(t.arch, t.prologue + t.load(av, bv) + writer.text + consume + "    mov [" +
                                t.base + "], " + t.result + "\n" + t.exit +
                                ".section .data\nslot: .zero 8\nout: .zero 8\n");
      const std::uint64_t next = (t.arch == isa::Arch::kX64 ? 2 : 1) + t.load_instructions() +
                                 writer.instructions;
      oracle::MachinePair pair(image, "");
      for (std::uint32_t flag = 0; flag < 6; ++flag) {
        SCOPED_TRACE("flag flip " + std::to_string(flag));
        oracle::expect_cached_equals_uncached(
            pair, FaultSpec{FaultSpec::Kind::kFlagFlip, next, flag}, 0);
      }
      oracle::expect_cached_equals_uncached(pair, std::nullopt, next);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(LazyFlags, X64ConsumerMatrixCachedEqualsUncached) { expect_flag_matrix(x64_flags()); }

TEST(LazyFlags, Rv32iConsumerMatrixCachedEqualsUncached) { expect_flag_matrix(rv32i_flags()); }

TEST(LazyFlags, MatrixProgramsRunTheirConsumers) {
  // Guards the matrix against vacuous programs: the x64 add writer on
  // 0xFF + 1 reaches every consumer and exits 0, and its cached run took
  // specialized handlers for most of its steps.
  const FlagTarget t = x64_flags();
  const elf::Image image = build_for(t.arch, consumer_program(t, 0xFF, 1, {"    add rbx, rcx\n", 1}));
  Machine machine(image, "");
  const RunResult result = machine.run(RunConfig{});
  ASSERT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
  EXPECT_EQ(result.exit_code, 0);
  const elf::Symbol* out = image.find_symbol("out");
  ASSERT_NE(out, nullptr);
  // jcc/setcc/cmov(64)/cmov(32) for condition e: ZF is clear after 0xFF + 1
  // at 64 bits.
  const std::uint64_t je = machine.memory().read(out->value + 4 * 4 * 8, 8);
  const std::uint64_t sete = machine.memory().read(out->value + (4 * 4 + 1) * 8, 8);
  EXPECT_EQ(je, 1u) << "je must fall through";
  EXPECT_EQ(sete, 0u);
  const std::uint64_t rflags = machine.memory().read(out->value + 64 * 8, 8);
  EXPECT_EQ(rflags, Flags{}.to_rflags() | 1ULL << 4 | 1ULL << 2)
      << "0xFF + 1 sets AF and PF only";
}

}  // namespace
}  // namespace r2r::emu
