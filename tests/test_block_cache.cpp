// Decoded-block cache: the cached dispatch loop (specialized micro-op
// handlers, lazy flags) must be step-for-step indistinguishable from the
// per-step fetch+decode slow path (generic entry only) — same trace, same
// outcome, same step count and the same full machine state — on clean
// runs, on every fault kind on both targets, on self-modifying code, and
// at the edges of mapped code. Plus the
// fault-window regressions this PR pins: bit-flip planning stays within the
// instruction encoding, out-of-range specs fail loudly, and the sweep-rate
// gauges reset at sweep start.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bir/assemble.h"
#include "bir/module.h"
#include "emu/block_cache.h"
#include "emu/machine.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "isa/target.h"
#include "machine_oracle.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "synth_corpus.h"

namespace r2r {
namespace {

using emu::FaultSpec;
using emu::Machine;
using emu::RunConfig;
using emu::RunResult;
using emu::StopReason;

elf::Image build(const std::string& text, isa::Arch arch = isa::Arch::kX64) {
  bir::Module module = bir::module_from_assembly(".global _start\n_start:\n" + text, arch);
  return bir::assemble(module);
}

/// Raw image builder for boundary cases: one segment of exactly these
/// bytes, so fetch windows shorten at the segment end.
elf::Image raw_image(std::vector<std::uint8_t> code) {
  elf::Image image;
  image.entry = 0x401000;
  elf::Segment segment;
  segment.name = ".text";
  segment.vaddr = image.entry;
  segment.flags = elf::kRead | elf::kExecute;
  segment.mem_size = code.size();
  segment.data = std::move(code);
  image.segments.push_back(std::move(segment));
  return image;
}

/// The golden trace of `image` on `input` (uncached reference).
std::vector<emu::TraceEntry> golden_trace(const elf::Image& image,
                                          const std::string& input) {
  Machine machine(image, input);
  machine.set_block_cache_enabled(false);
  RunConfig config;
  config.record_trace = true;
  return machine.run(config).trace;
}

/// Every fault kind injected at a mid-trace step.
std::vector<FaultSpec> mid_trace_faults(const std::vector<emu::TraceEntry>& trace) {
  const std::uint64_t mid = trace.size() / 2;
  return {
      FaultSpec{FaultSpec::Kind::kSkip, mid, 0},
      FaultSpec{FaultSpec::Kind::kBitFlip, mid, 3},
      FaultSpec{FaultSpec::Kind::kRegisterBitFlip, mid, 0 * 64 + 5},
      FaultSpec{FaultSpec::Kind::kFlagFlip, mid, 3},
  };
}

// ---- differential oracle: builtin guests + frozen synth corpus --------------

/// Both runs of `guest` fault-free, then every fault kind at a mid-trace
/// step of the bad-input run.
void expect_guest_identical(const guests::Guest& guest) {
  const elf::Image image = guests::build_image(guest);
  oracle::expect_cached_equals_uncached(image, guest.good_input);
  oracle::expect_cached_equals_uncached(image, guest.bad_input);
  for (const FaultSpec& fault : mid_trace_faults(golden_trace(image, guest.bad_input))) {
    SCOPED_TRACE("fault kind " + std::string(sim::kind_name(fault.kind)));
    oracle::expect_cached_equals_uncached(image, guest.bad_input, fault);
  }
}

class BlockCacheDifferential : public testing::TestWithParam<isa::Arch> {};

TEST_P(BlockCacheDifferential, BuiltinGuestsFaultlessAndEveryFaultKind) {
  for (const guests::Guest* guest : guests::all_guests(GetParam())) {
    SCOPED_TRACE(guest->name);
    expect_guest_identical(*guest);
  }
}

TEST_P(BlockCacheDifferential, FrozenSynthCorpusFaultlessAndEveryFaultKind) {
  for (const synth_corpus::CorpusSeed& corpus_seed : synth_corpus::kCorpus) {
    SCOPED_TRACE("seed " + std::to_string(corpus_seed.seed));
    expect_guest_identical(guests::synth::generate(corpus_seed.seed, GetParam()));
  }
}

TEST_P(BlockCacheDifferential, FrozenSynthCorpusLoopCounterFaults) {
  // Flips of the loop counter (rcx, a1 on rv32i) and skips at up to six
  // steps inside loops (addresses the golden trace revisits), at the
  // engine's fuel: a high flip turns a counted loop into a hang, which is
  // where the cached machine fast-forwards. Full final state compared.
  obs::Counter& fast_forward = obs::Metrics::instance().counter("emu.fast_forward_steps");
  const std::uint64_t fast_forward_before = fast_forward.value();
  for (const synth_corpus::CorpusSeed& corpus_seed : synth_corpus::kCorpus) {
    SCOPED_TRACE("seed " + std::to_string(corpus_seed.seed));
    const guests::Guest guest = guests::synth::generate(corpus_seed.seed, GetParam());
    const elf::Image image = guests::build_image(guest);
    const std::vector<emu::TraceEntry> trace = golden_trace(image, guest.bad_input);
    const std::uint64_t fuel =
        trace.size() * sim::EngineConfig{}.fuel_multiplier + sim::EngineConfig{}.fuel_slack;
    std::vector<std::uint64_t> loop_steps;
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
      const auto repeats = std::count_if(trace.begin(), trace.end(), [&](const auto& entry) {
        return entry.address == trace[i].address;
      });
      if (repeats > 1) loop_steps.push_back(i);
    }
    const std::size_t stride = std::max<std::size_t>(1, loop_steps.size() / 6);
    oracle::MachinePair pair(image, guest.bad_input);
    for (std::size_t k = 0; k < loop_steps.size(); k += stride) {
      const std::uint64_t step = loop_steps[k];
      for (const FaultSpec& fault : {FaultSpec{FaultSpec::Kind::kRegisterBitFlip, step, 64 + 20},
                                     FaultSpec{FaultSpec::Kind::kRegisterBitFlip, step, 64 + 2},
                                     FaultSpec{FaultSpec::Kind::kSkip, step, 0}}) {
        SCOPED_TRACE(std::string(sim::kind_name(fault.kind)) + " at step " +
                     std::to_string(step) + ", bit " + std::to_string(fault.bit_offset));
        oracle::expect_cached_equals_uncached(pair, fault, oracle::kLongPauseStride, fuel);
      }
      if (testing::Test::HasFailure()) return;
    }
  }
  // x64 counter loops fast-forward; every rv32i block takes the generic
  // entry, so none of its loops qualifies.
  if (GetParam() == isa::Arch::kX64) {
    EXPECT_GT(fast_forward.value(), fast_forward_before);
  } else {
    EXPECT_EQ(fast_forward.value(), fast_forward_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, BlockCacheDifferential,
                         testing::Values(isa::Arch::kX64, isa::Arch::kRv32i),
                         [](const testing::TestParamInfo<isa::Arch>& info) {
                           return std::string(isa::to_string(info.param));
                         });

// ---- specialized handlers -----------------------------------------------------

/// Every specialized 64-bit shape, and nothing else but the closing
/// syscall, on values that stress it: negative and wide immediates, stores
/// over memory whose upper bytes differ, base + index*scale + disp and
/// RIP-relative operands, CF carried across inc/dec, and a loop so the
/// shapes also run from a warm cache.
elf::Image specialized_shapes_image() {
  return build(
      "    mov rsi, offset buf\n"
      "    mov rdi, 2\n"
      "    mov rcx, 3\n"
      "loop:\n"
      "    mov rax, -1\n"
      "    mov [rsi + 8], rax\n"
      "    mov [rsi + rdi*8 + 8], rax\n"
      "    mov rbx, [rsi + 8]\n"
      "    mov rdx, [rsi + rdi*8 + 8]\n"
      "    mov r11, [rip+buf]\n"
      "    movzx rbp, byte ptr [rsi + 8]\n"
      "    lea r8, [rsi + rdi*4 + 5]\n"
      "    lea r12, [rip+buf]\n"
      "    mov r9, 0x123456789\n"
      "    add r9, -7\n"
      "    and r9, -16\n"
      "    or r9, rdx\n"
      "    xor r9, rbp\n"
      "    xor r9, -1\n"
      "    cmp r9, rbx\n"
      "    cmp r9, -3\n"
      "    cmp r9, [rsi]\n"
      "    imul r9, rdx\n"
      "    add r9, 1\n"
      "    inc r9\n"
      "    dec r9\n"
      "    mov [rsi], r9\n"
      "    call helper\n"
      "    dec rcx\n"
      "    cmp rcx, 0\n"
      "    jne loop\n"
      "    jmp done\n"
      "helper:\n"
      "    xor r10, r9\n"
      "    ret\n"
      "done:\n"
      "    mov [rsi + 16], r10\n"
      "    movzx rdi, byte ptr [rsi + 16]\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "buf: .zero 64\n");
}

TEST(BlockCacheHandlers, EverySpecializedShapeMatchesTheGenericEntry) {
  oracle::expect_cached_equals_uncached(specialized_shapes_image(), "", std::nullopt, 3);
}

TEST(BlockCacheHandlers, GenericStepsCountTheStepsOffTheSpecializedHandlers) {
  // Only the closing syscall lacks a specialized handler; with the cache
  // off every step takes the generic entry.
  obs::Counter& instructions = obs::Metrics::instance().counter("emu.instructions");
  obs::Counter& generic = obs::Metrics::instance().counter("emu.generic_steps");
  for (const bool block_cache : {true, false}) {
    SCOPED_TRACE(block_cache ? "cached" : "uncached");
    const std::uint64_t instructions_before = instructions.value();
    const std::uint64_t generic_before = generic.value();
    std::uint64_t steps = 0;
    {
      Machine machine(specialized_shapes_image(), "");
      machine.set_block_cache_enabled(block_cache);
      const RunResult result = machine.run(RunConfig{});
      ASSERT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
      steps = result.steps;
    }  // the machine flushes its tallies at teardown
    EXPECT_EQ(instructions.value() - instructions_before, steps);
    EXPECT_EQ(generic.value() - generic_before, block_cache ? 1u : steps);
  }
}

// ---- self-modifying code ----------------------------------------------------

/// A guest that overwrites its own `mov rdi, 1` (48 c7 c7 01 00 00 00) with
/// `mov rdi, 9` before reaching it. The 8-byte store also rewrites the
/// first byte of the following instruction with its original value (0x48),
/// so only the immediate changes. Requires a writable .text.
elf::Image self_modifying_image() {
  elf::Image image = build(
      "    mov rbx, offset patch\n"
      "    mov rcx, 0x48\n"
      "    shl rcx, 56\n"
      "    mov rax, 0x09c7c748\n"  // little-endian 48 c7 c7 09 ("mov rdi, 9")
      "    or rax, rcx\n"
      "    mov [rbx], rax\n"
      "patch:\n"
      "    mov rdi, 1\n"
      "    mov rax, 60\n"
      "    syscall\n");
  for (elf::Segment& segment : image.segments) {
    if (segment.name == ".text") segment.flags |= elf::kWrite;
  }
  return image;
}

TEST(BlockCacheSelfModify, GuestStoreIntoCodeInvalidatesAndMatchesUncached) {
  const elf::Image image = self_modifying_image();

  // Sanity: the patched immediate is what actually executes.
  Machine machine(image, "");
  const RunResult result = machine.run(RunConfig{});
  EXPECT_EQ(result.reason, StopReason::kExited);
  EXPECT_EQ(result.exit_code, 9) << "self-modified store did not take effect";
  ASSERT_NE(machine.block_cache(), nullptr);
  EXPECT_GE(machine.block_cache()->invalidations(), 1u)
      << "store into code did not invalidate any cached block";

  oracle::expect_cached_equals_uncached(image, "");
}

TEST(BlockCacheSelfModify, HostWriteBlockBetweenRunsIsPickedUp) {
  // Pause both machines mid-run, poke the not-yet-executed `mov rdi, 1`
  // immediate through the host-side write_block (no perm checks), resume.
  const elf::Image image = build(
      "    nop\n"
      "    nop\n"
      "patch:\n"
      "    mov rdi, 1\n"
      "    mov rax, 60\n"
      "    syscall\n");
  const elf::Symbol* patch = image.find_symbol("patch");
  ASSERT_NE(patch, nullptr);
  const std::uint64_t patch_address = patch->value;
  const std::vector<std::uint8_t> patched = {0x48, 0xc7, 0xc7, 0x07, 0x00, 0x00, 0x00};

  const auto run_with_poke = [&](bool block_cache) {
    Machine machine(image, "");
    machine.set_block_cache_enabled(block_cache);
    RunConfig pause;
    pause.fuel = 1;  // executed the first nop only; `patch` not yet reached
    EXPECT_EQ(machine.run(pause).reason, StopReason::kFuelExhausted);
    machine.memory().write_block(patch_address, patched);
    return machine.run(RunConfig{});
  };

  const RunResult cached = run_with_poke(true);
  const RunResult uncached = run_with_poke(false);
  EXPECT_EQ(cached.reason, StopReason::kExited);
  EXPECT_EQ(cached.exit_code, 7);
  EXPECT_EQ(uncached.exit_code, 7);
  EXPECT_EQ(cached.steps, uncached.steps);
}

// ---- mapped-code boundary behaviour -----------------------------------------
// An instruction straddling the last mapped byte must produce the same
// deterministic crash cached and uncached; an instruction ending exactly at
// the last mapped byte must execute normally.

TEST(BlockCacheBoundary, RunningOffTheEndOfMappedCodeCrashesIdentically) {
  const elf::Image image = raw_image({0x90});  // one nop, then nothing
  oracle::expect_cached_equals_uncached(image, "");
  Machine machine(image, "");
  const RunResult result = machine.run(RunConfig{});
  EXPECT_EQ(result.reason, StopReason::kCrashed);
  EXPECT_NE(result.crash_detail.find("unmapped fetch"), std::string::npos)
      << result.crash_detail;
  EXPECT_EQ(result.steps, 2u);  // the nop, plus the attempted fetch past it
}

TEST(BlockCacheBoundary, TruncatedTrailingInstructionCrashesIdentically) {
  // nop, then a lone REX prefix: the decoder runs out of bytes inside the
  // one-byte fetch window at the segment edge.
  const elf::Image image = raw_image({0x90, 0x48});
  oracle::expect_cached_equals_uncached(image, "");
  Machine machine(image, "");
  const RunResult result = machine.run(RunConfig{});
  EXPECT_EQ(result.reason, StopReason::kCrashed);
  EXPECT_NE(result.crash_detail.find("underrun"), std::string::npos)
      << result.crash_detail;
}

TEST(BlockCacheBoundary, InstructionEndingAtLastMappedByteExecutes) {
  // mov rax, 60 / mov rdi, 5 / syscall — with .text cut to exactly these
  // bytes, the syscall's fetch window is 2 bytes long.
  const elf::Image image = raw_image({0x48, 0xc7, 0xc0, 0x3c, 0x00, 0x00, 0x00,
                                      0x48, 0xc7, 0xc7, 0x05, 0x00, 0x00, 0x00,
                                      0x0f, 0x05});
  oracle::expect_cached_equals_uncached(image, "");
  Machine machine(image, "");
  const RunResult result = machine.run(RunConfig{});
  EXPECT_EQ(result.reason, StopReason::kExited);
  EXPECT_EQ(result.exit_code, 5);
}

// ---- loop fast-forward --------------------------------------------------------
// The cached machine skips whole iterations of counted self-loops in closed
// form (docs/architecture.md); the uncached machine never does. Every shape
// runs through the full-state oracle: traced and untraced, at the fuel
// limit and one step before it, at two pause strides, and with every fault
// kind planned inside the range a skip would cover.

/// A counted loop: `setup`, then `body` closed by `jne loop`, then exit
/// with the accumulator as the status. `buf` is 4 KiB of .data.
std::string loop_program(const std::string& setup, const std::string& body,
                         isa::Arch arch = isa::Arch::kX64) {
  const bool x64 = arch == isa::Arch::kX64;
  return std::string(x64 ? "    mov rbx, offset buf\n" : "    mov s0, offset buf\n") + setup +
         "loop:\n" + body + "    jne loop\n" +
         (x64 ? "    mov rdi, rax\n    mov rax, 60\n" : "    mov a5, a0\n    mov a0, 60\n") +
         "    syscall\n.section .data\nbuf: .zero 4096\n";
}

struct LoopShape {
  const char* name;
  elf::Image image;
  unsigned body;  ///< instructions per iteration, the back edge included
};

/// Fuel for shapes and faults that hang: the engine's fuel for synth:15.
constexpr std::uint64_t kHangFuel = 5704;

std::vector<LoopShape> accepted_loops() {
  std::vector<LoopShape> shapes;
  shapes.push_back({"synth noise loop",
                    build(loop_program("    mov rax, 7\n    mov rcx, 300\n",
                                       "    add rax, 0x1234567\n    mov [rbx+8], rax\n"
                                       "    dec rcx\n    cmp rcx, 0\n")),
                    5});
  shapes.push_back({"inc to a bound, several registers, overlapping stores",
                    build(loop_program("    mov rcx, -40\n    mov rdx, 5\n    mov rsi, 9\n",
                                       "    inc rcx\n    add rdx, -3\n    mov [rbx], rdx\n"
                                       "    add rsi, 0x7fffffff\n    mov [rbx+16], rcx\n"
                                       "    mov [rbx+20], rsi\n    cmp rcx, 260\n")),
                    8});
  shapes.push_back({"add-immediate counter, a store after the exit test",
                    build(loop_program("    mov rcx, 400\n",
                                       "    add rax, 5\n    add rcx, -1\n    cmp rcx, 3\n"
                                       "    mov [rbx+24], rcx\n")),
                    5});
  shapes.push_back({"net +1 over three ops, a register written back to itself",
                    build(loop_program("    mov rcx, 0\n    mov rdx, 1\n",
                                       "    inc rcx\n    inc rcx\n    dec rcx\n    inc rdx\n"
                                       "    dec rdx\n    mov [rbx+32], rdx\n    cmp rcx, 350\n")),
                    8});
  shapes.push_back({"store through the unwritten stack pointer",
                    build(loop_program("    mov rcx, 200\n",
                                       "    add rax, 11\n    mov [rsp-16], rax\n    dec rcx\n"
                                       "    cmp rcx, 0\n")),
                    5});
  shapes.push_back({"counter wraps: hangs until the fuel runs out",
                    build(loop_program("    mov rcx, 0\n",
                                       "    dec rcx\n    mov [rbx], rcx\n    cmp rcx, 0\n")),
                    4});
  return shapes;
}

std::vector<LoopShape> declining_loops() {
  std::vector<LoopShape> shapes;
  // The store hits the loop's own (writable) code page, so every iteration
  // changes the code-write epoch.
  elf::Image own_page = build(
      "    mov rbx, offset slot\n    mov rcx, 300\nloop:\n    add rax, 3\n"
      "    mov [rbx], rax\n    dec rcx\n    cmp rcx, 0\n    jne loop\n    mov rdi, rax\n"
      "    mov rax, 60\n    syscall\nslot: .quad 0\n");
  for (elf::Segment& segment : own_page.segments) {
    if (segment.name == ".text") segment.flags |= elf::kWrite;
  }
  shapes.push_back({"store into its own code page", std::move(own_page), 5});
  shapes.push_back({"store through a base the loop writes",
                    build(loop_program("    mov rcx, 300\n",
                                       "    add rbx, 8\n    mov [rbx], rax\n    dec rcx\n"
                                       "    cmp rcx, 0\n")),
                    5});
  shapes.push_back({"a load",
                    build(loop_program("    mov rcx, 300\n",
                                       "    mov rax, [rbx]\n    add rax, 3\n    mov [rbx], rax\n"
                                       "    dec rcx\n    cmp rcx, 0\n")),
                    6});
  shapes.push_back({"rip-relative store",
                    build(loop_program("    mov rcx, 300\n",
                                       "    add rdx, 3\n    mov [rip+buf], rdx\n    dec rcx\n"
                                       "    cmp rcx, 0\n")),
                    5});
  shapes.push_back({"indexed store",
                    build(loop_program("    mov rcx, 300\n    mov rdx, 2\n",
                                       "    add rax, 3\n    mov [rbx+rdx*8], rax\n    dec rcx\n"
                                       "    cmp rcx, 0\n")),
                    5});
  shapes.push_back({"counter delta of 2",
                    build(loop_program("    mov rcx, 600\n",
                                       "    add rax, 1\n    add rcx, -2\n    cmp rcx, 0\n")),
                    4});
  shapes.push_back({"exit test is not the last flag writer",
                    build(loop_program("    mov rcx, 300\n",
                                       "    add rax, 1\n    cmp rcx, 0\n    dec rcx\n")),
                    4});
  shapes.push_back({"writes rsp",
                    build(loop_program("    mov rcx, 300\n",
                                       "    add rsp, 8\n    add rsp, -8\n    dec rcx\n"
                                       "    cmp rcx, 0\n")),
                    5});
  shapes.push_back({"rv32i",
                    build(loop_program("    mov a1, 300\n",
                                       "    add a0, 3\n    mov [s0 + 8], a0\n    add a1, -1\n"
                                       "    cmp a1, 0\n",
                                       isa::Arch::kRv32i),
                          isa::Arch::kRv32i),
                    5});
  return shapes;
}

/// The emu counter `name`'s growth over one run of a fresh cached machine
/// (the machine flushes its tallies at teardown).
std::uint64_t counted(const char* name, const elf::Image& image, const RunConfig& config) {
  obs::Counter& counter = obs::Metrics::instance().counter(name);
  const std::uint64_t before = counter.value();
  {
    Machine machine(image, "");
    machine.run(config);
  }
  return counter.value() - before;
}

/// Steps the uncached reference takes to `fuel`.
std::uint64_t reference_steps(const elf::Image& image, std::uint64_t fuel) {
  Machine machine(image, "");
  machine.set_block_cache_enabled(false);
  RunConfig config;
  config.fuel = fuel;
  return machine.run(config).steps;
}

TEST(LoopFastForward, AcceptedShapesSkipAndMatchUncached) {
  for (const LoopShape& shape : accepted_loops()) {
    SCOPED_TRACE(shape.name);
    const std::uint64_t total = reference_steps(shape.image, kHangFuel);
    RunConfig config;
    config.fuel = kHangFuel;
    EXPECT_GT(counted("emu.fast_forward_steps", shape.image, config), 10 * shape.body)
        << "the loop was not fast-forwarded";
    config.record_trace = true;
    EXPECT_EQ(counted("emu.fast_forward_steps", shape.image, config), 0u)
        << "a traced run fast-forwarded";
    oracle::MachinePair pair(shape.image, "");
    for (const std::uint64_t fuel : {total, total - 1}) {
      SCOPED_TRACE("fuel " + std::to_string(fuel));
      oracle::expect_cached_equals_uncached(pair, std::nullopt, 7, fuel);
    }
    for (std::uint64_t fuel = total / 2; fuel < total / 2 + shape.body; ++fuel) {
      SCOPED_TRACE("fuel " + std::to_string(fuel));
      oracle::expect_cached_equals_uncached(pair, std::nullopt, 0, fuel);
    }
    if (testing::Test::HasFailure()) return;
  }
}

TEST(LoopFastForward, SkipsAllButTheFirstTwoAndTheExitingIteration) {
  // Iteration 1 runs inside the entry block (the loop is reached by fall-
  // through), iteration 2 in the loop's own block, and the exiting one for
  // real: the other 297 of 300 are skipped, and the skipped steps still
  // count as instructions but never as generic-entry steps.
  const LoopShape shape = accepted_loops().front();
  RunConfig untraced;
  RunConfig traced;
  traced.record_trace = true;
  EXPECT_EQ(counted("emu.fast_forward_steps", shape.image, untraced), 297u * shape.body);
  const std::uint64_t steps = reference_steps(shape.image, untraced.fuel);
  for (const RunConfig& config : {untraced, traced}) {
    EXPECT_EQ(counted("emu.instructions", shape.image, config), steps);
    EXPECT_EQ(counted("emu.generic_steps", shape.image, config), 2u);  // mov rdi, rax; syscall
  }
  EXPECT_EQ(counted("emu.block_cache.hits", shape.image, untraced), 1u)
      << "skipped iterations look up no block";
}

TEST(LoopFastForward, FaultsInsideTheSkippedRangeMatchUncached) {
  for (const LoopShape& shape : accepted_loops()) {
    SCOPED_TRACE(shape.name);
    // One whole iteration, a third of the way in: each op faulted once.
    const std::uint64_t first = reference_steps(shape.image, kHangFuel) / 3;
    oracle::MachinePair pair(shape.image, "");
    for (std::uint64_t step = first; step < first + shape.body; ++step) {
      std::vector<FaultSpec> faults = {
          {FaultSpec::Kind::kSkip, step, 0},
          {FaultSpec::Kind::kBitFlip, step, 3},
          {FaultSpec::Kind::kBitFlip, step, 9},
          {FaultSpec::Kind::kRegisterBitFlip, step, 1 * 64 + 40},  // rcx, the counter
          {FaultSpec::Kind::kRegisterBitFlip, step, 1 * 64 + 0},
          {FaultSpec::Kind::kRegisterBitFlip, step, 0 * 64 + 63},  // rax
          {FaultSpec::Kind::kRegisterBitFlip, step, 3 * 64 + 12},  // rbx, the store base
      };
      for (std::uint32_t flag = 0; flag < 6; ++flag) {
        faults.push_back({FaultSpec::Kind::kFlagFlip, step, flag});
      }
      for (const FaultSpec& fault : faults) {
        SCOPED_TRACE(std::string(sim::kind_name(fault.kind)) + " at step " +
                     std::to_string(step) + ", bit " + std::to_string(fault.bit_offset));
        oracle::expect_cached_equals_uncached(pair, fault, 0, kHangFuel);
        oracle::expect_cached_equals_uncached(pair, fault, 0, kHangFuel - 1);
      }
      // And one fault per step with the paused replays.
      oracle::expect_cached_equals_uncached(pair, faults[3], 41, kHangFuel);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(LoopFastForward, DecliningShapesNeverSkipAndMatchUncached) {
  for (const LoopShape& shape : declining_loops()) {
    SCOPED_TRACE(shape.name);
    RunConfig config;
    config.fuel = kHangFuel;
    const RunResult reference = [&] {
      Machine machine(shape.image, "");
      machine.set_block_cache_enabled(false);
      return machine.run(config);
    }();
    ASSERT_EQ(reference.reason, StopReason::kExited) << reference.crash_detail;
    EXPECT_EQ(counted("emu.fast_forward_steps", shape.image, config), 0u);
    oracle::expect_cached_equals_uncached(shape.image, "", std::nullopt, 7, kHangFuel);
    // A counter flip mid-loop makes each one run to the fuel limit.
    const FaultSpec flip{FaultSpec::Kind::kRegisterBitFlip, reference.steps / 2, 1 * 64 + 20};
    oracle::expect_cached_equals_uncached(shape.image, "", flip, 0, kHangFuel);
    if (testing::Test::HasFailure()) return;
  }
}

// ---- cache accounting -------------------------------------------------------

TEST(BlockCache, LoopingGuestHitsTheCache) {
  const guests::Guest& guest = guests::bootloader();
  Machine machine(guests::build_image(guest), guest.bad_input);
  machine.run(RunConfig{});
  ASSERT_NE(machine.block_cache(), nullptr);
  EXPECT_GT(machine.block_cache()->hits(), 0u);
  EXPECT_GT(machine.block_cache()->misses(), 0u);
  EXPECT_GT(machine.block_cache()->hits(), machine.block_cache()->misses())
      << "a looping guest should revisit blocks far more often than build them";
}

TEST(BlockCache, ArenaClearMidRunMatchesUncached) {
  // A nop sled longer than the arena holds, run twice: building the block
  // that overflows the arena clears the cache in the middle of the run,
  // freeing every block built so far, and the run goes on from the new
  // arena exactly as it would uncached.
  const std::size_t nops =
      emu::BlockCache::kMaxCachedInstructions + 3 * emu::BlockCache::kMaxBlockInstructions;
  std::string sled;
  for (std::size_t i = 0; i < nops; i += 512) {
    sled += "    .byte 0x90";
    for (std::size_t j = i + 1; j < std::min(nops, i + 512); ++j) sled += ", 0x90";
    sled += "\n";
  }
  const elf::Image image = build("    mov rcx, 2\n"
                                 "sled:\n" + sled +
                                 "    dec rcx\n"
                                 "    cmp rcx, 0\n"
                                 "    jne sled\n"
                                 "    mov rax, 60\n"
                                 "    mov rdi, 0\n"
                                 "    syscall\n");
  Machine machine(image, "");
  const RunResult result = machine.run(RunConfig{});
  ASSERT_EQ(result.reason, StopReason::kExited) << result.crash_detail;
  const std::uint64_t blocks_per_pass = nops / emu::BlockCache::kMaxBlockInstructions + 1;
  EXPECT_GE(machine.block_cache()->misses(), 2 * blocks_per_pass)
      << "the arena clear should force the second pass to rebuild its blocks";
  oracle::expect_cached_equals_uncached(image, "", std::nullopt, 0);
}

TEST(BlockCache, DisablingTheCacheFlushesCountersToMetrics) {
  const std::uint64_t before =
      obs::Metrics::instance().counter("emu.block_cache.hits").value();
  const guests::Guest& guest = guests::bootloader();
  Machine machine(guests::build_image(guest), guest.bad_input);
  machine.run(RunConfig{});
  const std::uint64_t hits = machine.block_cache()->hits();
  ASSERT_GT(hits, 0u);
  machine.set_block_cache_enabled(false);  // flushes tallies
  EXPECT_EQ(obs::Metrics::instance().counter("emu.block_cache.hits").value(),
            before + hits);
}

// ---- fault-window regressions -----------------------------------------------

TEST(FaultPlanning, BitFlipOffsetsStayWithinEachInstructionEncoding) {
  const guests::Guest& guest = guests::bootloader();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);

  sim::FaultModels models;  // skip + bit flip
  const std::vector<sim::PlannedFault> plan =
      sim::enumerate_faults(models, refs.bad_trace);

  std::uint64_t expected = 0;
  for (const emu::TraceEntry& entry : refs.bad_trace) {
    ASSERT_GT(entry.length, 0u);
    expected += 1 + 8ull * entry.length;  // one skip + one flip per encoding bit
  }
  EXPECT_EQ(plan.size(), expected)
      << "bit-flip fan-out is not tied to the actual instruction lengths";

  for (const sim::PlannedFault& planned : plan) {
    if (planned.spec.kind != FaultSpec::Kind::kBitFlip) continue;
    const std::uint32_t bits =
        static_cast<std::uint32_t>(refs.bad_trace[planned.spec.trace_index].length) * 8;
    ASSERT_LT(planned.spec.bit_offset, bits)
        << "planned bit flip outside the instruction at trace index "
        << planned.spec.trace_index;
  }
}

TEST(FaultInjection, OutOfRangeBitFlipFailsLoudlyInBothModes) {
  // A phantom fault (offset past the fetched window) used to silently
  // execute the fault-free instruction; it must now be a loud crash.
  const elf::Image image = build(
      "    nop\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
  const FaultSpec out_of_range{FaultSpec::Kind::kBitFlip, 0, 15 * 8};
  for (const bool block_cache : {true, false}) {
    Machine machine(image, "");
    machine.set_block_cache_enabled(block_cache);
    RunConfig config;
    config.fault = out_of_range;
    const RunResult result = machine.run(config);
    EXPECT_EQ(result.reason, StopReason::kCrashed);
    EXPECT_NE(result.crash_detail.find("bit-flip fault offset"), std::string::npos)
        << result.crash_detail;
  }
}

TEST(FaultInjection, HigherOrderFlipPastAShortFetchWindowCrashesInBothModes) {
  // Order 2 on synth:15: a first bit flip (step 43, bit 15) sends control to
  // 0x4002aa, 7 bytes before the end of .text (0x4002b1). The second fault
  // was planned against golden step 44, whose encoding is longer, so its
  // bit 56 (byte 7) lies past the 7-byte fetch window. The run crashes;
  // docs/higher-order.md records why this classification stays.
  const guests::Guest guest = guests::synth::generate(15);
  const elf::Image image = guests::build_image(guest);
  const elf::Segment* text = image.find_segment(".text");
  ASSERT_NE(text, nullptr);
  ASSERT_EQ(text->vaddr + text->size_in_memory(), 0x4002b1u);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  ASSERT_GT(refs.bad_trace.size(), 44u);
  EXPECT_GT(refs.bad_trace[44].length * 8u, 56u) << "the planned offset is in range on golden";

  for (const bool block_cache : {true, false}) {
    SCOPED_TRACE(block_cache ? "cached" : "uncached");
    Machine machine(image, guest.bad_input);
    machine.set_block_cache_enabled(block_cache);
    RunConfig first;
    first.fault = FaultSpec{FaultSpec::Kind::kBitFlip, 43, 15};
    first.fuel = 44;
    ASSERT_EQ(machine.run(first).reason, StopReason::kFuelExhausted);
    EXPECT_EQ(machine.cpu().rip, 0x4002aau);

    RunConfig second;
    second.fault = FaultSpec{FaultSpec::Kind::kBitFlip, 44, 56};
    const RunResult result = machine.run(second);
    EXPECT_EQ(result.reason, StopReason::kCrashed);
    EXPECT_EQ(result.crash_detail, "execution: bit-flip fault offset past the fetched encoding");
    EXPECT_EQ(result.steps, 45u);
  }
}

// ---- engine: cached vs uncached classification ------------------------------

TEST(BlockCacheEngine, CampaignJsonIdenticalToUncachedEngine) {
  const guests::Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  sim::EngineConfig cached_config;
  cached_config.threads = 1;
  sim::EngineConfig uncached_config = cached_config;
  uncached_config.block_cache = false;

  const sim::Engine cached(image, guest.good_input, guest.bad_input, cached_config);
  const sim::Engine uncached(image, guest.good_input, guest.bad_input, uncached_config);

  sim::FaultModels models;  // skip + bit flip
  EXPECT_EQ(cached.run(models).to_json(), uncached.run(models).to_json());

  models.bit_flip = false;  // keep the pair fan-out tier-1-sized
  models.order = 2;
  models.pair_window = 4;
  EXPECT_EQ(cached.run_tuples(models).to_json(), uncached.run_tuples(models).to_json());
}

TEST(BlockCacheEngine, LoopHeavyPairSweepFastForwardsAndMatchesUncached) {
  // synth:15's counted loops are where order-2 hangs spend their steps:
  // the cached sweep fast-forwards them, and still classifies every pair
  // as the uncached engine does, pruned or exhaustive.
  const guests::Guest guest = guests::synth::generate(15);
  const elf::Image image = guests::build_image(guest);
  sim::EngineConfig cached_config;
  cached_config.threads = 1;
  sim::EngineConfig uncached_config = cached_config;
  uncached_config.block_cache = false;
  sim::EngineConfig exhaustive_config = cached_config;
  exhaustive_config.pair_outcome_reuse = false;

  sim::FaultModels models;
  models.bit_flip = false;  // skips keep the uncached leg tier-1-sized
  models.register_flip = true;
  models.register_flip_regs = {1};  // rcx, the loop counter
  models.register_flip_bit_stride = 32;  // bits 0 and 32: a high flip hangs the loop
  models.order = 2;
  models.pair_window = 2;

  obs::Counter& fast_forward = obs::Metrics::instance().counter("emu.fast_forward_steps");
  const std::uint64_t before = fast_forward.value();
  const sim::TupleCampaignResult cached =
      sim::Engine(image, guest.good_input, guest.bad_input, cached_config).run_tuples(models);
  EXPECT_GT(fast_forward.value(), before) << "the cached sweep skipped no loop iteration";
  EXPECT_GT(cached.count(sim::Outcome::kHang), 0u);
  const sim::TupleCampaignResult uncached =
      sim::Engine(image, guest.good_input, guest.bad_input, uncached_config).run_tuples(models);
  EXPECT_EQ(cached.to_json(), uncached.to_json());
  const sim::TupleCampaignResult exhaustive =
      sim::Engine(image, guest.good_input, guest.bad_input, exhaustive_config).run_tuples(models);
  EXPECT_EQ(cached.vulnerabilities, exhaustive.vulnerabilities);
  EXPECT_EQ(cached.outcome_counts, exhaustive.outcome_counts);
}

TEST(BlockCacheEngine, PairSweepIdenticalPrunedVsExhaustive) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  sim::EngineConfig pruned;
  pruned.threads = 1;
  sim::EngineConfig exhaustive = pruned;
  exhaustive.pair_outcome_reuse = false;

  sim::FaultModels models;
  models.order = 2;
  models.pair_window = 4;

  const sim::TupleCampaignResult a =
      sim::Engine(image, guest.good_input, guest.bad_input, pruned).run_tuples(models);
  const sim::TupleCampaignResult b =
      sim::Engine(image, guest.good_input, guest.bad_input, exhaustive).run_tuples(models);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
}

// ---- gauge reset (stale-rate regression) ------------------------------------

TEST(EngineGauges, SweepRateGaugesResetAtSweepStart) {
  auto& metrics = obs::Metrics::instance();
  metrics.gauge("sim.faults_per_second").set(123456789);
  metrics.gauge("sim.tuples_per_second").set(123456789);

  const guests::Guest& guest = guests::toymov();
  const sim::Engine engine(guests::build_image(guest), guest.good_input,
                           guest.bad_input);
  sim::FaultModels models;
  models.bit_flip = false;
  engine.run(models);
  EXPECT_NE(metrics.gauge("sim.faults_per_second").value(), 123456789)
      << "order-1 sweep left a stale faults/sec value standing";

  models.order = 2;
  engine.run_tuples(models);
  EXPECT_NE(metrics.gauge("sim.tuples_per_second").value(), 123456789)
      << "order-2 sweep left a stale tuples/sec value standing";
}

}  // namespace
}  // namespace r2r
