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

elf::Image build(const std::string& text) {
  bir::Module module = bir::module_from_assembly(".global _start\n_start:\n" + text);
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
