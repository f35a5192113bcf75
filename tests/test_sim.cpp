// sim:: engine — snapshot round-trips, copy-on-write page isolation,
// checkpoint policy, scheduler determinism across thread counts, and
// bit-identical classification against the seed full-replay sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "bir/assemble.h"
#include "bir/module.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "patch/pipeline.h"
#include "sim/engine.h"
#include "sim/snapshot.h"
#include "support/error.h"

namespace r2r::sim {
namespace {

using guests::Guest;

TEST(MachineSnapshot, RoundTripRestoresFullState) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);
  emu::Machine machine(image, guest.bad_input);

  emu::RunConfig config;
  config.fuel = 8;
  ASSERT_EQ(machine.run(config).reason, emu::StopReason::kFuelExhausted);

  const MachineSnapshot snapshot = capture(machine);
  EXPECT_TRUE(same_state(snapshot, machine));
  EXPECT_EQ(snapshot.steps, 8u);

  config.fuel = 16;
  ASSERT_EQ(machine.run(config).reason, emu::StopReason::kFuelExhausted);
  EXPECT_FALSE(same_state(snapshot, machine));

  restore(snapshot, machine);
  EXPECT_TRUE(same_state(snapshot, machine));
  EXPECT_EQ(machine.steps(), 8u);

  // The resumed continuation is indistinguishable from an untouched replay.
  emu::RunConfig full;
  const emu::RunResult resumed = machine.run(full);
  const emu::RunResult replayed = emu::run_image(image, guest.bad_input, full);
  EXPECT_TRUE(resumed.observably_equal(replayed));
  EXPECT_EQ(resumed.steps, replayed.steps);
}

TEST(MachineSnapshot, PagesAreSharedUntilWritten) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  emu::Machine machine(image, guest.bad_input);

  const MachineSnapshot first = capture(machine);
  const MachineSnapshot second = capture(machine);
  ASSERT_EQ(first.memory.regions.size(), second.memory.regions.size());
  for (std::size_t r = 0; r < first.memory.regions.size(); ++r) {
    const auto& a = first.memory.regions[r];
    const auto& b = second.memory.regions[r];
    ASSERT_EQ(a.pages.size(), b.pages.size());
    for (std::size_t p = 0; p < a.pages.size(); ++p) {
      EXPECT_EQ(a.pages[p].get(), b.pages[p].get())
          << "untouched page copied instead of shared";
    }
  }

  // One write dirties exactly one page; the next capture copies only it.
  const std::uint64_t address = emu::Machine::kStackBase - 64;
  machine.memory().write(address, 0xAB, 1);
  const MachineSnapshot third = capture(machine);
  std::size_t copied_pages = 0;
  for (std::size_t r = 0; r < third.memory.regions.size(); ++r) {
    const auto& before = second.memory.regions[r];
    const auto& after = third.memory.regions[r];
    for (std::size_t p = 0; p < after.pages.size(); ++p) {
      if (before.pages[p].get() != after.pages[p].get()) ++copied_pages;
    }
  }
  EXPECT_EQ(copied_pages, 1u);
}

TEST(MachineSnapshot, CowIsolatesWorkerMachines) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  emu::Machine recorder(image, guest.bad_input);
  const MachineSnapshot snapshot = capture(recorder);

  emu::Machine worker(image, guest.bad_input);
  restore(snapshot, worker);
  ASSERT_TRUE(same_state(snapshot, worker));

  // A worker scribbling over shared pages must not leak into the snapshot
  // or into the machine the snapshot was captured from.
  const std::uint64_t address = emu::Machine::kStackBase - 128;
  worker.memory().write(address, 0xDEAD, 2);
  EXPECT_FALSE(same_state(snapshot, worker));
  EXPECT_TRUE(same_state(snapshot, recorder));
  EXPECT_NE(worker.memory().read(address, 2), recorder.memory().read(address, 2));

  // Restoring rewinds the scribble.
  restore(snapshot, worker);
  EXPECT_TRUE(same_state(snapshot, worker));
}

// ---- restore paths -----------------------------------------------------------
// Restoring the snapshot the memory is synced to rewrites only the pages
// dirtied since; any other snapshot takes the full page scan. Either way
// the bytes must be exactly the snapshot's.

elf::Image assemble(const std::string& text) {
  bir::Module module = bir::module_from_assembly(".global _start\n_start:\n" + text);
  return bir::assemble(module);
}

/// Increments a .data counter through the stack and exits with it (42).
elf::Image counter_guest() {
  return assemble(
      "    mov rbx, offset counter\n"
      "    mov rax, [rbx]\n"
      "    add rax, 1\n"
      "    mov [rbx], rax\n"
      "    push rax\n"
      "    pop rdi\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "counter: .quad 41\n");
}

/// Byte-level check, independent of the dirty bits and page identities
/// that same_state() relies on.
void expect_bytes_match(const MachineSnapshot& snapshot, const emu::Machine& machine) {
  for (const auto& region : snapshot.memory.regions) {
    std::vector<std::uint8_t> expected;
    for (const auto& page : region.pages) {
      expected.insert(expected.end(), page->begin(), page->end());
    }
    EXPECT_EQ(machine.memory().read_block(region.base, region.size), expected)
        << "region at " << region.base;
  }
}

struct RestoreFixture {
  elf::Image image = counter_guest();
  emu::Machine machine{image, ""};
  std::uint64_t data = image.find_symbol("counter")->value;
  std::uint64_t stack = emu::Machine::kStackBase - 64;
};

TEST(SnapshotRestore, SyncedSnapshotUndoesWritesInTwoRegions) {
  RestoreFixture f;
  const MachineSnapshot synced = capture(f.machine);
  f.machine.memory().write(f.data, 0x1111, 8);
  f.machine.memory().write(f.stack, 0x2222, 8);
  EXPECT_FALSE(same_state(synced, f.machine));

  restore(synced, f.machine);
  EXPECT_TRUE(same_state(synced, f.machine));
  expect_bytes_match(synced, f.machine);
  EXPECT_EQ(f.machine.memory().read(f.data, 8), 41u);
  EXPECT_EQ(f.machine.memory().read(f.stack, 8), 0u);

  // A guest run dirties both regions too; each rerun from the synced
  // snapshot ends exactly as the first.
  const emu::RunResult first = f.machine.run(emu::RunConfig{});
  ASSERT_EQ(first.exit_code, 42);
  restore(synced, f.machine);
  expect_bytes_match(synced, f.machine);
  const emu::RunResult again = f.machine.run(emu::RunConfig{});
  EXPECT_TRUE(again.observably_equal(first));
  EXPECT_EQ(again.steps, first.steps);
}

TEST(SnapshotRestore, SwitchingBetweenSnapshotsLandsOnEachExactly) {
  RestoreFixture f;
  emu::Memory& memory = f.machine.memory();
  const MachineSnapshot a = capture(f.machine);
  memory.write(f.data, 1, 8);
  memory.write(f.stack, 2, 8);
  const MachineSnapshot b = capture(f.machine);
  memory.write(f.data, 3, 8);

  restore(a, f.machine);  // synced to b: full path
  expect_bytes_match(a, f.machine);
  EXPECT_EQ(memory.read(f.data, 8), 41u);
  EXPECT_EQ(memory.read(f.stack, 8), 0u);

  memory.write(f.stack, 4, 8);
  restore(b, f.machine);  // synced to a: full path
  expect_bytes_match(b, f.machine);
  EXPECT_EQ(memory.read(f.data, 8), 1u);
  EXPECT_EQ(memory.read(f.stack, 8), 2u);

  memory.write(f.data, 5, 8);
  memory.write(f.stack, 6, 8);
  restore(a, f.machine);
  expect_bytes_match(a, f.machine);
  memory.write(f.stack, 7, 8);
  restore(a, f.machine);  // synced to a: dirty pages only
  expect_bytes_match(a, f.machine);
  EXPECT_TRUE(same_state(a, f.machine));
}

TEST(SnapshotRestore, CopyOfASnapshotRestoresLikeTheOriginal) {
  RestoreFixture f;
  const MachineSnapshot original = capture(f.machine);
  const MachineSnapshot copy = original;
  EXPECT_NE(original.memory.id(), 0u);
  EXPECT_EQ(copy.memory.id(), original.memory.id());
  EXPECT_NE(capture(f.machine).memory.id(), original.memory.id());

  f.machine.memory().write(f.data, 9, 8);
  f.machine.memory().write(f.stack, 9, 8);
  restore(copy, f.machine);
  expect_bytes_match(original, f.machine);
  EXPECT_TRUE(same_state(original, f.machine));
}

TEST(SnapshotRestore, MapAfterCaptureMakesRestoreThrow) {
  emu::Memory memory;
  memory.map("a", 0x1000, 0x2000, elf::kRead | elf::kWrite);
  const emu::Memory::Snapshot snapshot = memory.capture();
  memory.write(0x1000, 7, 1);
  memory.map("b", 0x8000, 0x1000, elf::kRead | elf::kWrite);
  try {
    memory.restore(snapshot);
    ADD_FAILURE() << "restore across a changed layout did not throw";
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kInvalidArgument);
  }
  EXPECT_EQ(memory.read(0x1000, 1), 7u) << "the refused restore changed memory";
}

TEST(SnapshotRestore, SelfModifyingGuestRerunMatchesAFreshRun) {
  // The guest overwrites its own `mov rdi, 1` (48 c7 c7 01 00 00 00) with
  // `mov rdi, 9` at step 5; the 8-byte store also rewrites the next
  // instruction's first byte with its original value (0x48).
  elf::Image image = assemble(
      "    mov rbx, offset patch\n"
      "    mov rcx, 0x48\n"
      "    shl rcx, 56\n"
      "    mov rax, 0x09c7c748\n"
      "    or rax, rcx\n"
      "    mov [rbx], rax\n"
      "patch:\n"
      "    mov rdi, 1\n"
      "    mov rax, 60\n"
      "    syscall\n");
  for (elf::Segment& segment : image.segments) {
    if (segment.name == ".text") segment.flags |= elf::kWrite;
  }
  // Skipping the store runs the original code. A restore that left the
  // patched block in the decoded-block cache would exit 9 instead.
  emu::RunConfig skip_store;
  skip_store.fault = emu::FaultSpec{emu::FaultSpec::Kind::kSkip, 5, 0};
  skip_store.record_trace = true;
  const emu::RunResult fresh = emu::run_image(image, "", skip_store);
  ASSERT_EQ(fresh.exit_code, 1);

  emu::Machine machine(image, "");
  const MachineSnapshot entry = capture(machine);
  const auto expect_fresh = [&](const emu::RunResult& rerun) {
    EXPECT_TRUE(rerun.observably_equal(fresh));
    EXPECT_EQ(rerun.steps, fresh.steps);
    ASSERT_EQ(rerun.trace.size(), fresh.trace.size());
    for (std::size_t i = 0; i < rerun.trace.size(); ++i) {
      EXPECT_EQ(rerun.trace[i].address, fresh.trace[i].address);
      EXPECT_EQ(rerun.trace[i].length, fresh.trace[i].length);
    }
  };

  ASSERT_EQ(machine.run(emu::RunConfig{}).exit_code, 9);
  restore(entry, machine);  // synced to entry: dirty pages only
  expect_fresh(machine.run(skip_store));

  restore(entry, machine);
  (void)capture(machine);  // sync elsewhere, so the next restore scans
  ASSERT_EQ(machine.run(emu::RunConfig{}).exit_code, 9);
  restore(entry, machine);
  expect_fresh(machine.run(skip_store));
}

TEST(SnapshotPolicy, TunesIntervalToTraceLength) {
  const SnapshotPolicy policy;
  EXPECT_EQ(policy.interval_for(0), policy.min_interval);
  EXPECT_EQ(policy.interval_for(100), policy.min_interval);  // sqrt(100) < min
  EXPECT_EQ(policy.interval_for(10'000), 100u);
  EXPECT_EQ(policy.interval_for(1'000'000), 1000u);
  EXPECT_EQ(policy.interval_for(~0ULL), policy.max_interval);

  SnapshotPolicy fixed;
  fixed.fixed_interval = 7;
  EXPECT_EQ(fixed.interval_for(1'000'000), 7u);
}

FaultModels paper_models() {
  FaultModels models;
  models.skip = true;
  models.bit_flip = true;
  return models;
}

TEST(Engine, SerialSweepMatchesFullReplaySeedSemantics) {
  // Reference implementation: the seed faulter's O(trace²) loop — a fresh
  // machine replayed from entry for every planned fault.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);

  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const std::vector<PlannedFault> plan =
      enumerate_faults(paper_models(), refs.bad_trace);

  emu::RunConfig replay;
  replay.fuel = refs.bad_reference.steps * 8 + 4096;
  std::vector<Vulnerability> expected_vulnerabilities;
  std::map<Outcome, std::uint64_t> expected_counts;
  for (const PlannedFault& fault : plan) {
    replay.fault = fault.spec;
    const emu::RunResult run = emu::run_image(image, guest.bad_input, replay);
    const Outcome outcome = sim::classify(refs, run, 42);
    ++expected_counts[outcome];
    if (outcome == Outcome::kSuccess) {
      expected_vulnerabilities.push_back(Vulnerability{fault.spec, fault.address});
    }
  }

  const CampaignResult result = engine.run(paper_models());
  EXPECT_EQ(result.total_faults, plan.size());
  EXPECT_EQ(result.outcome_counts, expected_counts);
  EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  EXPECT_GT(result.count(Outcome::kSuccess), 0u);
}

TEST(Engine, ConvergencePruningDoesNotChangeClassification) {
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  EngineConfig pruned_config;
  pruned_config.convergence_pruning = true;
  EngineConfig full_config;
  full_config.convergence_pruning = false;

  const Engine pruned(image, guest.good_input, guest.bad_input, pruned_config);
  const Engine full(image, guest.good_input, guest.bad_input, full_config);
  const CampaignResult a = pruned.run(paper_models());
  const CampaignResult b = full.run(paper_models());

  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_GT(a.pruned_faults, 0u) << "pruning never fired on a real guest";
  EXPECT_EQ(b.pruned_faults, 0u);
}

TEST(Engine, FixedIntervalPartialFinalSegmentMatchesFullReplay) {
  // Regression for the checkpoint-chain recording loop's cumulative fuel
  // bound (chain.size() * interval): when the interval does not divide the
  // trace length, the final segment is partial and has no checkpoint at its
  // end — faults injected there must still rehydrate from the last full
  // checkpoint and classify exactly like a replay from entry.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  const std::uint64_t length = refs.bad_trace.size();
  ASSERT_GT(length, 8u);

  // Ground truth once: the seed full-replay sweep.
  const std::vector<PlannedFault> plan =
      enumerate_faults(paper_models(), refs.bad_trace);
  emu::RunConfig replay;
  replay.fuel = refs.bad_reference.steps * 8 + 4096;
  std::map<Outcome, std::uint64_t> expected_counts;
  std::vector<Vulnerability> expected_vulnerabilities;
  for (const PlannedFault& fault : plan) {
    replay.fault = fault.spec;
    const emu::RunResult run = emu::run_image(image, guest.bad_input, replay);
    const Outcome outcome = sim::classify(refs, run, 42);
    ++expected_counts[outcome];
    if (outcome == Outcome::kSuccess) {
      expected_vulnerabilities.push_back(Vulnerability{fault.spec, fault.address});
    }
  }

  for (const std::uint64_t interval :
       std::vector<std::uint64_t>{3, 7, length - 1, length + 5}) {
    SCOPED_TRACE("fixed_interval=" + std::to_string(interval));
    EngineConfig config;
    config.policy.fixed_interval = interval;
    const Engine engine(image, guest.good_input, guest.bad_input, config);
    // chain_[k] freezes step k * interval; the final partial segment (when
    // the interval does not divide the trace) has no trailing checkpoint.
    const std::uint64_t expected_snapshots = (length + interval - 1) / interval;
    EXPECT_EQ(engine.snapshot_count(), expected_snapshots);

    const CampaignResult result = engine.run(paper_models());
    EXPECT_EQ(result.outcome_counts, expected_counts);
    EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  }
}

TEST(Engine, FixedIntervalPartialFinalSegmentMatchesDefaultPairSweep) {
  // The order-2 analogue: pairs whose second fault lands in the final
  // partial segment classify identically under a misaligned fixed interval
  // and under the default policy (itself validated against brute force).
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  FaultModels models;
  models.bit_flip = false;
  models.order = 2;
  models.pair_window = 5;

  EngineConfig reference_config;
  const Engine reference(image, guest.good_input, guest.bad_input, reference_config);
  const TupleCampaignResult expected = reference.run_tuples(models);

  EngineConfig fixed;
  fixed.policy.fixed_interval = 7;
  const Engine engine(image, guest.good_input, guest.bad_input, fixed);
  ASSERT_NE(engine.references().bad_trace.size() % 7, 0u)
      << "trace length became a multiple of the interval; pick another";
  const TupleCampaignResult result = engine.run_tuples(models);
  EXPECT_EQ(result.outcome_counts, expected.outcome_counts);
  EXPECT_EQ(result.vulnerabilities, expected.vulnerabilities);
  EXPECT_EQ(result.order1.vulnerabilities, expected.order1.vulnerabilities);
}

TEST(Scheduler, ThreadCountDoesNotChangeResults) {
  for (const Guest* guest : guests::all_guests()) {
    const elf::Image image = guests::build_image(*guest);
    fault::CampaignConfig serial;
    serial.threads = 1;
    fault::CampaignConfig parallel;
    parallel.threads = 8;
    const CampaignResult one =
        fault::run_campaign(image, guest->good_input, guest->bad_input, serial).order1;
    const CampaignResult eight =
        fault::run_campaign(image, guest->good_input, guest->bad_input, parallel).order1;
    EXPECT_EQ(one.vulnerabilities, eight.vulnerabilities) << guest->name;
    EXPECT_EQ(one.outcome_counts, eight.outcome_counts) << guest->name;
    EXPECT_EQ(one.total_faults, eight.total_faults) << guest->name;
    EXPECT_EQ(one.trace_length, eight.trace_length) << guest->name;
  }
}

// ---- order-2 (double fault) campaigns through run_tuples(2) ------------------

FaultModels pair_models(std::uint64_t window) {
  FaultModels models;
  models.order = 2;
  models.pair_window = window;
  return models;
}

TEST(Engine, PairSweepEmbedsTheOrderOneSweep) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});

  const FaultModels models = pair_models(4);
  FaultModels single = models;
  single.order = 1;
  const CampaignResult order1 = engine.run(single);
  const TupleCampaignResult order2 = engine.run_tuples(models);
  EXPECT_EQ(order2.order1.outcome_counts, order1.outcome_counts);
  EXPECT_EQ(order2.order1.vulnerabilities, order1.vulnerabilities);
  EXPECT_EQ(order2.order1.total_faults, order1.total_faults);
  EXPECT_EQ(order2.order1.pruned_faults, order1.pruned_faults);

  // Each entry point rejects models of the other order — an order-2
  // request can never silently degrade into an order-1 sweep.
  EXPECT_THROW(engine.run(models), support::Error);
  EXPECT_THROW(engine.run_tuples(single), support::Error);
}

TEST(Engine, PairOutcomeReuseIsExact) {
  // Pruning soundness: outcome reuse + convergence pruning vs the fully
  // exhaustive order-2 sweep must agree bit for bit — same pair
  // vulnerability list, same per-pair outcome counts.
  const Guest& guest = guests::pincheck();
  const elf::Image image = guests::build_image(guest);

  EngineConfig pruned_config;
  EngineConfig exhaustive_config;
  exhaustive_config.convergence_pruning = false;
  exhaustive_config.pair_outcome_reuse = false;

  FaultModels models = pair_models(8);
  models.bit_flip = false;  // skip-only keeps the exhaustive sweep tractable

  const Engine pruned(image, guest.good_input, guest.bad_input, pruned_config);
  const Engine exhaustive(image, guest.good_input, guest.bad_input, exhaustive_config);
  const TupleCampaignResult a = pruned.run_tuples(models);
  const TupleCampaignResult b = exhaustive.run_tuples(models);

  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_EQ(a.order1.outcome_counts, b.order1.outcome_counts);
  EXPECT_EQ(a.order1.vulnerabilities, b.order1.vulnerabilities);
  EXPECT_GT(a.reused_tuples(), 0u) << "outcome reuse never fired on a real guest";
  EXPECT_LT(a.simulated_tuples(), a.total_tuples);
  EXPECT_EQ(b.reused_tuples(), 0u);
  EXPECT_EQ(b.simulated_tuples(), b.total_tuples);
}

TEST(Scheduler, ThreadCountDoesNotChangePairResults) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  EngineConfig serial;
  serial.threads = 1;
  EngineConfig parallel;
  parallel.threads = 8;
  const Engine one(image, guest.good_input, guest.bad_input, serial);
  const Engine eight(image, guest.good_input, guest.bad_input, parallel);

  const FaultModels models = pair_models(4);
  const TupleCampaignResult a = one.run_tuples(models);
  const TupleCampaignResult b = eight.run_tuples(models);
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities);
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  EXPECT_EQ(a.order1.vulnerabilities, b.order1.vulnerabilities);
  EXPECT_EQ(a.reused_tuples(), b.reused_tuples());
  EXPECT_EQ(a.total_tuples, b.total_tuples);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Engine, HardenedPincheckFallsOnlyToDoubleFaults) {
  // The acceptance scenario: pincheck hardened with the paper's duplication
  // patterns (the Faulter+Patcher loop) is clean under single skip faults,
  // yet the order-2 sweep still finds vulnerabilities — identically for
  // pruned vs exhaustive enumeration at 1 and 8 threads.
  const Guest& guest = guests::pincheck();
  patch::PipelineConfig pipeline_config;
  pipeline_config.campaign.models.bit_flip = false;
  pipeline_config.campaign.threads = 0;
  const patch::PipelineResult patched = patch::faulter_patcher(
      guests::build_image(guest), guest.good_input, guest.bad_input, pipeline_config);

  FaultModels models = pair_models(8);
  models.bit_flip = false;

  std::optional<TupleCampaignResult> reference;
  for (const unsigned threads : {1u, 8u}) {
    for (const bool exhaustive : {false, true}) {
      EngineConfig config;
      config.threads = threads;
      config.convergence_pruning = !exhaustive;
      config.pair_outcome_reuse = !exhaustive;
      const Engine engine(patched.hardened, guest.good_input, guest.bad_input, config);
      const TupleCampaignResult result = engine.run_tuples(models);
      if (!reference) {
        reference = result;
        continue;
      }
      EXPECT_EQ(result.vulnerabilities, reference->vulnerabilities)
          << "threads=" << threads << " exhaustive=" << exhaustive;
      EXPECT_EQ(result.outcome_counts, reference->outcome_counts)
          << "threads=" << threads << " exhaustive=" << exhaustive;
      EXPECT_EQ(result.order1.vulnerabilities, reference->order1.vulnerabilities);
    }
  }
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(reference->order1.count(Outcome::kSuccess), 0u)
      << "hardened pincheck is not order-1 clean";
  EXPECT_GE(reference->count(Outcome::kSuccess), 1u)
      << "order-2 sweep found no residual double-fault vulnerability";
  EXPECT_GE(reference->strictly_higher_order().size(), 1u)
      << "every residual pair was already visible to order 1";

  // Pair → site attribution: on this binary some residual pairs start by
  // skipping a branch, so the second fault lands off the golden trace — the
  // second hit address must track the diverged control flow (it feeds the
  // order-2 patcher), and patch_sites() merges both ends of every pair.
  bool any_diverged = false;
  for (const TupleVulnerability& pair : reference->vulnerabilities) {
    ASSERT_EQ(pair.hit_addresses.size(), 2u);
    EXPECT_EQ(pair.hit_addresses[0], pair.addresses[0]);
    if (pair.hit_addresses[1] != pair.addresses[1]) any_diverged = true;
  }
  EXPECT_TRUE(any_diverged)
      << "no pair diverged from the golden trace; hit attribution untested";
  const auto sites = reference->patch_sites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_EQ(std::adjacent_find(sites.begin(), sites.end()), sites.end());
  for (const TupleVulnerability& pair : reference->strictly_higher_order()) {
    for (const std::uint64_t hit : pair.hit_addresses) {
      EXPECT_TRUE(std::binary_search(sites.begin(), sites.end(), hit));
    }
  }
}

TEST(Engine, PairResultExportsJsonAndDerivedViews) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const TupleCampaignResult result = engine.run_tuples(pair_models(4));

  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"order\": 2,"), std::string::npos);
  EXPECT_NE(json.find("\"order1\": {"), std::string::npos);
  EXPECT_NE(json.find("\"levels\": [{\"order\": 2,"), std::string::npos);
  EXPECT_NE(json.find("\"vulnerable_tuples\""), std::string::npos);

  const auto merged = result.merged_vulnerable_tuples();
  EXPECT_LE(merged.size(), result.vulnerabilities.size());
  EXPECT_EQ(merged.empty(), result.vulnerabilities.empty());
  // Every strictly-second-order pair is a successful pair whose halves both
  // fail alone.
  for (const TupleVulnerability& pair : result.strictly_higher_order()) {
    for (const Vulnerability& single : result.order1.vulnerabilities) {
      EXPECT_FALSE(single.spec == pair.faults[0]);
      EXPECT_FALSE(single.spec == pair.faults[1]);
    }
  }
}

TEST(Engine, ExportsJsonForDownstreamTooling) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const CampaignResult result = engine.run(paper_models());

  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"total_faults\""), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
  EXPECT_NE(json.find("\"vulnerable_points\""), std::string::npos);
  EXPECT_NE(json.find("successful-fault"), std::string::npos);

  const auto merged = result.merged_by_address();
  ASSERT_FALSE(merged.empty());
  std::uint64_t merged_hits = 0;
  for (const auto& report : merged) merged_hits += report.hits;
  EXPECT_EQ(merged_hits, result.vulnerabilities.size());
  EXPECT_EQ(merged.size(), result.vulnerable_addresses().size());
}

TEST(Engine, TelemetryReflectsCheckpointChain) {
  const Guest& guest = guests::bootloader();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  EXPECT_GE(engine.snapshot_count(), 2u) << "trace long enough for checkpoints";
  EXPECT_EQ(engine.checkpoint_interval(),
            EngineConfig{}.policy.interval_for(engine.references().bad_trace.size()));

  // COW effectiveness: the chain's resident set must be far below what
  // snapshot_count full address-space copies would occupy.
  emu::Machine machine(image, guest.bad_input);
  const MachineSnapshot one_copy = capture(machine);
  std::size_t address_space_bytes = 0;
  for (const auto& region : one_copy.memory.regions) address_space_bytes += region.size;
  const std::size_t full_copies = engine.snapshot_count() * address_space_bytes;
  EXPECT_GT(engine.chain_unique_pages(), 0u);
  EXPECT_GT(engine.chain_resident_bytes(), 0u);
  EXPECT_LT(engine.chain_resident_bytes(), full_copies / 4)
      << "checkpoint chain is not sharing pages";
}

}  // namespace
}  // namespace r2r::sim
