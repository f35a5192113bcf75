// sim:: order-k tuple sweeps — enumeration counts, bit-identical
// classification against brute-force two- and three-leg replay oracles,
// exactness of the recursive outcome-reuse pruning at every thread count
// (orders 2 and 3), the pair-window reconvergence check against a
// step-by-step replay oracle, and seeded reproducibility of the budgeted
// (sampled) top level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "sim/engine.h"
#include "sim/snapshot.h"
#include "support/error.h"
#include "synth_corpus.h"

namespace r2r::sim {
namespace {

using guests::Guest;

FaultModels tuple_models(unsigned order, std::uint64_t window) {
  FaultModels models;
  models.order = order;
  models.pair_window = window;
  return models;
}

/// Models with exactly one knob on — the per-model axis of the exactness
/// property. `name` must come from fault_model_names().
FaultModels single_model(std::string_view name, unsigned order, std::uint64_t window) {
  FaultModels models = tuple_models(order, window);
  models.skip = false;
  models.bit_flip = false;
  EXPECT_TRUE(set_fault_model(models, name, true)) << name;
  return models;
}

/// The classification-bearing fields two sweeps of the same tuple set must
/// agree on bit for bit, whatever the pruning mode. Reuse telemetry
/// (reused_suffix / reused_prefix / simulated / converged) is *meant* to
/// differ between a pruned and an exhaustive sweep and is excluded.
void expect_same_classification(const TupleCampaignResult& a,
                                const TupleCampaignResult& b, const char* where) {
  EXPECT_EQ(a.order, b.order) << where;
  EXPECT_EQ(a.vulnerabilities, b.vulnerabilities) << where;
  EXPECT_EQ(a.outcome_counts, b.outcome_counts) << where;
  EXPECT_EQ(a.total_tuples, b.total_tuples) << where;
  EXPECT_EQ(a.enumerated_tuples, b.enumerated_tuples) << where;
  EXPECT_EQ(a.sampled, b.sampled) << where;
  EXPECT_EQ(a.trace_length, b.trace_length) << where;
  EXPECT_EQ(a.order1.vulnerabilities, b.order1.vulnerabilities) << where;
  EXPECT_EQ(a.order1.outcome_counts, b.order1.outcome_counts) << where;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << where;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].order, b.levels[i].order) << where;
    EXPECT_EQ(a.levels[i].enumerated, b.levels[i].enumerated) << where;
    EXPECT_EQ(a.levels[i].classified, b.levels[i].classified) << where;
    EXPECT_EQ(a.levels[i].successful, b.levels[i].successful) << where;
    EXPECT_EQ(a.levels[i].sampled, b.levels[i].sampled) << where;
  }
}

// ---- enumeration ------------------------------------------------------------

/// Faults the plan of `models` places at each trace index.
std::vector<std::uint64_t> faults_per_index(const FaultModels& models,
                                            const std::vector<emu::TraceEntry>& trace) {
  std::vector<std::uint64_t> faults_at(trace.size(), 0);
  for (const PlannedFault& fault : enumerate_faults(models, trace)) {
    ++faults_at[fault.spec.trace_index];
  }
  return faults_at;
}

TEST(TupleEnumeration, CountMatchesBruteForcePairAndTripleCounts) {
  const std::vector<emu::TraceEntry> trace = {
      {0x10, 2}, {0x12, 1}, {0x13, 3}, {0x16, 1}, {0x17, 2}, {0x19, 1}};

  // Order 2: brute-force pair count over the per-index fault groups.
  for (const std::uint64_t window : {0ULL, 1ULL, 2ULL, 4ULL}) {
    const FaultModels models = tuple_models(2, window);
    const std::vector<std::uint64_t> faults_at = faults_per_index(models, trace);
    std::uint64_t expected = 0;
    for (std::size_t t1 = 0; t1 < trace.size(); ++t1) {
      for (std::size_t t2 = t1 + 1; t2 < trace.size() && t2 - t1 <= window; ++t2) {
        expected += faults_at[t1] * faults_at[t2];
      }
    }
    EXPECT_EQ(count_fault_tuples(models, trace), expected) << "window " << window;
    EXPECT_EQ(expected == 0, window == 0) << "window " << window;
  }

  // Order 3: brute-force triple count over the per-index fault groups.
  for (const std::uint64_t window : {1ULL, 2ULL, 3ULL}) {
    const FaultModels models = tuple_models(3, window);
    const std::vector<std::uint64_t> faults_at = faults_per_index(models, trace);
    std::uint64_t expected = 0;
    for (std::size_t t1 = 0; t1 < trace.size(); ++t1) {
      for (std::size_t t2 = t1 + 1; t2 < trace.size() && t2 - t1 <= window; ++t2) {
        for (std::size_t t3 = t2 + 1; t3 < trace.size() && t3 - t2 <= window; ++t3) {
          expected += faults_at[t1] * faults_at[t2] * faults_at[t3];
        }
      }
    }
    EXPECT_EQ(count_fault_tuples(models, trace), expected) << "window " << window;
    EXPECT_GT(expected, 0u) << "window " << window;
  }
}

// ---- ground truth -----------------------------------------------------------

TEST(Engine, PairSweepMatchesBruteForceDoubleReplay) {
  // Ground truth for order 2: a fresh machine replayed from entry for every
  // pair — run with the first fault armed up to the second injection point,
  // then resume with the second fault armed. No snapshots, no pruning. The
  // sweep's pair classification and hit-address attribution must match
  // this replay bit for bit, under both of the paper's fault models.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);

  const FaultModels models = tuple_models(2, 3);
  const std::vector<PlannedFault> plan = enumerate_faults(models, refs.bad_trace);
  const std::uint64_t fuel = refs.bad_reference.steps * 8 + 4096;
  std::map<Outcome, std::uint64_t> expected_counts;
  std::vector<TupleVulnerability> expected_vulnerabilities;
  // The plan ascends by trace index, so this walks pairs in canonical order.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::uint64_t t1 = plan[i].spec.trace_index;
    for (std::size_t j = i + 1; j < plan.size(); ++j) {
      const std::uint64_t t2 = plan[j].spec.trace_index;
      if (t2 == t1) continue;
      if (t2 - t1 > models.pair_window) break;
      emu::Machine machine(image, guest.bad_input);
      emu::RunConfig leg1;
      leg1.fault = plan[i].spec;
      leg1.fuel = t2;  // fuel is an absolute step budget: pause before t2
      emu::RunResult run = machine.run(leg1);
      // Where the second fault actually lands: the paused machine's rip, or
      // the golden address when the first fault's run already terminated.
      std::uint64_t hit2 = plan[j].address;
      if (run.reason == emu::StopReason::kFuelExhausted) {
        hit2 = machine.cpu().rip;
        emu::RunConfig leg2;
        leg2.fault = plan[j].spec;
        leg2.fuel = fuel;
        run = machine.run(leg2);
      }
      const Outcome outcome = sim::classify(refs, run, patch::kDetectedExit);
      ++expected_counts[outcome];
      if (outcome == Outcome::kSuccess) {
        expected_vulnerabilities.push_back(
            TupleVulnerability{{plan[i].spec, plan[j].spec},
                               {plan[i].address, plan[j].address},
                               {plan[i].address, hit2}});
      }
    }
  }

  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const TupleCampaignResult result = engine.run_tuples(models);
  EXPECT_EQ(result.outcome_counts, expected_counts);
  EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  EXPECT_EQ(result.total_tuples, count_fault_tuples(models, refs.bad_trace));
  EXPECT_FALSE(result.sampled);
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_EQ(result.levels[0].successful, result.count(Outcome::kSuccess));
  EXPECT_GT(result.count(Outcome::kSuccess), 0u);
}

TEST(Engine, TupleSweepMatchesBruteForceTripleReplay) {
  // Ground truth for order 3: a fresh machine replayed from entry for every
  // triple — first fault armed up to the second injection point, second up
  // to the third, then run to completion. No snapshots, no reuse. The
  // sweep's triple classification and hit-address attribution must match
  // this replay bit for bit.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);

  FaultModels models = tuple_models(3, 3);
  models.bit_flip = false;  // skip-only keeps the replay oracle tractable

  const std::vector<PlannedFault> plan = enumerate_faults(models, refs.bad_trace);
  // Skip-only: exactly one fault per trace index, in ascending order.
  ASSERT_EQ(plan.size(), refs.bad_trace.size());

  const std::uint64_t fuel = refs.bad_reference.steps * 8 + 4096;
  // The golden state before every step, to tell the triples whose first
  // fault is masked by the time the second strikes.
  std::vector<MachineSnapshot> golden;
  {
    emu::Machine machine(image, guest.bad_input);
    for (std::uint64_t s = 0; s < plan.size(); ++s) {
      emu::RunConfig config;
      config.fuel = s;
      machine.run(config);
      golden.push_back(capture(machine));
    }
  }
  std::map<Outcome, std::uint64_t> expected_counts;
  std::vector<TupleVulnerability> expected_vulnerabilities;
  // Successful triples whose first fault is masked before the second
  // strikes (the sweep may reuse their tail's outcome) and whose third
  // fault strikes off its golden address: their hit addresses must come
  // from the tail's run, not from the golden trace.
  std::uint64_t masked_first_off_golden_third = 0;
  const std::uint64_t window = models.pair_window;
  for (std::size_t t1 = 0; t1 < plan.size(); ++t1) {
    for (std::size_t t2 = t1 + 1; t2 < plan.size() && t2 - t1 <= window; ++t2) {
      for (std::size_t t3 = t2 + 1; t3 < plan.size() && t3 - t2 <= window; ++t3) {
        emu::Machine machine(image, guest.bad_input);
        emu::RunConfig leg1;
        leg1.fault = plan[t1].spec;
        leg1.fuel = t2;  // fuel is an absolute step budget: pause before t2
        emu::RunResult run = machine.run(leg1);
        // Where faults 2 and 3 actually land: the paused machine's rip, or
        // the golden address when the run already terminated.
        std::uint64_t hit2 = plan[t2].address;
        std::uint64_t hit3 = plan[t3].address;
        bool first_masked = false;
        if (run.reason == emu::StopReason::kFuelExhausted) {
          first_masked = same_state(golden[t2], machine);
          hit2 = machine.cpu().rip;
          emu::RunConfig leg2;
          leg2.fault = plan[t2].spec;
          leg2.fuel = t3;
          run = machine.run(leg2);
          if (run.reason == emu::StopReason::kFuelExhausted) {
            hit3 = machine.cpu().rip;
            emu::RunConfig leg3;
            leg3.fault = plan[t3].spec;
            leg3.fuel = fuel;
            run = machine.run(leg3);
          }
        }
        const Outcome outcome = sim::classify(refs, run, patch::kDetectedExit);
        ++expected_counts[outcome];
        if (outcome == Outcome::kSuccess) {
          expected_vulnerabilities.push_back(TupleVulnerability{
              {plan[t1].spec, plan[t2].spec, plan[t3].spec},
              {plan[t1].address, plan[t2].address, plan[t3].address},
              {plan[t1].address, hit2, hit3}});
          if (first_masked && hit3 != plan[t3].address) ++masked_first_off_golden_third;
        }
      }
    }
  }
  EXPECT_GT(masked_first_off_golden_third, 0u);

  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  const TupleCampaignResult result = engine.run_tuples(models);
  EXPECT_EQ(result.outcome_counts, expected_counts);
  EXPECT_EQ(result.vulnerabilities, expected_vulnerabilities);
  EXPECT_EQ(result.total_tuples, count_fault_tuples(models, refs.bad_trace));
  EXPECT_GT(result.count(Outcome::kSuccess), 0u);
  EXPECT_GT(result.levels.back().reused_suffix, 0u);
}

// ---- exactness of the recursive pruning (the satellite-1 property) ----------

/// One case of the pruned-vs-exhaustive / 1-vs-8-threads property. Runs
/// the order-k sweep three ways — pruned at 1 thread, pruned at 8 threads,
/// exhaustive (outcome reuse off) at 1 thread — and requires:
///   * the 1-thread and 8-thread pruned sweeps byte-agree on the whole
///     JSON document;
///   * the pruned and exhaustive sweeps agree on every
///     classification-bearing field (telemetry legitimately differs).
/// Returns how many tuples the pruned sweep classified by reuse, so the
/// caller can assert the property is not vacuous across its case set (a
/// single case may legitimately see zero reuse — e.g. flag flips whose
/// first fault never reconverges before the second strikes).
std::uint64_t expect_pruning_exactness(const elf::Image& image, const Guest& guest,
                                       const FaultModels& models) {
  EngineConfig one;
  one.threads = 1;
  EngineConfig eight;
  eight.threads = 8;
  EngineConfig exhaustive;
  exhaustive.threads = 1;
  exhaustive.pair_outcome_reuse = false;

  const Engine engine_one(image, guest.good_input, guest.bad_input, one);
  const Engine engine_eight(image, guest.good_input, guest.bad_input, eight);
  const Engine engine_exhaustive(image, guest.good_input, guest.bad_input, exhaustive);

  const TupleCampaignResult pruned_one = engine_one.run_tuples(models);
  const TupleCampaignResult pruned_eight = engine_eight.run_tuples(models);
  const TupleCampaignResult flat = engine_exhaustive.run_tuples(models);

  EXPECT_EQ(pruned_one.to_json(), pruned_eight.to_json())
      << "1-thread and 8-thread sweeps diverge";
  expect_same_classification(pruned_one, flat, "pruned vs exhaustive");
  EXPECT_EQ(flat.reused_tuples(), 0u) << "exhaustive sweep reused outcomes";
  std::uint64_t reused = 0;
  for (const TupleLevelSummary& level : pruned_one.levels) {
    reused += level.reused_suffix + level.reused_prefix;
  }
  return reused;
}

TEST(Engine, Order3PruningIsExactUnderEveryFaultModel) {
  // The per-model axis runs on the smallest builtin guest: the exhaustive
  // leg simulates every level-2 pair and every sampled triple, and the
  // bit/register-flip fan-outs make that quadratic in per-index faults.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  std::uint64_t reused = 0;
  for (const std::string_view name : fault_model_names()) {
    for (const unsigned order : {2u, 3u}) {
      SCOPED_TRACE(std::string(name) + " order " + std::to_string(order));
      FaultModels models = single_model(name, order, 2);
      // Big per-index fan-outs (bit/register flips) explode the top level; a
      // budget switches it to seeded sampling, which the exactness contract
      // covers too (identical sampled set in every mode).
      models.max_tuples = 1000;
      reused += expect_pruning_exactness(image, guest, models);
    }
  }
  // The pruning must actually fire somewhere, or the property is vacuous.
  EXPECT_GT(reused, 0u);
}

TEST(Engine, Order3PruningIsExactOnEveryBuiltinGuest) {
  std::uint64_t reused = 0;
  for (const Guest* guest : guests::all_guests()) {
    const elf::Image image = guests::build_image(*guest);
    for (const unsigned order : {2u, 3u}) {
      SCOPED_TRACE(guest->name + " order " + std::to_string(order));
      FaultModels models = tuple_models(order, 2);
      models.bit_flip = false;  // the paper's skip model
      models.max_tuples = 1000;
      reused += expect_pruning_exactness(image, *guest, models);
    }
  }
  EXPECT_GT(reused, 0u);
}

TEST(Engine, Order3PruningIsExactOnTheFrozenSynthCorpus) {
  std::uint64_t reused = 0;
  for (const synth_corpus::CorpusSeed& c : synth_corpus::kCorpus) {
    const Guest guest = guests::synth::generate(c.seed);
    const elf::Image image = guests::build_image(guest);
    for (const unsigned order : {2u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(c.seed) + " (" + c.why + ") order " +
                   std::to_string(order));
      FaultModels models = tuple_models(order, 2);
      models.bit_flip = false;  // the paper's skip model
      models.max_tuples = 1000;
      reused += expect_pruning_exactness(image, guest, models);
    }
  }
  EXPECT_GT(reused, 0u);
}

TEST(Engine, PairWindowReuseIsExactOnAWholeSynthBitFlipLevel) {
  // Where the pair-window check fires most: skip and bit flips at window 4
  // on a synth guest, the whole level (268,142 pairs; the window check
  // reuses about 21 k of them, the boundary compare alone under 1 k).
  const Guest guest = guests::synth::generate(36);
  const elf::Image image = guests::build_image(guest);
  const FaultModels models = tuple_models(2, 4);
  EXPECT_GT(expect_pruning_exactness(image, guest, models), 0u);

  // Phase A under the window check is still the order-1 sweep.
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  FaultModels single = models;
  single.order = 1;
  const CampaignResult order1 = engine.run(single);
  const TupleCampaignResult pairs = engine.run_tuples(models);
  EXPECT_EQ(pairs.order1.vulnerabilities, order1.vulnerabilities);
  EXPECT_EQ(pairs.order1.to_json(), order1.to_json());
}

TEST(Engine, PairWindowReusesEveryPairPastAMaskedWrite) {
  // `mov rbx, 5` is overwritten by the next instruction, so skipping it
  // leaves rbx wrong for one step: from the step after the overwrite on,
  // the run is in the golden state. `mov rcx, 3` is overwritten two steps
  // later too, but a store in between keeps its skip visible in memory.
  // The trace is shorter than one checkpoint interval, so no boundary
  // compare runs and every reused_suffix pair comes from the window check.
  Guest guest;
  guest.name = "masked-write";
  guest.good_input = "A";
  guest.bad_input = "B";
  guest.assembly =
      ".global _start\n"
      ".section .text\n"
      "_start:\n"
      "    mov rax, 0\n"
      "    mov rdi, 0\n"
      "    mov rsi, offset buf\n"
      "    mov rdx, 1\n"
      "    syscall\n"
      "    mov rbx, 5\n"  // step 5: the masked write
      "    mov rbx, 7\n"
      "    mov rcx, 3\n"  // step 7: overwritten, but stored first
      "    mov qword ptr [rsi + 8], rcx\n"
      "    mov rcx, 9\n"
      "    movzx rdi, byte ptr [rsi]\n"
      "    mov rdx, qword ptr [rsi + 8]\n"
      "    add rdi, rdx\n"
      "    mov rax, 60\n"
      "    syscall\n"
      ".section .data\n"
      "buf: .zero 16\n";
  constexpr std::uint64_t kMaskedWrite = 5;
  constexpr std::uint64_t kStoredWrite = 7;
  const elf::Image image = guests::build_image(guest);
  const FaultModels models = tuple_models(2, 4);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});
  ASSERT_EQ(engine.snapshot_count(), 1u);
  const std::vector<emu::TraceEntry>& trace = engine.references().bad_trace;
  ASSERT_EQ(trace.size(), 15u);
  const std::vector<PlannedFault> plan = enumerate_faults(models, trace);

  // Oracle: the golden state at every step, and each first fault replayed
  // from entry step by step through its window.
  emu::Machine machine(image, guest.bad_input);
  const MachineSnapshot entry = capture(machine);
  std::vector<MachineSnapshot> golden;
  for (std::uint64_t s = 0; s < trace.size(); ++s) {
    emu::RunConfig config;
    config.fuel = s;
    machine.run(config);
    golden.push_back(capture(machine));
  }
  std::uint64_t expected_suffix = 0;
  for (const PlannedFault& first : plan) {
    const std::uint64_t t1 = first.spec.trace_index;
    const std::uint64_t last = std::min<std::uint64_t>(t1 + models.pair_window, trace.size() - 1);
    std::optional<std::uint64_t> masked;
    restore(entry, machine);
    for (std::uint64_t s = t1 + 1; s <= last && !masked; ++s) {
      emu::RunConfig leg;
      leg.fault = first.spec;
      leg.fuel = s;
      if (machine.run(leg).reason != emu::StopReason::kFuelExhausted) break;
      if (same_state(golden[s], machine)) masked = s;
    }
    if (first.spec.kind == emu::FaultSpec::Kind::kSkip) {
      if (t1 == kMaskedWrite) {
        EXPECT_EQ(masked, std::optional(kMaskedWrite + 2));
      }
      if (t1 == kStoredWrite) {
        EXPECT_EQ(masked, std::nullopt);
      }
    }
    if (!masked) continue;
    for (const PlannedFault& second : plan) {
      const std::uint64_t t2 = second.spec.trace_index;
      if (t2 >= *masked && t2 <= last) ++expected_suffix;
    }
  }

  const TupleCampaignResult result = engine.run_tuples(models);
  ASSERT_EQ(result.levels.size(), 1u);
  EXPECT_EQ(result.levels[0].reused_suffix, expected_suffix);
  EXPECT_GT(expected_suffix, 0u);
  expect_pruning_exactness(image, guest, models);
}

// ---- seeded sampling (the satellite-2 property) -----------------------------

TEST(Engine, SampledSweepIsSeedDeterministicAcrossThreadsAndPruning) {
  // toymov under bit flips at window 8 is a multi-million-triple space; a
  // 2000-tuple budget forces sampling. The sampled set is a pure function
  // of (plan, budget, seed) — never of the thread count or pruning mode —
  // so the same seed must reproduce the same result everywhere.
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);

  FaultModels models = tuple_models(3, 8);
  models.max_tuples = 2000;

  EngineConfig one;
  one.threads = 1;
  EngineConfig eight;
  eight.threads = 8;
  EngineConfig exhaustive;
  exhaustive.threads = 8;
  exhaustive.pair_outcome_reuse = false;

  const TupleCampaignResult serial =
      Engine(image, guest.good_input, guest.bad_input, one).run_tuples(models);
  ASSERT_TRUE(serial.sampled);
  EXPECT_EQ(serial.total_tuples, models.max_tuples);
  EXPECT_GT(serial.enumerated_tuples, models.max_tuples);
  EXPECT_EQ(serial.max_tuples, models.max_tuples);
  EXPECT_EQ(serial.sample_seed, models.sample_seed);
  ASSERT_EQ(serial.levels.size(), 2u);
  EXPECT_TRUE(serial.levels.back().sampled);
  EXPECT_FALSE(serial.levels.front().sampled) << "intermediate level sampled";
  EXPECT_EQ(serial.levels.back().classified, models.max_tuples);

  // Which tuples the seed draws is pinned too, not only that it repeats: a
  // change to how the sampler hands its draws over must keep the set.
  EXPECT_EQ(serial.enumerated_tuples, 65'477'616u);
  EXPECT_EQ(serial.count(Outcome::kNoEffect), 44u);
  EXPECT_EQ(serial.count(Outcome::kSuccess), 3u);
  EXPECT_EQ(serial.count(Outcome::kCrash), 1'801u);
  EXPECT_EQ(serial.count(Outcome::kOtherBehavior), 152u);
  EXPECT_EQ(serial.patch_sites(),
            (std::vector<std::uint64_t>{0x40002b, 0x400033, 0x40005a}));

  // Same seed, 8 threads: byte-identical.
  const TupleCampaignResult parallel =
      Engine(image, guest.good_input, guest.bad_input, eight).run_tuples(models);
  EXPECT_EQ(serial.to_json(), parallel.to_json());

  // Same seed, outcome reuse off: the exhaustive sweep classifies the same
  // sampled set, so every classification field agrees.
  const TupleCampaignResult flat =
      Engine(image, guest.good_input, guest.bad_input, exhaustive).run_tuples(models);
  expect_same_classification(serial, flat, "sampled pruned vs sampled exhaustive");

  // A different seed draws a different subset — pin that the knob matters.
  FaultModels reseeded = models;
  reseeded.sample_seed = models.sample_seed + 1;
  const TupleCampaignResult other =
      Engine(image, guest.good_input, guest.bad_input, one).run_tuples(reseeded);
  ASSERT_TRUE(other.sampled);
  EXPECT_EQ(other.total_tuples, models.max_tuples);
  // Strip the sample_seed line (the one intended difference) and compare.
  const auto without_seed_line = [](const TupleCampaignResult& r) {
    std::string json = r.to_json();
    const std::size_t at = json.find("\"sample_seed\"");
    EXPECT_NE(at, std::string::npos);
    const std::size_t end = json.find('\n', at);
    json.erase(at, end - at);
    return json;
  };
  EXPECT_NE(without_seed_line(serial), without_seed_line(other))
      << "different sample seeds drew identical samples";
}

// ---- guard rails ------------------------------------------------------------

TEST(Engine, TupleSweepRejectsWrongOrdersAndOverBudgetLevels) {
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  const Engine engine(image, guest.good_input, guest.bad_input, EngineConfig{});

  // Each entry point rejects models of the other orders — an order-3
  // request can never silently degrade into a lower-order sweep.
  EXPECT_THROW(engine.run_tuples(tuple_models(1, 4)), support::Error);
  EXPECT_THROW(engine.run(tuple_models(3, 4)), support::Error);
  EXPECT_THROW(engine.run(tuple_models(2, 4)), support::Error);

  // An unbudgeted top level over the planning cap must refuse, not OOM.
  FaultModels wide = tuple_models(3, 8);  // bit flips: tens of millions of triples
  try {
    engine.run_tuples(wide);
    FAIL() << "over-budget top level did not throw";
  } catch (const support::Error& error) {
    EXPECT_NE(std::string(error.what()).find("max_planned_tuples"), std::string::npos)
        << error.what();
  }

  // Only the top level may sample: a budget cannot rescue an intermediate
  // level that exceeds the cap.
  EngineConfig tiny;
  tiny.max_planned_tuples = 4;
  const Engine capped(image, guest.good_input, guest.bad_input, tiny);
  FaultModels budgeted = tuple_models(3, 2);
  budgeted.bit_flip = false;
  budgeted.max_tuples = 2;
  EXPECT_THROW(capped.run_tuples(budgeted), support::Error);
}

TEST(Campaign, RejectsOrdersAboveTheCampaignCap) {
  fault::CampaignConfig config;
  config.models.order = fault::kMaxCampaignOrder + 1;
  const Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  EXPECT_THROW(
      fault::run_campaign(image, guest.good_input, guest.bad_input, config),
      support::Error);
}

}  // namespace
}  // namespace r2r::sim
