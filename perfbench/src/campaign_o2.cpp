// campaign_o2: the densest sweep in the repository. One order-2 sweep of
// x64 synth:15 under skip + bit-flip with pair window 4, through
// sim::Engine::run_tuples on one thread. Emulator dispatch, snapshot
// restore, classification and outcome reuse do almost all the work.
#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>

#include "elf/image.h"
#include "emu/machine.h"
#include "guests/synth.h"
#include "patch/detected_exit.h"
#include "workload.h"

namespace perfbench {
namespace {

using r2r::emu::FaultSpec;

// Seed-commit references. The counts also follow from the benchmark's own
// enumeration of the golden trace; the digest pins the sorted vulnerability
// lists and outcome counts of both levels.
constexpr std::uint64_t kFaults = 8417;
constexpr std::uint64_t kSuccessfulFaults = 11;
constexpr std::uint64_t kPairs = 1381906;
constexpr std::uint64_t kSuccessfulPairs = 1086;
constexpr std::uint64_t kSweepDigest = 0xde0ce972b0722d5fULL;

// Smoke runs classify a seeded sample of the pair level.
constexpr std::uint64_t kSmokePairs = 2000;
// Pairs and single faults outside the vulnerability lists replayed per run.
constexpr std::uint64_t kNegativeSamples = 1000;

using FaultKey = std::tuple<int, std::uint64_t, std::uint32_t>;
FaultKey key(const FaultSpec& f) {
  return {static_cast<int>(f.kind), f.trace_index, f.bit_offset};
}

std::uint64_t sweep_digest(const r2r::sim::TupleCampaignResult& result) {
  std::vector<FaultKey> singles;
  for (const auto& v : result.order1.vulnerabilities) singles.push_back(key(v.spec));
  std::sort(singles.begin(), singles.end());
  std::vector<std::vector<FaultKey>> sets;
  for (const auto& v : result.vulnerabilities) {
    std::vector<FaultKey> set;
    for (const FaultSpec& f : v.faults) set.push_back(key(f));
    sets.push_back(std::move(set));
  }
  std::sort(sets.begin(), sets.end());
  Digest digest;
  const auto add_key = [&](const FaultKey& k) {
    digest.add(static_cast<std::uint64_t>(std::get<0>(k)));
    digest.add(std::get<1>(k));
    digest.add(std::get<2>(k));
  };
  for (const FaultKey& k : singles) add_key(k);
  for (const auto& [outcome, count] : result.order1.outcome_counts) {
    digest.add(r2r::sim::to_string(outcome));
    digest.add(count);
  }
  for (const auto& set : sets) {
    for (const FaultKey& k : set) add_key(k);
  }
  for (const auto& [outcome, count] : result.outcome_counts) {
    digest.add(r2r::sim::to_string(outcome));
    digest.add(count);
  }
  return digest.value();
}

/// The independent reference: a fresh, uncached machine run from entry
/// with each fault armed in turn. No snapshots, no pruning, no reuse.
r2r::emu::RunResult replay(const r2r::elf::Image& image, const std::string& input,
                           const std::vector<FaultSpec>& faults, std::uint64_t fuel) {
  r2r::emu::Machine machine(image, input);
  machine.set_block_cache_enabled(false);
  r2r::emu::RunResult result;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    r2r::emu::RunConfig config;
    config.fault = faults[i];
    config.fuel = i + 1 < faults.size() ? faults[i + 1].trace_index : fuel;
    result = machine.run(config);
    if (result.reason != r2r::emu::StopReason::kFuelExhausted) break;
  }
  return result;
}

class CampaignO2 final : public Workload {
 public:
  explicit CampaignO2(const Options& options) : options_(options) {}

  void setup() override {
    guest_ = campaign_guest();
    image_ = r2r::guests::build_image(guest_);
    engine_ = std::make_unique<r2r::sim::Engine>(image_, guest_.good_input,
                                                 guest_.bad_input, single_thread_engine());
  }

  void pass(Tracer& tracer) override {
    r2r::sim::FaultModels models = campaign_models();
    if (options_.smoke) {
      models.max_tuples = kSmokePairs;
      models.sample_seed = options_.seed;
    }
    Tracer::Span span(tracer, "sim.run_tuples");
    result_ = engine_->run_tuples(models);
  }

  void check(Checks& checks, bool first) override {
    const auto& r = result_;
    const std::uint64_t digest = sweep_digest(r);
    if (!first) {
      checks.expect(digest == first_digest_, "campaign_o2: sweep differs from the first pass");
      return;
    }
    first_digest_ = digest;
    const auto& level = r.levels.back();
    checks.expect(r.order1.total_faults == kFaults, "campaign_o2: order-1 fault count");
    checks.expect(r.order1.vulnerabilities.size() == kSuccessfulFaults,
                  "campaign_o2: order-1 successful faults");
    checks.expect(r.enumerated_tuples == kPairs, "campaign_o2: pair count");
    checks.expect(r.levels.size() == 1 && level.order == 2, "campaign_o2: one level, order 2");
    checks.expect(level.successful == r.vulnerabilities.size(),
                  "campaign_o2: level summary matches the vulnerability list");
    if (options_.smoke) {
      checks.expect(r.total_tuples == kSmokePairs, "campaign_o2: sampled pair count");
    } else {
      checks.expect(r.total_tuples == kPairs, "campaign_o2: classified pairs");
      checks.expect(r.vulnerabilities.size() == kSuccessfulPairs,
                    "campaign_o2: successful pairs");
      checks.expect(digest == kSweepDigest, "campaign_o2: sweep digest");
    }
    check_against_replay(checks);
  }

  [[nodiscard]] double code_size_ratio() const override { return 1.0; }
  [[nodiscard]] double instr_count_ratio() const override { return 1.0; }

  void describe(double pass_s) const override {
    const double sets =
        static_cast<double>(result_.order1.total_faults + result_.total_tuples);
    const auto& level = result_.levels.back();
    std::printf("campaign_o2: %s order 2, window %llu, 1 thread\n", guest_.name.c_str(),
                static_cast<unsigned long long>(result_.pair_window));
    std::printf("  fault sets per sweep %.0f (faults %llu, pairs %llu: simulated %llu, "
                "reused %llu), successful %llu + %llu\n",
                sets, static_cast<unsigned long long>(result_.order1.total_faults),
                static_cast<unsigned long long>(result_.total_tuples),
                static_cast<unsigned long long>(level.simulated),
                static_cast<unsigned long long>(level.reused_prefix + level.reused_suffix),
                static_cast<unsigned long long>(result_.order1.vulnerabilities.size()),
                static_cast<unsigned long long>(level.successful));
    std::printf("  fault_sets_per_s %.1f\n", sets / pass_s);
  }

 private:
  /// Every listed vulnerability must replay as a success; a seeded sample
  /// of the faults and pairs outside the lists must not. The plan is
  /// enumerated here from the golden trace, so its size checks the
  /// engine's enumeration too.
  void check_against_replay(Checks& checks) {
    r2r::emu::RunConfig trace_config;
    trace_config.record_trace = true;
    const auto golden = r2r::emu::run_image(image_, guest_.bad_input, trace_config);
    const auto good = r2r::emu::run_image(image_, guest_.good_input);
    const sim::EngineConfig engine = single_thread_engine();
    const std::uint64_t fuel = golden.steps * engine.fuel_multiplier + engine.fuel_slack;
    const std::uint64_t window = campaign_models().pair_window;
    const auto& trace = golden.trace;

    std::vector<std::uint64_t> per_index(trace.size());
    std::uint64_t faults = 0;
    for (std::size_t t = 0; t < trace.size(); ++t) {
      per_index[t] = 1 + 8ULL * trace[t].length;  // one skip plus one flip per bit
      faults += per_index[t];
    }
    std::uint64_t pairs = 0;
    for (std::size_t t1 = 0; t1 < trace.size(); ++t1) {
      for (std::size_t t2 = t1 + 1; t2 <= t1 + window && t2 < trace.size(); ++t2) {
        pairs += per_index[t1] * per_index[t2];
      }
    }
    checks.expect(faults == kFaults, "campaign_o2: independently enumerated fault count");
    checks.expect(pairs == kPairs, "campaign_o2: independently enumerated pair count");

    const auto succeeds = [&](const std::vector<FaultSpec>& faults_set) {
      const auto run = replay(image_, guest_.bad_input, faults_set, fuel);
      const bool detected = run.reason == r2r::emu::StopReason::kExited &&
                            run.exit_code == r2r::patch::kDetectedExit;
      return !detected && run.observably_equal(good);
    };

    std::set<std::vector<FaultKey>> listed;
    std::uint64_t confirmed = 0;
    for (const auto& v : result_.order1.vulnerabilities) {
      listed.insert({key(v.spec)});
      confirmed += succeeds({v.spec}) ? 1 : 0;
    }
    for (const auto& v : result_.vulnerabilities) {
      std::vector<FaultKey> set;
      for (const FaultSpec& f : v.faults) set.push_back(key(f));
      listed.insert(std::move(set));
      confirmed += succeeds(v.faults) ? 1 : 0;
    }
    checks.expect(confirmed == result_.order1.vulnerabilities.size() +
                                   result_.vulnerabilities.size(),
                  "campaign_o2: replay confirms every listed vulnerability (" +
                      std::to_string(confirmed) + " confirmed)");

    Rng rng(options_.seed);
    const auto draw = [&](std::uint64_t t) {
      FaultSpec f;
      f.trace_index = t;
      const std::uint64_t slot = rng.below(per_index[t]);
      f.kind = slot == 0 ? FaultSpec::Kind::kSkip : FaultSpec::Kind::kBitFlip;
      f.bit_offset = slot == 0 ? 0 : static_cast<std::uint32_t>(slot - 1);
      return f;
    };
    std::uint64_t sampled = 0;
    std::uint64_t wrong = 0;
    const std::uint64_t samples = options_.smoke ? kNegativeSamples / 10 : kNegativeSamples;
    while (sampled < samples) {
      const std::uint64_t t1 = rng.below(trace.size() - 1);
      std::vector<FaultSpec> set{draw(t1)};
      // Smoke runs list only a sample of the pairs, so only singles are
      // known to be unsuccessful when unlisted.
      if (!options_.smoke && rng.below(2) == 0) {
        const std::uint64_t gap =
            1 + rng.below(std::min<std::uint64_t>(window, trace.size() - 1 - t1));
        set.push_back(draw(t1 + gap));
      }
      std::vector<FaultKey> keys;
      for (const FaultSpec& f : set) keys.push_back(key(f));
      if (listed.count(keys) != 0) continue;
      ++sampled;
      wrong += succeeds(set) ? 1 : 0;
    }
    checks.expect(wrong == 0, "campaign_o2: " + std::to_string(wrong) +
                                  " unlisted fault sets replay as successes");
  }

  Options options_;
  r2r::guests::Guest guest_;
  r2r::elf::Image image_;
  std::unique_ptr<r2r::sim::Engine> engine_;
  r2r::sim::TupleCampaignResult result_;
  std::uint64_t first_digest_ = 0;
};

}  // namespace

guests::Guest campaign_guest() { return r2r::guests::synth::generate(15); }

sim::FaultModels campaign_models() {
  sim::FaultModels models;
  models.skip = true;
  models.bit_flip = true;
  models.order = 2;
  models.pair_window = 4;
  return models;
}

sim::EngineConfig single_thread_engine() {
  sim::EngineConfig config;
  config.threads = 1;
  return config;
}

std::unique_ptr<Workload> make_campaign_o2(const Options& options) {
  return std::make_unique<CampaignO2>(options);
}

}  // namespace perfbench
