#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "obs/obs.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"

namespace r2r::sim {

namespace {
using emu::FaultSpec;
using emu::RunConfig;
using emu::RunResult;
using emu::StopReason;
using support::check;
using support::ErrorKind;

/// Chunked dynamic scheduling shared by every sweep: workers pull
/// fixed-size index ranges from a shared cursor; each owns private state
/// built by make_state() (machines, or nothing for the sampler). Slot i of
/// the caller's result vector is written only by per_item(state, i), so
/// aggregation order — and every derived counter — is identical for every
/// thread count. The first worker exception is rethrown after the join.
/// Each worker covers its lifetime with an obs span named `span_label` and
/// ticks `progress` (when non-null) once per item — both no-ops unless the
/// caller opted into observability, and neither touches the result slots.
template <typename MakeState, typename PerItem>
void run_sharded_state(unsigned configured_threads, std::size_t count, std::size_t chunk,
                       const char* span_label, obs::Progress* progress,
                       const MakeState& make_state, const PerItem& per_item) {
  unsigned threads = configured_threads != 0
                         ? configured_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  if (count < threads) {
    threads = static_cast<unsigned>(std::max<std::size_t>(1, count));
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&]() {
    try {
      obs::Span span(span_label);
      std::uint64_t items = 0;
      auto state = make_state();
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) break;
        const std::size_t end = std::min(count, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) per_item(state, i);
        items += end - begin;
        if (progress != nullptr) progress->tick(end - begin);
      }
      span.set_args(obs::args_u64({{"items", items}}));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// [begin, end) range of each trace index's fault group within the order-1
/// plan (the plan is grouped by ascending trace index).
std::vector<std::pair<std::size_t, std::size_t>> index_ranges(
    const std::vector<PlannedFault>& plan, std::size_t trace_length) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges(trace_length, {0, 0});
  for (std::size_t i = 0; i < plan.size();) {
    const std::uint64_t index = plan[i].spec.trace_index;
    std::size_t j = i;
    while (j < plan.size() && plan[j].spec.trace_index == index) ++j;
    ranges[index] = {i, j};
    i = j;
  }
  return ranges;
}

/// Order-k enumeration geometry. A level-s tuple is s faults at strictly
/// ascending trace indices with every consecutive gap in (0, window]; the
/// canonical order is lexicographic over (plan index of fault 1, plan index
/// of fault 2, ...): ascending first fault, then ascending second-fault
/// trace index within the window, then canonical order within that index,
/// and so on. Because every fault at trace index t roots an identical
/// subtree, the subtree sizes form a per-trace-index DP:
///
///   subtree[1][t] = 1
///   subtree[s][t] = Σ_{u in (t, t+window]} faults(u) · subtree[s-1][u]
///
/// which gives exact O(window)-per-step unranking (rank → tuple) within the
/// canonical order, the only direction the sweep needs: each level reaches
/// its tuples by rank, whether exhaustive or sampled, and unranking a tuple
/// also yields the rank of its tail in the previous level, which the
/// recursive outcome lookup reads. Counts saturate at kTupleCountCap; a
/// saturated space is refused before anything depends on exact arithmetic.
constexpr std::uint64_t kTupleCountCap = 1ULL << 63;

struct TupleSpace {
  std::uint64_t window = 0;
  /// subtree[s][t] for s in 1..order (subtree[0] unused).
  std::vector<std::vector<std::uint64_t>> subtree;
  /// group_prefix[s][i] = Σ_{i' < i} subtree[s][trace(plan[i'])] — the rank
  /// of the first level-s tuple whose first fault is plan index i; the last
  /// entry is the full level-s count.
  std::vector<std::vector<std::uint64_t>> group_prefix;
  bool saturated = false;

  [[nodiscard]] std::uint64_t level_count(unsigned s) const {
    return group_prefix[s].back();
  }
};

TupleSpace make_tuple_space(const std::vector<PlannedFault>& plan,
                            const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                            std::uint64_t pair_window, unsigned order) {
  using u128 = unsigned __int128;
  const std::uint64_t trace_length = ranges.size();
  TupleSpace space;
  space.window = std::min(pair_window, trace_length);
  space.subtree.assign(order + 1, {});
  space.group_prefix.assign(order + 1, {});
  space.subtree[1].assign(trace_length, 1);
  for (unsigned s = 2; s <= order; ++s) {
    // 128-bit prefix sums keep the windowed sums exact (each term is below
    // the cap and the trace is far below 2^32, so the running sum fits);
    // only the clamp back to 64 bits can mark saturation.
    std::vector<u128> prefix(trace_length + 1, 0);
    for (std::uint64_t u = 0; u < trace_length; ++u) {
      const std::uint64_t faults = ranges[u].second - ranges[u].first;
      prefix[u + 1] = prefix[u] + static_cast<u128>(faults) * space.subtree[s - 1][u];
    }
    space.subtree[s].assign(trace_length, 0);
    for (std::uint64_t t = 0; t + 1 < trace_length; ++t) {
      const std::uint64_t last = std::min(t + space.window, trace_length - 1);
      u128 sum = prefix[last + 1] - prefix[t + 1];
      if (sum >= kTupleCountCap) {
        sum = kTupleCountCap;
        space.saturated = true;
      }
      space.subtree[s][t] = static_cast<std::uint64_t>(sum);
    }
  }
  for (unsigned s = 1; s <= order; ++s) {
    std::vector<std::uint64_t>& prefix = space.group_prefix[s];
    prefix.assign(plan.size() + 1, 0);
    u128 total = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      total += space.subtree[s][plan[i].spec.trace_index];
      if (total >= kTupleCountCap) {
        total = kTupleCountCap;
        space.saturated = true;
      }
      prefix[i + 1] = static_cast<std::uint64_t>(total);
    }
  }
  return space;
}

/// Unranks the level-`arity` tuple with first fault `first` and rank `rank`
/// within that fault's subtree into out[0..arity), and returns the rank of
/// its tail out[1..arity) within level arity-1: the tail's group start plus
/// the rank left after the first step. Exact for non-saturated spaces.
std::uint64_t tuple_unrank(const TupleSpace& space, const std::vector<PlannedFault>& plan,
                           const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                           std::uint32_t first, std::uint64_t rank, std::size_t arity,
                           std::uint32_t* out) {
  out[0] = first;
  std::uint64_t cur = plan[first].spec.trace_index;
  std::uint64_t tail_rank = 0;
  for (std::size_t j = 1; j < arity; ++j) {
    const auto s = static_cast<unsigned>(arity - j);
    for (std::uint64_t t = cur + 1;; ++t) {
      const std::uint64_t per_fault = space.subtree[s][t];
      const std::uint64_t block = (ranges[t].second - ranges[t].first) * per_fault;
      if (rank < block) {
        out[j] = static_cast<std::uint32_t>(ranges[t].first + rank / per_fault);
        rank %= per_fault;
        cur = t;
        break;
      }
      rank -= block;
    }
    if (j == 1) tail_rank = space.group_prefix[s][out[1]] + rank;
  }
  return tail_rank;
}

/// A sampled level's slots: first fault g owns slots [starts[g],
/// starts[g+1]), and slot n holds the drawn rank ranks[n] within g's
/// subtree. (An exhaustive level needs neither: its starts are the group
/// prefix sums, so slot n is rank n.)
struct LevelSlots {
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> ranks;
};

/// Draws exactly `budget` distinct level-`arity` tuples, rank-uniform over
/// the whole space. Deterministic in (seed, plan) only: the budget is split
/// across first-fault groups by the cumulative-floor rule (group g gets
/// floor(B·cum[g+1]/N) − floor(B·cum[g]/N) tuples, which sums to exactly B
/// and starts group g at slot floor(B·cum[g]/N)), and within a group the
/// ranks are drawn by Floyd's distinct-sampling with an Rng::for_stream
/// substream keyed on the group's shard — never on worker threads — so the
/// sampled set is identical at every thread count. Ranks are sorted within
/// each group, which keeps the slots in canonical order.
LevelSlots sample_level(const TupleSpace& space, const std::vector<PlannedFault>& plan,
                        std::size_t arity, std::uint64_t budget, std::uint64_t seed,
                        unsigned threads) {
  using u128 = unsigned __int128;
  const std::vector<std::uint64_t>& cum = space.group_prefix[arity];
  const std::uint64_t total = cum.back();
  LevelSlots slots;
  slots.starts.resize(cum.size());
  for (std::size_t g = 0; g < cum.size(); ++g) {
    slots.starts[g] = static_cast<std::uint64_t>(static_cast<u128>(budget) * cum[g] / total);
  }
  slots.ranks.resize(budget);

  const std::size_t shards =
      std::max<std::size_t>(1, std::min<std::size_t>(256, plan.size()));
  run_sharded_state(
      threads, shards, /*chunk=*/1, "sim.tuple_sampler", nullptr, []() { return 0; },
      [&](int&, std::size_t shard) {
        support::Rng rng = support::Rng::for_stream(seed, static_cast<unsigned>(shard));
        const std::size_t lo = shard * plan.size() / shards;
        const std::size_t hi = (shard + 1) * plan.size() / shards;
        std::unordered_set<std::uint64_t> seen;
        for (std::size_t g = lo; g < hi; ++g) {
          const std::uint64_t quota = slots.starts[g + 1] - slots.starts[g];
          if (quota == 0) continue;
          const std::uint64_t group_size = space.subtree[arity][plan[g].spec.trace_index];
          const auto picks = slots.ranks.begin() + static_cast<std::ptrdiff_t>(slots.starts[g]);
          if (quota >= group_size) {
            for (std::uint64_t r = 0; r < group_size; ++r) picks[r] = r;
            continue;
          }
          // Floyd: for r in [size-quota, size), pick uniform v in [0, r];
          // on collision take r itself (guaranteed fresh).
          seen.clear();
          std::uint64_t k = 0;
          for (std::uint64_t r = group_size - quota; r < group_size; ++r, ++k) {
            const std::uint64_t v = rng.next_below(r + 1);
            picks[k] = seen.insert(v).second ? v : r;
            if (picks[k] == r && v != r) seen.insert(r);
          }
          std::sort(picks, picks + static_cast<std::ptrdiff_t>(quota));
        }
      });
  return slots;
}

/// make_references wrapped in a span so golden-run recording shows up in
/// traces (it runs in the Engine member-initializer list).
References traced_references(const elf::Image& image, const std::string& good_input,
                             const std::string& bad_input, bool block_cache) {
  obs::Span span("sim.references");
  return make_references(image, good_input, bad_input, block_cache);
}

/// Checkpoint restore with optional latency sampling (sim.restore_ns). The
/// handle is resolved once; the disabled path costs one relaxed load.
void timed_restore(const MachineSnapshot& snapshot, emu::Machine& machine) {
  static obs::Histogram& restore_ns =
      obs::Metrics::instance().histogram("sim.restore_ns");
  if (!obs::timing_enabled()) {
    restore(snapshot, machine);
    return;
  }
  const std::uint64_t begin = obs::now_ns();
  restore(snapshot, machine);
  restore_ns.observe(obs::now_ns() - begin);
}

/// Order-1 outcome/prune counters, shared by run() and run_tuples() phase A.
/// Everything recorded here is derived from the deterministic sweep result,
/// so totals are invariant across thread counts (tested).
void record_order1_metrics(const CampaignResult& result) {
  auto& metrics = obs::Metrics::instance();
  metrics.counter("sim.sweeps_order1").add(1);
  metrics.counter("sim.faults_planned").add(result.total_faults);
  metrics.counter("sim.faults_pruned").add(result.pruned_faults);
  for (const auto& [outcome, count] : result.outcome_counts) {
    metrics.counter("sim.outcome." + std::string(to_string(outcome))).add(count);
  }
}
}  // namespace

std::string_view kind_name(FaultSpec::Kind kind) noexcept {
  switch (kind) {
    case FaultSpec::Kind::kSkip: return "skip";
    case FaultSpec::Kind::kBitFlip: return "bit-flip";
    case FaultSpec::Kind::kRegisterBitFlip: return "register-flip";
    case FaultSpec::Kind::kFlagFlip: return "flag-flip";
  }
  return "?";
}

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kNoEffect: return "no-effect";
    case Outcome::kSuccess: return "successful-fault";
    case Outcome::kCrash: return "crash";
    case Outcome::kHang: return "hang";
    case Outcome::kDetected: return "detected";
    case Outcome::kOtherBehavior: return "other";
  }
  return "?";
}

namespace {
constexpr std::array<FaultModelSwitch, 4> kFaultModelSwitches = {{
    {"skip", &FaultModels::skip},
    {"bit_flip", &FaultModels::bit_flip},
    {"register_flip", &FaultModels::register_flip},
    {"flag_flip", &FaultModels::flag_flip},
}};
}  // namespace

std::span<const FaultModelSwitch> fault_model_switches() { return kFaultModelSwitches; }

const std::vector<std::string_view>& fault_model_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const FaultModelSwitch& model : kFaultModelSwitches) out.push_back(model.name);
    return out;
  }();
  return names;
}

bool set_fault_model(FaultModels& models, std::string_view name, bool enabled) {
  for (const FaultModelSwitch& model : kFaultModelSwitches) {
    if (model.name != name) continue;
    models.*model.enabled = enabled;
    return true;
  }
  return false;
}

std::vector<PlannedFault> enumerate_faults(const FaultModels& models,
                                           const std::vector<emu::TraceEntry>& trace) {
  if (models.register_flip) {
    // Machine::step folds a register number modulo the file size, so an
    // entry past it would sweep another register's faults a second time.
    constexpr std::size_t kRegisters = std::tuple_size_v<decltype(emu::Cpu::gpr)>;
    for (const unsigned reg : models.register_flip_regs) {
      if (reg >= kRegisters) {
        support::fail(ErrorKind::kInvalidArgument,
                      "register flip of register " + std::to_string(reg) +
                          ": register numbers are 0 to " + std::to_string(kRegisters - 1));
      }
    }
  }
  std::vector<PlannedFault> plan;
  for (std::uint64_t index = 0; index < trace.size(); ++index) {
    const emu::TraceEntry& entry = trace[index];
    const auto add = [&](FaultSpec::Kind kind, std::uint32_t bit_offset) {
      FaultSpec spec;
      spec.kind = kind;
      spec.trace_index = index;
      spec.bit_offset = bit_offset;
      plan.push_back(PlannedFault{spec, entry.address});
    };
    if (models.skip) add(FaultSpec::Kind::kSkip, 0);
    if (models.bit_flip) {
      const std::uint32_t bits = static_cast<std::uint32_t>(entry.length) * 8;
      for (std::uint32_t bit = 0; bit < bits; ++bit) add(FaultSpec::Kind::kBitFlip, bit);
    }
    if (models.register_flip) {
      const unsigned stride =
          models.register_flip_bit_stride == 0 ? 1 : models.register_flip_bit_stride;
      for (const unsigned reg : models.register_flip_regs) {
        for (unsigned bit = 0; bit < 64; bit += stride) {
          add(FaultSpec::Kind::kRegisterBitFlip, reg * 64 + bit);
        }
      }
    }
    if (models.flag_flip) {
      for (unsigned flag = 0; flag < 6; ++flag) add(FaultSpec::Kind::kFlagFlip, flag);
    }
  }
  return plan;
}

std::uint64_t SnapshotPolicy::interval_for(std::uint64_t trace_length) const noexcept {
  if (fixed_interval) return std::max<std::uint64_t>(1, *fixed_interval);
  const auto sqrt_interval = static_cast<std::uint64_t>(
      std::llround(std::sqrt(static_cast<double>(trace_length))));
  return std::clamp(std::max<std::uint64_t>(1, sqrt_interval), min_interval, max_interval);
}

References make_references(const elf::Image& image, const std::string& good_input,
                           const std::string& bad_input, bool block_cache) {
  const auto run_one = [&](const std::string& input, const RunConfig& config) {
    emu::Machine machine(image, input);
    machine.set_block_cache_enabled(block_cache);
    return machine.run(config);
  };
  References refs;
  RunConfig config;
  refs.good_reference = run_one(good_input, config);
  check(refs.good_reference.reason == StopReason::kExited, ErrorKind::kExecution,
        "good-input golden run did not exit cleanly: " +
            refs.good_reference.crash_detail);

  config.record_trace = true;
  RunResult bad = run_one(bad_input, config);
  check(bad.reason == StopReason::kExited, ErrorKind::kExecution,
        "bad-input golden run did not exit cleanly: " + bad.crash_detail);
  check(!bad.observably_equal(refs.good_reference), ErrorKind::kExecution,
        "good and bad inputs are observationally identical; nothing to protect");
  refs.bad_trace = std::move(bad.trace);
  bad.trace.clear();
  refs.bad_reference = std::move(bad);
  return refs;
}

Outcome classify(const RunResult& good_reference, const RunResult& bad_reference,
                 StopReason reason, std::int64_t exit_code, std::string_view output,
                 int detected_exit_code) noexcept {
  if (reason == StopReason::kExited && exit_code == detected_exit_code) {
    return Outcome::kDetected;
  }
  if (emu::observably_equal(reason, exit_code, output, good_reference)) return Outcome::kSuccess;
  if (emu::observably_equal(reason, exit_code, output, bad_reference)) return Outcome::kNoEffect;
  if (reason == StopReason::kCrashed) return Outcome::kCrash;
  if (reason == StopReason::kFuelExhausted) return Outcome::kHang;
  return Outcome::kOtherBehavior;
}

Engine::Engine(elf::Image image, std::string good_input, std::string bad_input,
               EngineConfig config)
    : image_(std::move(image)),
      bad_input_(std::move(bad_input)),
      config_(config),
      refs_(traced_references(image_, good_input, bad_input_, config.block_cache)) {
  interval_ = config_.policy.interval_for(refs_.bad_trace.size());
  fuel_ = refs_.bad_reference.steps * EngineConfig::fuel_multiplier + EngineConfig::fuel_slack;
  bad_reference_outcome_ =
      classify(refs_, refs_.bad_reference, patch::kDetectedExit);

  // Record the checkpoint chain: the golden bad-input machine frozen at
  // every multiple of the interval. Pages are shared between neighbouring
  // checkpoints, so chain memory grows with the write set, not the trace.
  {
    obs::Span span("sim.checkpoint_chain");
    emu::Machine recorder(image_, bad_input_);
    recorder.set_block_cache_enabled(config_.block_cache);
    chain_.push_back(capture(recorder));
    while (true) {
      const std::uint64_t fuel = static_cast<std::uint64_t>(chain_.size()) * interval_;
      if (recorder.advance(fuel, std::nullopt) != StopReason::kFuelExhausted) break;
      chain_.push_back(capture(recorder));
    }
    span.set_args(obs::args_u64(
        {{"snapshots", chain_.size()}, {"interval", interval_}}));
  }

  std::unordered_set<const emu::Memory::Page*> unique_pages;
  for (const MachineSnapshot& snapshot : chain_) {
    for (const auto& region : snapshot.memory.regions) {
      for (const auto& page : region.pages) {
        if (unique_pages.insert(page.get()).second) chain_bytes_ += page->size();
      }
    }
  }
  chain_pages_ = unique_pages.size();

  auto& metrics = obs::Metrics::instance();
  metrics.counter("sim.engines_built").add(1);
  metrics.counter("sim.checkpoints_captured").add(chain_.size());
  metrics.gauge("sim.checkpoint_interval").set(static_cast<std::int64_t>(interval_));
  metrics.gauge("sim.chain_resident_bytes")
      .set(static_cast<std::int64_t>(chain_bytes_));
}

Engine::FaultProfile Engine::stopped_profile(const emu::Machine& machine,
                                             StopReason reason) const noexcept {
  FaultProfile profile;
  profile.outcome = classify_stopped(machine, reason);
  // A terminated run pins the step past which a further fault can no
  // longer fire; a fuel-exhausted (hang) run never terminates.
  if (reason != StopReason::kFuelExhausted) profile.end_step = machine.steps();
  return profile;
}

Engine::FaultProfile Engine::finish_with_pruning(emu::Machine& machine,
                                                 const emu::FaultSpec& fault,
                                                 std::uint64_t boundary,
                                                 std::atomic<std::uint64_t>& pruned) const {
  const std::optional<emu::FaultSpec> armed = fault;
  if (!config_.convergence_pruning) return stopped_profile(machine, machine.advance(fuel_, armed));

  // Run to each checkpoint boundary past the injection; if the faulted
  // machine is back in the golden state there, its future is the golden
  // future — classify without simulating the suffix.
  while (true) {
    const std::uint64_t fuel = std::min(boundary, fuel_);
    const StopReason reason = machine.advance(fuel, armed);
    if (reason != StopReason::kFuelExhausted || fuel >= fuel_) {
      return stopped_profile(machine, reason);
    }
    const std::size_t checkpoint = boundary / interval_;
    if (checkpoint >= chain_.size()) {
      // Past the last golden checkpoint; no reference state to compare.
      return stopped_profile(machine, machine.advance(fuel_, armed));
    }
    if (same_state(chain_[checkpoint], machine)) {
      pruned.fetch_add(1, std::memory_order_relaxed);
      FaultProfile profile;
      profile.outcome = bad_reference_outcome_;
      profile.reconverge_step = boundary;
      profile.end_step = refs_.bad_reference.steps;
      return profile;
    }
    boundary += interval_;
  }
}

struct Engine::Worker {
  std::optional<emu::Machine> faulted;
  std::optional<emu::Machine> golden;
  std::vector<std::uint32_t> set;  ///< an order-k level's fault set in hand
};

Engine::FaultProfile Engine::simulate(Worker& worker, std::span<const std::uint32_t> set,
                                      const std::vector<PlannedFault>& plan,
                                      std::uint64_t window, std::uint64_t* hits,
                                      std::atomic<std::uint64_t>& pruned) const {
  const auto built = [&](std::optional<emu::Machine>& machine) -> emu::Machine& {
    if (!machine) {
      machine.emplace(image_, bad_input_);
      machine->set_block_cache_enabled(config_.block_cache);
    }
    return *machine;
  };
  const auto nearest = [&](std::uint64_t index) -> const MachineSnapshot& {
    return chain_[std::min<std::size_t>(index / interval_, chain_.size() - 1)];
  };
  emu::Machine& machine = built(worker.faulted);
  timed_restore(nearest(plan[set.front()].spec.trace_index), machine);
  if (hits != nullptr) {
    for (std::size_t i = 0; i < set.size(); ++i) hits[i] = plan[set[i]].address;
  }

  // One leg per earlier fault: fault i-1 armed, paused just before fault i
  // strikes (every trace index is below the fuel). A leg that terminates
  // classifies the set; the later faults never fire and keep their golden
  // hit addresses, as for a set reused from its first fault.
  for (std::size_t i = 1; i < set.size(); ++i) {
    const StopReason reason =
        machine.advance(plan[set[i]].spec.trace_index, plan[set[i - 1]].spec);
    if (reason != StopReason::kFuelExhausted) return stopped_profile(machine, reason);
    if (hits != nullptr) hits[i] = machine.cpu().rip;
  }

  // The pair-window check of the last fault: steps s in (index, index +
  // window] before the boundary (which finish_with_pruning compares) and
  // inside the golden trace, so the golden machine never ends in it.
  const emu::FaultSpec& fault = plan[set.back()].spec;
  const std::uint64_t index = fault.trace_index;
  const std::uint64_t boundary = (index / interval_ + 1) * interval_;
  const std::uint64_t last =
      std::min({index + window, boundary - 1, refs_.bad_trace.size() - 1});
  std::uint64_t reconverge = kNeverStep;
  emu::Machine* golden = nullptr;
  for (std::uint64_t s = index + 1; s <= last; ++s) {
    const StopReason reason = machine.advance(s, fault);
    if (reason != StopReason::kFuelExhausted) return stopped_profile(machine, reason);
    // A full-state match needs equal rips, so the golden machine is
    // restored at the first step where they agree and advanced only to
    // such steps.
    if (machine.cpu().rip != refs_.bad_trace[s].address) continue;
    if (golden == nullptr) {
      golden = &built(worker.golden);
      timed_restore(nearest(index), *golden);
    }
    golden->advance(s, std::nullopt);
    if (same_state(machine, *golden)) {
      reconverge = s;
      break;
    }
  }
  // Past the window the run goes on as in the order-1 sweep, so its outcome,
  // end step and pruning stay Engine::run's.
  FaultProfile profile = finish_with_pruning(machine, fault, boundary, pruned);
  if (reconverge != kNeverStep) profile.reconverge_step = reconverge;
  return profile;
}

void Engine::profile_all(const std::vector<PlannedFault>& plan, std::uint64_t window,
                         std::vector<FaultProfile>& profiles,
                         std::atomic<std::uint64_t>& pruned, obs::Progress& progress) const {
  profiles.assign(plan.size(), FaultProfile{});
  run_sharded_state(config_.threads, plan.size(), /*chunk=*/64, "sim.worker", &progress,
                    [] { return Worker{}; },
                    [&](Worker& worker, std::size_t i) {
                      const auto fault = static_cast<std::uint32_t>(i);
                      profiles[i] = simulate(worker, {&fault, 1}, plan, window,
                                             /*hits=*/nullptr, pruned);
                    });
}

CampaignResult Engine::aggregate_order1(const std::vector<PlannedFault>& plan,
                                        const std::vector<FaultProfile>& profiles,
                                        std::uint64_t pruned) const {
  CampaignResult result;
  result.trace_length = refs_.bad_trace.size();
  result.total_faults = plan.size();
  result.checkpoint_interval = interval_;
  result.snapshot_count = chain_.size();
  result.pruned_faults = pruned;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++result.outcome_counts[profiles[i].outcome];
    if (profiles[i].outcome == Outcome::kSuccess) {
      result.vulnerabilities.push_back(Vulnerability{plan[i].spec, plan[i].address});
    }
  }
  return result;
}

CampaignResult Engine::run(const FaultModels& models) const {
  check(models.order == 1, ErrorKind::kExecution,
        "the order-1 sweep requires FaultModels::order == 1; order-k models "
        "(k >= 2) go to run_tuples()");
  const std::vector<PlannedFault> plan = enumerate_faults(models, refs_.bad_trace);
  std::vector<FaultProfile> profiles;
  std::atomic<std::uint64_t> pruned_total{0};

  obs::Span span("sim.run_order1", obs::args_u64({{"faults", plan.size()}}));
  obs::Progress progress("order-1 sweep", plan.size());
  // Reset up front: a sub-nanosecond-resolution sweep (sweep_ns == 0) must
  // not leave a previous sweep's rate standing in-process.
  obs::Metrics::instance().gauge("sim.faults_per_second").set(0);
  const std::uint64_t sweep_begin = obs::now_ns();
  profile_all(plan, /*window=*/0, profiles, pruned_total, progress);
  const std::uint64_t sweep_ns = obs::now_ns() - sweep_begin;

  CampaignResult result = aggregate_order1(plan, profiles, pruned_total.load());
  record_order1_metrics(result);
  if (sweep_ns > 0) {
    obs::Metrics::instance().gauge("sim.faults_per_second")
        .set(static_cast<std::int64_t>(plan.size() * 1'000'000'000ull / sweep_ns));
  }
  return result;
}

TupleCampaignResult Engine::run_tuples(const FaultModels& models) const {
  check(models.order >= 2, ErrorKind::kExecution,
        "run_tuples() requires FaultModels::order >= 2");
  const unsigned order = models.order;
  const std::vector<PlannedFault> plan = enumerate_faults(models, refs_.bad_trace);
  check(plan.size() <= std::numeric_limits<std::uint32_t>::max(), ErrorKind::kExecution,
        "order-k sweep: order-1 plan exceeds 2^32 faults");
  const auto ranges = index_ranges(plan, refs_.bad_trace.size());
  const TupleSpace space = make_tuple_space(plan, ranges, models.pair_window, order);

  TupleCampaignResult result;
  result.order = order;
  result.trace_length = refs_.bad_trace.size();
  result.pair_window = models.pair_window;
  result.max_tuples = models.max_tuples;
  result.sample_seed = models.sample_seed;

  obs::Span run_span("sim.run_tuples", obs::args_u64({{"order", order}}));
  obs::Metrics::instance().gauge("sim.tuples_per_second").set(0);
  const std::uint64_t tuples_begin = obs::now_ns();

  const bool reuse = config_.pair_outcome_reuse && config_.convergence_pruning;

  // ---- phase A: profile every single fault (the order-1 sweep plus the
  // reconvergence/termination metadata every level prunes with). Where the
  // reuse rules run, reconvergence is looked for at every step of the pair
  // window too, not only at checkpoint boundaries.
  std::vector<FaultProfile> profiles;
  std::atomic<std::uint64_t> pruned_total{0};
  {
    obs::Span span("sim.tuples_profile", obs::args_u64({{"faults", plan.size()}}));
    obs::Progress progress("order-" + std::to_string(order) + " profile", plan.size());
    profile_all(plan, reuse ? models.pair_window : 0, profiles, pruned_total, progress);
  }
  result.order1 = aggregate_order1(plan, profiles, pruned_total.load());
  record_order1_metrics(result.order1);

  // ---- levels m = 2..k, bottom-up. Each level is classified against the
  // previous one: a first fault that reconverged with golden before the
  // second strikes reduces the m-tuple to its (m-1)-tail on the golden run
  // (outcome looked up by the tail's rank in level m-1), and one that
  // terminated reduces it to the first fault alone. Both rules are exact,
  // so the pruning compounds across levels without losing bit-identity.
  // Level 1 is the base: a single fault's rank is its plan index.
  std::vector<Outcome> prev_outcomes(profiles.size());  // level m-1, by rank
  std::transform(profiles.begin(), profiles.end(), prev_outcomes.begin(),
                 [](const FaultProfile& profile) { return profile.outcome; });
  for (unsigned m = 2; m <= order; ++m) {
    TupleLevelSummary level;
    level.order = m;
    level.enumerated = space.level_count(m);
    const bool top = m == order;

    LevelSlots sample;
    std::span<const std::uint64_t> starts = space.group_prefix[m];
    if (top && models.max_tuples != 0 && level.enumerated > models.max_tuples) {
      check(!space.saturated && level.enumerated < kTupleCountCap, ErrorKind::kExecution,
            "order-k sweep: tuple space exceeds 2^63; narrow the fault models "
            "or pair_window");
      level.sampled = true;
      level.classified = models.max_tuples;
      obs::Span span("sim.tuples_sample",
                     obs::args_u64({{"order", m}, {"budget", models.max_tuples}}));
      sample = sample_level(space, plan, m, models.max_tuples, models.sample_seed,
                            config_.threads);
      starts = sample.starts;
    } else {
      check(level.enumerated <= config_.max_planned_tuples, ErrorKind::kExecution,
            "order-k sweep: level " + std::to_string(m) + " materialises " +
                std::to_string(level.enumerated) +
                " tuples, over EngineConfig::max_planned_tuples (" +
                std::to_string(config_.max_planned_tuples) + "); " +
                (top ? "set FaultModels::max_tuples to sample the top level"
                     : "narrow the fault models or pair_window"));
      level.classified = level.enumerated;
    }
    const auto count = static_cast<std::size_t>(level.classified);
    // Unranks the tuple of slot n, in first fault i's group, into `tuple`
    // and returns its tail's rank in level m-1.
    const auto unrank_slot = [&](std::size_t i, std::uint64_t n, std::uint32_t* tuple) {
      const std::uint64_t rank = level.sampled ? sample.ranks[n] : n - starts[i];
      return tuple_unrank(space, plan, ranges, static_cast<std::uint32_t>(i), rank, m, tuple);
    };

    // One pass over the first faults classifies the level, each tuple by
    // recursive outcome reuse where its first fault's profile proves the
    // answer and through the simulator otherwise.
    std::vector<Outcome> outcomes(count);
    std::atomic<std::uint64_t> reused_suffix{0};
    std::atomic<std::uint64_t> reused_prefix{0};
    std::atomic<std::uint64_t> converged{0};
    {
      obs::Span span("sim.tuples_classify", obs::args_u64({{"order", m}, {"tuples", count}}));
      obs::Progress progress("order-" + std::to_string(order) + " tuple sweep (level " +
                                 std::to_string(m) + ")",
                             count);
      run_sharded_state(
          config_.threads, plan.size(), /*chunk=*/1, "sim.tuple_worker", nullptr,
          [&] {
            Worker worker;
            worker.set.resize(m);
            return worker;
          },
          [&](Worker& worker, std::size_t i) {
            const FaultProfile& first = profiles[i];
            std::uint32_t* tuple = worker.set.data();
            std::uint64_t suffix = 0;
            std::uint64_t prefix = 0;
            for (std::uint64_t n = starts[i]; n < starts[i + 1]; ++n) {
              const std::uint64_t tail = unrank_slot(i, n, tuple);
              const std::uint64_t t2 = plan[tuple[1]].spec.trace_index;
              if (reuse && t2 >= first.reconverge_step) {
                outcomes[n] = prev_outcomes[tail];
                ++suffix;
              } else if (reuse && t2 >= first.end_step) {
                outcomes[n] = first.outcome;
                ++prefix;
              } else {
                outcomes[n] = simulate(worker, worker.set, plan, /*window=*/0,
                                       /*hits=*/nullptr, converged)
                                  .outcome;
              }
            }
            reused_suffix.fetch_add(suffix, std::memory_order_relaxed);
            reused_prefix.fetch_add(prefix, std::memory_order_relaxed);
            progress.tick(starts[i + 1] - starts[i]);
          });
    }
    level.reused_suffix = reused_suffix.load();
    level.reused_prefix = reused_prefix.load();
    level.simulated = count - level.reused_suffix - level.reused_prefix;
    level.converged = converged.load();

    // Aggregation, group by group in slot order: the top level feeds the
    // result and unranks each successful tuple once into `successes` (m
    // plan indices each); a lower level feeds the next level's lookup.
    std::vector<std::uint32_t> successes;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      for (std::uint64_t n = starts[i]; n < starts[i + 1]; ++n) {
        if (top) ++result.outcome_counts[outcomes[n]];
        if (outcomes[n] != Outcome::kSuccess) continue;
        ++level.successful;
        if (!top) continue;
        successes.resize(successes.size() + m);
        unrank_slot(i, n, &successes[successes.size() - m]);
      }
    }
    result.levels.push_back(level);
    if (!top) {
      prev_outcomes = std::move(outcomes);
      continue;
    }

    // Hit addresses: one replay of each successful tuple through the
    // simulator. A tuple reused from its tail is in the golden state when
    // its second fault strikes, and one reused from its first fault ends
    // before its second fault fires, so the replay records the addresses of
    // the very run the reuse rules stand for.
    const std::size_t found = successes.size() / m;
    for (std::size_t j = 0; j < found; ++j) {
      TupleVulnerability& v = result.vulnerabilities.emplace_back();
      v.faults.reserve(m);
      v.addresses.reserve(m);
      for (std::size_t l = 0; l < m; ++l) {
        v.faults.push_back(plan[successes[j * m + l]].spec);
        v.addresses.push_back(plan[successes[j * m + l]].address);
      }
      v.hit_addresses.resize(m);
    }
    if (found != 0) {
      obs::Span span("sim.tuples_replay", obs::args_u64({{"order", m}, {"tuples", found}}));
      std::atomic<std::uint64_t> replay_converged{0};
      run_sharded_state(
          config_.threads, found, /*chunk=*/64, "sim.tuple_worker", nullptr,
          [] { return Worker{}; },
          [&](Worker& worker, std::size_t j) {
            simulate(worker, {&successes[j * m], m}, plan, /*window=*/0,
                     result.vulnerabilities[j].hit_addresses.data(), replay_converged);
          });
    }
  }

  const TupleLevelSummary& summit = result.levels.back();
  result.total_tuples = summit.classified;
  result.enumerated_tuples = summit.enumerated;
  result.sampled = summit.sampled;

  auto& metrics = obs::Metrics::instance();
  metrics.counter("sim.sweeps_orderk").add(1);
  metrics.counter("sim.tuples_planned").add(result.total_tuples);
  metrics.counter("sim.tuples_reused_suffix").add(summit.reused_suffix);
  metrics.counter("sim.tuples_reused_prefix").add(summit.reused_prefix);
  metrics.counter("sim.tuples_simulated").add(summit.simulated);
  metrics.counter("sim.tuples_converged").add(summit.converged);
  for (const auto& [outcome, outcome_count] : result.outcome_counts) {
    metrics.counter("sim.tuple_outcome." + std::string(to_string(outcome)))
        .add(outcome_count);
  }
  const std::uint64_t tuples_ns = obs::now_ns() - tuples_begin;
  if (tuples_ns > 0) {
    metrics.gauge("sim.tuples_per_second")
        .set(static_cast<std::int64_t>(result.total_tuples * 1'000'000'000ull /
                                       tuples_ns));
  }
  return result;
}

std::uint64_t count_fault_tuples(const FaultModels& models,
                                 const std::vector<emu::TraceEntry>& trace) {
  const std::vector<PlannedFault> plan = enumerate_faults(models, trace);
  const auto ranges = index_ranges(plan, trace.size());
  const unsigned order = std::max(1u, models.order);
  return make_tuple_space(plan, ranges, models.pair_window, order).level_count(order);
}

std::vector<std::uint64_t> CampaignResult::vulnerable_addresses() const {
  std::vector<std::uint64_t> addresses;
  for (const Vulnerability& v : vulnerabilities) addresses.push_back(v.address);
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()), addresses.end());
  return addresses;
}

std::vector<CampaignResult::AddressReport> CampaignResult::merged_by_address() const {
  std::map<std::uint64_t, AddressReport> merged;
  for (const Vulnerability& v : vulnerabilities) {
    AddressReport& report = merged[v.address];
    report.address = v.address;
    ++report.hits;
    ++report.by_kind[v.spec.kind];
  }
  std::vector<AddressReport> out;
  out.reserve(merged.size());
  for (auto& [address, report] : merged) out.push_back(std::move(report));
  return out;
}

std::string CampaignResult::to_json() const {
  std::string json = "{\n";
  json += "  \"trace_length\": " + std::to_string(trace_length) + ",\n";
  json += "  \"total_faults\": " + std::to_string(total_faults) + ",\n";
  json += "  \"checkpoint_interval\": " + std::to_string(checkpoint_interval) + ",\n";
  json += "  \"snapshot_count\": " + std::to_string(snapshot_count) + ",\n";
  json += "  \"pruned_faults\": " + std::to_string(pruned_faults) + ",\n";
  json += "  \"outcomes\": {";
  bool first = true;
  for (const auto& [outcome, count] : outcome_counts) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(to_string(outcome)) + "\": " + std::to_string(count);
  }
  json += "},\n";
  json += "  \"vulnerable_points\": [";
  first = true;
  for (const AddressReport& report : merged_by_address()) {
    if (!first) json += ", ";
    first = false;
    json += "{\"address\": \"" + support::hex_string(report.address) +
            "\", \"hits\": " + std::to_string(report.hits) + ", \"by_kind\": {";
    bool first_kind = true;
    for (const auto& [kind, count] : report.by_kind) {
      if (!first_kind) json += ", ";
      first_kind = false;
      json += "\"" + std::string(kind_name(kind)) + "\": " + std::to_string(count);
    }
    json += "}}";
  }
  json += "]\n}\n";
  return json;
}

std::vector<std::uint64_t> tuple_patch_sites(const std::vector<TupleVulnerability>& tuples) {
  std::vector<std::uint64_t> sites;
  for (const TupleVulnerability& v : tuples) {
    sites.insert(sites.end(), v.hit_addresses.begin(), v.hit_addresses.end());
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

std::vector<TupleVulnerability> TupleCampaignResult::strictly_higher_order() const {
  const auto key = [](const emu::FaultSpec& spec) {
    return std::tuple(static_cast<unsigned>(spec.kind), spec.trace_index, spec.bit_offset);
  };
  std::set<std::tuple<unsigned, std::uint64_t, std::uint32_t>> single;
  for (const Vulnerability& v : order1.vulnerabilities) single.insert(key(v.spec));

  std::vector<TupleVulnerability> out;
  for (const TupleVulnerability& tuple : vulnerabilities) {
    const bool any_single =
        std::any_of(tuple.faults.begin(), tuple.faults.end(),
                    [&](const emu::FaultSpec& spec) { return single.contains(key(spec)); });
    if (!any_single) out.push_back(tuple);
  }
  return out;
}

std::vector<std::uint64_t> TupleCampaignResult::patch_sites() const {
  return tuple_patch_sites(strictly_higher_order());
}

std::map<std::vector<std::uint64_t>, std::uint64_t>
TupleCampaignResult::merged_vulnerable_tuples() const {
  std::map<std::vector<std::uint64_t>, std::uint64_t> merged;
  for (const TupleVulnerability& v : vulnerabilities) ++merged[v.addresses];
  return merged;
}

std::string TupleCampaignResult::to_json() const {
  const TupleLevelSummary empty;
  const TupleLevelSummary& top = levels.empty() ? empty : levels.back();
  const auto hex_list = [](const std::vector<std::uint64_t>& addresses) {
    std::string out = "[";
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + support::hex_string(addresses[i]) + "\"";
    }
    return out + "]";
  };
  std::string json = "{\n";
  json += "  \"order\": " + std::to_string(order) + ",\n";
  json += "  \"trace_length\": " + std::to_string(trace_length) + ",\n";
  json += "  \"pair_window\": " + std::to_string(pair_window) + ",\n";
  json += "  \"order1\": " + support::nest_json(order1.to_json()) + ",\n";
  json += "  \"levels\": [";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const TupleLevelSummary& level = levels[i];
    if (i != 0) json += ", ";
    json += "{\"order\": " + std::to_string(level.order) +
            ", \"enumerated\": " + std::to_string(level.enumerated) +
            ", \"classified\": " + std::to_string(level.classified) +
            ", \"successful\": " + std::to_string(level.successful) +
            ", \"reused_suffix\": " + std::to_string(level.reused_suffix) +
            ", \"reused_prefix\": " + std::to_string(level.reused_prefix) +
            ", \"simulated\": " + std::to_string(level.simulated) +
            ", \"converged\": " + std::to_string(level.converged) + ", \"sampled\": " +
            (level.sampled ? "true" : "false") + "}";
  }
  json += "],\n";
  json += "  \"total_tuples\": " + std::to_string(total_tuples) + ",\n";
  json += "  \"enumerated_tuples\": " + std::to_string(enumerated_tuples) + ",\n";
  json += std::string("  \"sampled\": ") + (sampled ? "true" : "false") + ",\n";
  json += "  \"max_tuples\": " + std::to_string(max_tuples) + ",\n";
  json += "  \"sample_seed\": " + std::to_string(sample_seed) + ",\n";
  json += "  \"reused_suffix\": " + std::to_string(top.reused_suffix) + ",\n";
  json += "  \"reused_prefix\": " + std::to_string(top.reused_prefix) + ",\n";
  json += "  \"simulated_tuples\": " + std::to_string(top.simulated) + ",\n";
  json += "  \"converged_tuples\": " + std::to_string(top.converged) + ",\n";
  json += "  \"strictly_higher_order\": " + std::to_string(strictly_higher_order().size()) +
          ",\n";
  json += "  \"outcomes\": {";
  bool first = true;
  for (const auto& [outcome, outcome_count] : outcome_counts) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(to_string(outcome)) +
            "\": " + std::to_string(outcome_count);
  }
  json += "},\n";
  json += "  \"vulnerable_tuples\": [";
  first = true;
  for (const auto& [addresses, hits] : merged_vulnerable_tuples()) {
    if (!first) json += ", ";
    first = false;
    json += "{\"addresses\": " + hex_list(addresses) +
            ", \"hits\": " + std::to_string(hits) + "}";
  }
  json += "],\n";
  json += "  \"patch_sites\": " + hex_list(patch_sites()) + "\n}\n";
  return json;
}

}  // namespace r2r::sim
