#include "sim/engine.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include <unordered_map>

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

/// Allocates each large per-level sweep buffer (the tuple plan, its
/// outcomes, tags, simulated indices and hit addresses: up to tens of
/// megabytes) as a page mapping of its own, which deallocation returns to
/// the system. From the heap, these buffers left holes that the result of
/// one sweep split, so a repeated sweep's peak RSS moved by up to 8 MiB
/// with the size of an unrelated allocation. Buffers under kMinMapped stay
/// on the heap: a fix-point sweeps thousands of small levels, where a
/// mapping each costs more time than it saves memory.
template <typename T>
struct PageAllocator {
  static constexpr std::size_t kMinMapped = std::size_t{1} << 20;
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t n) {
    if (n * sizeof(T) < kMinMapped) return std::allocator<T>().allocate(n);
    void* pages = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(pages);
  }
  void deallocate(T* buffer, std::size_t n) noexcept {
    if (n * sizeof(T) < kMinMapped) {
      std::allocator<T>().deallocate(buffer, n);
    } else {
      ::munmap(buffer, n * sizeof(T));
    }
  }
  friend bool operator==(const PageAllocator&, const PageAllocator&) noexcept { return true; }
};
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Chunked dynamic scheduling shared by every sweep: workers pull
/// fixed-size index ranges from a shared cursor; each owns private state
/// built by make_state() (a Machine, or nothing for the sampler). Slot i of
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

/// The classic one-machine-per-worker shard (order-1 profile, per-tuple
/// simulation). `block_cache` selects the worker machines' dispatch mode.
template <typename PerItem>
void run_sharded(const elf::Image& image, const std::string& stdin_data, bool block_cache,
                 unsigned configured_threads, std::size_t count, const char* span_label,
                 obs::Progress* progress, const PerItem& per_item) {
  run_sharded_state(
      configured_threads, count, /*chunk=*/64, span_label, progress,
      [&]() {
        emu::Machine machine(image, stdin_data);
        machine.set_block_cache_enabled(block_cache);
        return machine;
      },
      per_item);
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
/// which gives exact O(window)-per-step ranking and unranking of tuples
/// within the canonical order — the basis of both the recursive outcome
/// lookup (suffix tuple → its rank in the previous level) and the budgeted
/// sampling (rank → tuple). Counts saturate at kTupleCountCap; a saturated
/// space is refused before anything depends on exact arithmetic.
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

/// Rank of `tuple` (arity order-1 plan indices) within the canonical
/// level-`arity` enumeration. Exact for non-saturated spaces.
std::uint64_t tuple_rank(const TupleSpace& space, const std::vector<PlannedFault>& plan,
                         const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                         const std::uint32_t* tuple, std::size_t arity) {
  std::uint64_t rank = space.group_prefix[arity][tuple[0]];
  std::uint64_t cur = plan[tuple[0]].spec.trace_index;
  for (std::size_t j = 1; j < arity; ++j) {
    const auto s = static_cast<unsigned>(arity - j);
    const std::uint32_t g = tuple[j];
    const std::uint64_t t = plan[g].spec.trace_index;
    for (std::uint64_t u = cur + 1; u < t; ++u) {
      rank += (ranges[u].second - ranges[u].first) * space.subtree[s][u];
    }
    rank += (g - ranges[t].first) * space.subtree[s][t];
    cur = t;
  }
  return rank;
}

/// Inverse of tuple_rank restricted to one first-fault group: materialises
/// the tuple with first fault `first` and rank `rank` within its subtree.
void tuple_unrank(const TupleSpace& space, const std::vector<PlannedFault>& plan,
                  const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                  std::uint32_t first, std::uint64_t rank, std::size_t arity,
                  std::uint32_t* out) {
  out[0] = first;
  std::uint64_t cur = plan[first].spec.trace_index;
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
  }
}

/// Materialises the full level-`arity` enumeration (canonical order) into
/// `flat`, arity plan indices per tuple.
void emit_level(const TupleSpace& space, const std::vector<PlannedFault>& plan,
                const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                std::size_t arity, PageVector<std::uint32_t>& flat) {
  const std::uint64_t trace_length = ranges.size();
  std::vector<std::uint32_t> stack(arity);
  const auto rec = [&](const auto& self, std::size_t depth, std::uint64_t cur) -> void {
    if (depth == arity) {
      flat.insert(flat.end(), stack.begin(), stack.end());
      return;
    }
    const auto s = static_cast<unsigned>(arity - depth);
    const std::uint64_t last = std::min(cur + space.window, trace_length - 1);
    for (std::uint64_t t = cur + 1; t <= last; ++t) {
      if (space.subtree[s][t] == 0) continue;  // no completions from here
      for (std::size_t j = ranges[t].first; j < ranges[t].second; ++j) {
        stack[depth] = static_cast<std::uint32_t>(j);
        self(self, depth + 1, t);
      }
    }
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (space.subtree[arity][plan[i].spec.trace_index] == 0) continue;
    stack[0] = static_cast<std::uint32_t>(i);
    rec(rec, 1, plan[i].spec.trace_index);
  }
}

/// Draws exactly `budget` distinct level-`arity` tuples, rank-uniform over
/// the whole space, into canonical-order `flat`. Deterministic in
/// (seed, plan) only: the budget is split across first-fault groups by the
/// cumulative-floor rule (group g gets floor(B·cum[g+1]/N) −
/// floor(B·cum[g]/N) tuples, which sums to exactly B and lands each group's
/// output at offset floor(B·cum[g]/N)), and within a group the ranks are
/// drawn by Floyd's distinct-sampling with an Rng::for_stream substream
/// keyed on the group's shard — never on worker threads — so the sampled
/// set is identical at every thread count.
PageVector<std::uint32_t> sample_level(
    const TupleSpace& space, const std::vector<PlannedFault>& plan,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges, std::size_t arity,
    std::uint64_t budget, std::uint64_t seed, unsigned threads) {
  using u128 = unsigned __int128;
  const std::vector<std::uint64_t>& cum = space.group_prefix[arity];
  const std::uint64_t total = cum.back();
  // Output offset of group g under the cumulative-floor split.
  const auto offset_of = [&](std::size_t g) {
    return static_cast<std::uint64_t>(static_cast<u128>(budget) * cum[g] / total);
  };

  PageVector<std::uint32_t> flat(budget * arity);
  const std::size_t shards =
      std::max<std::size_t>(1, std::min<std::size_t>(256, plan.size()));
  run_sharded_state(
      threads, shards, /*chunk=*/1, "sim.tuple_sampler", nullptr, []() { return 0; },
      [&](int&, std::size_t shard) {
        support::Rng rng = support::Rng::for_stream(seed, static_cast<unsigned>(shard));
        const std::size_t lo = shard * plan.size() / shards;
        const std::size_t hi = (shard + 1) * plan.size() / shards;
        std::vector<std::uint64_t> picks;
        std::unordered_set<std::uint64_t> seen;
        for (std::size_t g = lo; g < hi; ++g) {
          const std::uint64_t quota = offset_of(g + 1) - offset_of(g);
          if (quota == 0) continue;
          const std::uint64_t group_size = space.subtree[arity][plan[g].spec.trace_index];
          picks.clear();
          seen.clear();
          if (quota >= group_size) {
            for (std::uint64_t r = 0; r < group_size; ++r) picks.push_back(r);
          } else {
            // Floyd: for r in [size-quota, size), pick uniform v in [0, r];
            // on collision take r itself (guaranteed fresh).
            for (std::uint64_t r = group_size - quota; r < group_size; ++r) {
              const std::uint64_t v = rng.next_below(r + 1);
              picks.push_back(seen.insert(v).second ? v : r);
              if (picks.back() == r && v != r) seen.insert(r);
            }
            std::sort(picks.begin(), picks.end());
          }
          std::uint64_t slot = offset_of(g);
          for (const std::uint64_t rank : picks) {
            tuple_unrank(space, plan, ranges, static_cast<std::uint32_t>(g), rank, arity,
                         &flat[slot * arity]);
            ++slot;
          }
        }
      });
  return flat;
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

Engine::FaultProfile Engine::finish_with_pruning(emu::Machine& machine,
                                                 const emu::FaultSpec& fault,
                                                 std::uint64_t boundary,
                                                 std::atomic<std::uint64_t>& pruned) const {
  FaultProfile profile;
  const auto finish = [&](StopReason reason) {
    profile.outcome = classify_stopped(machine, reason);
    // A terminated run pins the step past which a further fault can no
    // longer fire; a fuel-exhausted (hang) run never terminates.
    if (reason != StopReason::kFuelExhausted) profile.end_step = machine.steps();
    return profile;
  };

  const std::optional<emu::FaultSpec> armed = fault;
  if (!config_.convergence_pruning) return finish(machine.advance(fuel_, armed));

  // Run to each checkpoint boundary past the injection; if the faulted
  // machine is back in the golden state there, its future is the golden
  // future — classify without simulating the suffix.
  while (true) {
    const std::uint64_t fuel = std::min(boundary, fuel_);
    const StopReason reason = machine.advance(fuel, armed);
    if (reason != StopReason::kFuelExhausted || fuel >= fuel_) {
      return finish(reason);
    }
    const std::size_t checkpoint = boundary / interval_;
    if (checkpoint >= chain_.size()) {
      // Past the last golden checkpoint; no reference state to compare.
      return finish(machine.advance(fuel_, armed));
    }
    if (same_state(chain_[checkpoint], machine)) {
      pruned.fetch_add(1, std::memory_order_relaxed);
      profile.outcome = bad_reference_outcome_;
      profile.reconverge_step = boundary;
      profile.end_step = refs_.bad_reference.steps;
      return profile;
    }
    boundary += interval_;
  }
}

Engine::FaultProfile Engine::profile_one(emu::Machine& machine, const PlannedFault& fault,
                                         std::atomic<std::uint64_t>& pruned) const {
  const std::uint64_t index = fault.spec.trace_index;
  const std::size_t nearest =
      std::min<std::size_t>(index / interval_, chain_.size() - 1);
  timed_restore(chain_[nearest], machine);
  return finish_with_pruning(machine, fault.spec, (index / interval_ + 1) * interval_,
                             pruned);
}

void Engine::profile_all(const std::vector<PlannedFault>& plan,
                         std::vector<FaultProfile>& profiles,
                         std::atomic<std::uint64_t>& pruned, obs::Progress& progress) const {
  profiles.assign(plan.size(), FaultProfile{});
  run_sharded(image_, bad_input_, config_.block_cache, config_.threads, plan.size(),
              "sim.worker", &progress, [&](emu::Machine& machine, std::size_t i) {
                profiles[i] = profile_one(machine, plan[i], pruned);
              });
}

CampaignResult Engine::aggregate_order1(const std::vector<PlannedFault>& plan,
                                        const std::vector<Outcome>& outcomes,
                                        std::uint64_t pruned) const {
  CampaignResult result;
  result.trace_length = refs_.bad_trace.size();
  result.total_faults = plan.size();
  result.checkpoint_interval = interval_;
  result.snapshot_count = chain_.size();
  result.pruned_faults = pruned;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++result.outcome_counts[outcomes[i]];
    if (outcomes[i] == Outcome::kSuccess) {
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
  profile_all(plan, profiles, pruned_total, progress);
  const std::uint64_t sweep_ns = obs::now_ns() - sweep_begin;

  std::vector<Outcome> outcomes(plan.size(), Outcome::kNoEffect);
  for (std::size_t i = 0; i < plan.size(); ++i) outcomes[i] = profiles[i].outcome;
  CampaignResult result = aggregate_order1(plan, outcomes, pruned_total.load());
  record_order1_metrics(result);
  if (sweep_ns > 0) {
    obs::Metrics::instance().gauge("sim.faults_per_second")
        .set(static_cast<std::int64_t>(plan.size() * 1'000'000'000ull / sweep_ns));
  }
  return result;
}

Outcome Engine::simulate_tuple(emu::Machine& machine, const std::uint32_t* tuple,
                               std::size_t arity, const std::vector<PlannedFault>& plan,
                               std::uint64_t* hits,
                               std::atomic<std::uint64_t>& converged) const {
  const std::uint64_t t1 = plan[tuple[0]].spec.trace_index;
  const std::size_t nearest = std::min<std::size_t>(t1 / interval_, chain_.size() - 1);
  timed_restore(chain_[nearest], machine);

  // Legs 1..arity-1: run with fault i armed, pausing just before fault
  // i+1's injection point. A leg that terminates classifies the whole tuple
  // (the remaining faults never fire; their hit slots keep the caller's
  // golden pre-fill, matching what the reuse rules report for the tuple).
  for (std::size_t leg = 1; leg < arity; ++leg) {
    const std::uint64_t fuel = std::min(plan[tuple[leg]].spec.trace_index, fuel_);
    const StopReason reason = machine.advance(fuel, plan[tuple[leg - 1]].spec);
    if (reason != StopReason::kFuelExhausted || fuel >= fuel_) {
      return classify_stopped(machine, reason);
    }
    // Paused exactly before dynamic step t(leg): rip is the instruction the
    // next fault actually strikes.
    hits[leg - 1] = machine.cpu().rip;
  }

  // Final leg: the last fault armed, with the same convergence pruning as
  // the order-1 sweep past its injection point.
  const std::uint64_t t_last = plan[tuple[arity - 1]].spec.trace_index;
  return finish_with_pruning(machine, plan[tuple[arity - 1]].spec,
                             (t_last / interval_ + 1) * interval_, converged)
      .outcome;
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

  // ---- phase A: profile every single fault (the order-1 sweep plus the
  // reconvergence/termination metadata every level prunes with).
  std::vector<FaultProfile> profiles;
  std::atomic<std::uint64_t> pruned_total{0};
  {
    obs::Span span("sim.tuples_profile", obs::args_u64({{"faults", plan.size()}}));
    obs::Progress progress("order-" + std::to_string(order) + " profile", plan.size());
    profile_all(plan, profiles, pruned_total, progress);
  }
  std::vector<Outcome> order1_outcomes(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    order1_outcomes[i] = profiles[i].outcome;
  }
  result.order1 = aggregate_order1(plan, order1_outcomes, pruned_total.load());
  record_order1_metrics(result.order1);

  const bool reuse = config_.pair_outcome_reuse && config_.convergence_pruning;
  enum : std::uint8_t { kSimulate = 0, kFromSuffix = 1, kFromPrefix = 2 };

  // ---- levels m = 2..k, bottom-up. Each level is classified against the
  // previous one: a first fault that reconverged with golden before the
  // second strikes reduces the m-tuple to its (m-1)-tail on the golden run
  // (outcome looked up by the tail's rank in level m-1), and one that
  // terminated reduces it to the first fault alone. Both rules are exact,
  // so the pruning compounds across levels without losing bit-identity.
  PageVector<Outcome> prev_outcomes;                                // level m-1, by rank
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> prev_hits;
  for (unsigned m = 2; m <= order; ++m) {
    TupleLevelSummary level;
    level.order = m;
    level.enumerated = space.level_count(m);
    const bool top = m == order;

    PageVector<std::uint32_t> flat;
    if (top && models.max_tuples != 0 && level.enumerated > models.max_tuples) {
      check(!space.saturated && level.enumerated < kTupleCountCap, ErrorKind::kExecution,
            "order-k sweep: tuple space exceeds 2^63; narrow the fault models "
            "or pair_window");
      level.sampled = true;
      level.classified = models.max_tuples;
      obs::Span span("sim.tuples_sample",
                     obs::args_u64({{"order", m}, {"budget", models.max_tuples}}));
      flat = sample_level(space, plan, ranges, m, models.max_tuples, models.sample_seed,
                          config_.threads);
    } else {
      check(level.enumerated <= config_.max_planned_tuples, ErrorKind::kExecution,
            "order-k sweep: level " + std::to_string(m) + " materialises " +
                std::to_string(level.enumerated) +
                " tuples, over EngineConfig::max_planned_tuples (" +
                std::to_string(config_.max_planned_tuples) + "); " +
                (top ? "set FaultModels::max_tuples to sample the top level"
                     : "narrow the fault models or pair_window"));
      level.classified = level.enumerated;
      flat.reserve(static_cast<std::size_t>(level.enumerated) * m);
      emit_level(space, plan, ranges, m, flat);
    }
    const std::size_t count = flat.size() / m;

    // Classification by recursive outcome reuse.
    PageVector<Outcome> outcomes(count, Outcome::kNoEffect);
    PageVector<std::uint8_t> tags(count, kSimulate);
    {
      obs::Span span("sim.tuples_reuse",
                     obs::args_u64({{"order", m}, {"tuples", count}}));
      if (reuse) {
        for (std::size_t n = 0; n < count; ++n) {
          const std::uint32_t* tuple = &flat[n * m];
          const FaultProfile& first = profiles[tuple[0]];
          const std::uint64_t t2 = plan[tuple[1]].spec.trace_index;
          if (t2 >= first.reconverge_step) {
            outcomes[n] =
                m == 2 ? profiles[tuple[1]].outcome
                       : prev_outcomes[tuple_rank(space, plan, ranges, tuple + 1, m - 1)];
            tags[n] = kFromSuffix;
            ++level.reused_suffix;
          } else if (t2 >= first.end_step) {
            outcomes[n] = first.outcome;
            tags[n] = kFromPrefix;
            ++level.reused_prefix;
          }
        }
      }
    }

    // Simulate only what reuse could not prove.
    PageVector<std::size_t> sim_indices;
    sim_indices.reserve(
        static_cast<std::size_t>(std::count(tags.begin(), tags.end(), kSimulate)));
    for (std::size_t n = 0; n < count; ++n) {
      if (tags[n] == kSimulate) sim_indices.push_back(n);
    }
    // Hit slots pre-filled with golden addresses: legs the simulator never
    // reaches (early termination) keep them, mirroring the reuse rules.
    PageVector<std::uint64_t> sim_hits(sim_indices.size() * (m - 1), 0);
    for (std::size_t s = 0; s < sim_indices.size(); ++s) {
      const std::uint32_t* tuple = &flat[sim_indices[s] * m];
      for (std::size_t l = 1; l < m; ++l) {
        sim_hits[s * (m - 1) + (l - 1)] = plan[tuple[l]].address;
      }
    }
    std::atomic<std::uint64_t> converged_total{0};
    if (!sim_indices.empty()) {
      obs::Span span("sim.tuples_simulate",
                     obs::args_u64({{"order", m}, {"tuples", sim_indices.size()}}));
      obs::Progress progress("order-" + std::to_string(order) + " tuple sweep (level " +
                                 std::to_string(m) + ")",
                             sim_indices.size());
      run_sharded(image_, bad_input_, config_.block_cache, config_.threads,
                  sim_indices.size(), "sim.tuple_worker", &progress,
                  [&](emu::Machine& machine, std::size_t s) {
                    const std::size_t n = sim_indices[s];
                    outcomes[n] = simulate_tuple(machine, &flat[n * m], m, plan,
                                                 &sim_hits[s * (m - 1)], converged_total);
                  });
    }
    level.simulated = sim_indices.size();
    level.converged = converged_total.load();

    // Aggregation: top level feeds the result, lower levels feed the next
    // level's outcome/hit lookups. Exhaustive levels are enumerated in rank
    // order, so slot n *is* rank n.
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cur_hits;
    std::size_t sim_cursor = 0;
    for (std::size_t n = 0; n < count; ++n) {
      const std::uint32_t* tuple = &flat[n * m];
      const bool simulated =
          sim_cursor < sim_indices.size() && sim_indices[sim_cursor] == n;
      const std::size_t sim_slot = sim_cursor;
      if (simulated) ++sim_cursor;
      if (top) ++result.outcome_counts[outcomes[n]];
      if (outcomes[n] != Outcome::kSuccess) continue;
      ++level.successful;

      // Addresses faults 2..m actually struck (fault 1 always hits golden).
      std::vector<std::uint64_t> hits(m - 1);
      if (simulated) {
        for (std::size_t l = 0; l + 1 < m; ++l) {
          hits[l] = sim_hits[sim_slot * (m - 1) + l];
        }
      } else {
        for (std::size_t l = 1; l < m; ++l) hits[l - 1] = plan[tuple[l]].address;
        if (tags[n] == kFromSuffix && m > 2) {
          // The tail replays on golden: its own tail's recorded hits apply.
          const std::uint64_t tail_rank =
              tuple_rank(space, plan, ranges, tuple + 1, m - 1);
          const std::vector<std::uint64_t>& tail_hits = prev_hits.at(tail_rank);
          for (std::size_t l = 0; l < tail_hits.size(); ++l) hits[l + 1] = tail_hits[l];
        }
      }

      if (top) {
        TupleVulnerability v;
        v.faults.reserve(m);
        v.addresses.reserve(m);
        v.hit_addresses.reserve(m);
        v.faults.push_back(plan[tuple[0]].spec);
        v.addresses.push_back(plan[tuple[0]].address);
        v.hit_addresses.push_back(plan[tuple[0]].address);
        for (std::size_t l = 1; l < m; ++l) {
          v.faults.push_back(plan[tuple[l]].spec);
          v.addresses.push_back(plan[tuple[l]].address);
          v.hit_addresses.push_back(hits[l - 1]);
        }
        result.vulnerabilities.push_back(std::move(v));
      } else {
        cur_hits.emplace(n, std::move(hits));
      }
    }
    if (!top) {
      prev_outcomes = std::move(outcomes);
      prev_hits = std::move(cur_hits);
    }
    result.levels.push_back(level);
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
