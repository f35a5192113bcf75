// r2r::sim — snapshot-based parallel fault-simulation engine.
//
// The engine answers the question the paper's faulter (Fig. 2) asks —
// "what does every allowed fault at every dynamic instruction do to the
// bad-input run?" — without the seed's O(trace²) full-replay sweep:
//
//   1. One golden bad-input run is recorded and checkpointed every
//      `interval` steps into a chain of copy-on-write MachineSnapshots
//      (SnapshotPolicy tunes the interval to the trace length).
//   2. The (trace-index × fault-model) sweep is enumerated up front into a
//      flat, deterministically ordered fault plan.
//   3. A FaultScheduler shards the plan across N worker threads. Each
//      worker owns a private Machine, rehydrates it from the nearest
//      checkpoint at or before the injection point, injects, and runs.
//   4. A faulted run that returns to the golden machine state at the next
//      checkpoint boundary is classified immediately with the golden
//      outcome (convergence pruning): a deterministic machine in an
//      identical state has an identical future. This prunes the long
//      common suffix of masked faults. Order-k sweeps also compare each
//      step of the pair window against a golden machine run in lockstep,
//      so a fault set whose first fault is masked before the next one
//      strikes reuses the outcome of its tail.
//   5. Outcomes land in a slot-per-fault result vector, so aggregation
//      order — and therefore every counter and the vulnerability list —
//      is identical regardless of thread count.
//
// fault::run_campaign is a thin client of this engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "elf/image.h"
#include "emu/machine.h"
#include "patch/detected_exit.h"
#include "sim/snapshot.h"

namespace r2r::obs {
class Progress;
}

namespace r2r::sim {

/// Classification of one faulted run against the golden references.
enum class Outcome : std::uint8_t {
  kNoEffect,       ///< still behaves like the bad-input reference
  kSuccess,        ///< behaves like the good-input reference: VULNERABLE
  kCrash,          ///< memory fault / invalid opcode / trap
  kHang,           ///< fuel exhausted
  kDetected,       ///< countermeasure fired (fault-handler exit code)
  kOtherBehavior,  ///< none of the above (e.g. garbled output)
};

std::string_view to_string(Outcome outcome) noexcept;

/// Short fault-model-kind name used in JSON artifacts and reports
/// ("skip", "bit-flip", "register-flip", "flag-flip").
std::string_view kind_name(emu::FaultSpec::Kind kind) noexcept;

/// One successful fault: where it hit and what it was.
struct Vulnerability {
  emu::FaultSpec spec;
  std::uint64_t address = 0;  ///< static address of the faulted instruction

  friend bool operator==(const Vulnerability&, const Vulnerability&) = default;
};

/// Which faults to enumerate at each dynamic instruction (mirrors the
/// paper's models plus the r2r extensions).
struct FaultModels {
  bool skip = true;
  bool bit_flip = true;
  bool register_flip = false;
  bool flag_flip = false;
  /// Register numbers, each below the size of emu::Cpu::gpr.
  std::vector<unsigned> register_flip_regs = {0, 1, 2, 3, 6, 7};
  unsigned register_flip_bit_stride = 8;

  /// Campaign order: 1 sweeps single faults (Engine::run), k >= 2 sweeps
  /// fault k-tuples (f1 at t1, ..., fk at tk) with every consecutive gap
  /// 0 < t(i+1) - t(i) <= pair_window (Engine::run_tuples; k = 2 is the
  /// fault-pair sweep). All faults of a set draw from the same model set
  /// above. Each entry point rejects models of the other orders, so an
  /// order-k request can never silently degrade to a lower-order sweep.
  unsigned order = 1;
  std::uint64_t pair_window = 8;

  /// Order-k (>= 2) sweeps: budget on the number of k-tuples classified at
  /// the top level. 0 sweeps the whole space. A non-zero budget smaller
  /// than the space switches the top level to seeded sampling: a
  /// rank-uniform subset of exactly `max_tuples` tuples, drawn with
  /// support::Rng::for_stream(sample_seed, shard) keyed on shards of the
  /// order-1 fault plan (never on threads), so the sampled set is identical
  /// at every thread count. Intermediate levels (the recursive pruning
  /// base) are always exhaustive.
  std::uint64_t max_tuples = 0;
  std::uint64_t sample_seed = 0x5eed;
};

/// One model switch of FaultModels under its CLI-facing name.
struct FaultModelSwitch {
  std::string_view name;
  bool FaultModels::*enabled;
};

/// The model switches above, in enumeration order ("skip", "bit_flip",
/// "register_flip", "flag_flip"): the one list of fault models. A model
/// added to FaultModels belongs in it so every name-driven surface (the
/// r2r `--model` flag, batch configs, the r2rd wire's `model_<name>`
/// fields) picks it up without a second edit.
std::span<const FaultModelSwitch> fault_model_switches();

/// The names of fault_model_switches(), in the same order.
const std::vector<std::string_view>& fault_model_names();

/// Sets the named model knob on `models`; returns false (and leaves
/// `models` untouched) when `name` is not in fault_model_names().
bool set_fault_model(FaultModels& models, std::string_view name, bool enabled);

/// One planned injection of the sweep, in deterministic enumeration order.
struct PlannedFault {
  emu::FaultSpec spec;
  std::uint64_t address = 0;
};

/// Expands the (trace-index × fault-model) product into a flat plan.
/// The order is the canonical campaign order: ascending trace index, and
/// per index skip → bit flips → register flips → flag flips. Throws
/// Error{kInvalidArgument} when register flips are on and
/// `register_flip_regs` names a register outside emu::Cpu::gpr.
std::vector<PlannedFault> enumerate_faults(const FaultModels& models,
                                           const std::vector<emu::TraceEntry>& trace);

/// Number of order-`models.order` fault tuples under the consecutive-gap
/// window rule — the saturating dynamic-programming pre-count run_tuples
/// plans with. Saturates at 2^63 (the sweep refuses such spaces anyway).
std::uint64_t count_fault_tuples(const FaultModels& models,
                                 const std::vector<emu::TraceEntry>& trace);

/// Checkpoint-interval policy. The default tunes the interval to roughly
/// sqrt(trace length): checkpoint memory grows with the square root of the
/// trace while the replay prefix per injection stays bounded by the same
/// square root — the classic snapshot-sweep balance point.
struct SnapshotPolicy {
  static constexpr std::uint64_t min_interval = 16;
  static constexpr std::uint64_t max_interval = 8192;
  /// When set, overrides the sqrt heuristic.
  std::optional<std::uint64_t> fixed_interval;

  [[nodiscard]] std::uint64_t interval_for(std::uint64_t trace_length) const noexcept;
};

/// Golden (fault-free) references for both inputs, plus the recorded
/// bad-input trace the sweep iterates over. Construction throws
/// Error{kExecution} when the binary does not show the expected
/// differential behaviour (same checks as the seed faulter).
struct References {
  emu::RunResult good_reference;
  emu::RunResult bad_reference;
  std::vector<emu::TraceEntry> bad_trace;
};

/// `block_cache` selects the emulator dispatch mode for the reference runs
/// (default: cached). The two modes are step-for-step identical; the flag
/// exists so benches can time a fully uncached pipeline.
References make_references(const elf::Image& image, const std::string& good_input,
                           const std::string& bad_input, bool block_cache = true);

/// The classify core: one faulted run, given as how it stopped, its exit
/// code (-1 unless it exited) and its output, against the two golden
/// references. The engine calls it straight from a paused machine's
/// status, without building a RunResult.
Outcome classify(const emu::RunResult& good_reference,
                 const emu::RunResult& bad_reference, emu::StopReason reason,
                 std::int64_t exit_code, std::string_view output,
                 int detected_exit_code) noexcept;

/// Classifies one faulted run against the two golden references.
inline Outcome classify(const emu::RunResult& good_reference,
                        const emu::RunResult& bad_reference, const emu::RunResult& run,
                        int detected_exit_code) noexcept {
  return classify(good_reference, bad_reference, run.reason, run.exit_code, run.output,
                  detected_exit_code);
}

inline Outcome classify(const References& refs, const emu::RunResult& run,
                        int detected_exit_code) noexcept {
  return classify(refs.good_reference, refs.bad_reference, run, detected_exit_code);
}

struct EngineConfig {
  /// Worker threads for the sweep; 0 means hardware concurrency. Results
  /// are bit-identical for every value.
  unsigned threads = 1;
  SnapshotPolicy policy;
  /// Faulted runs get fuel = golden_bad_steps * multiplier + slack; runs
  /// that exceed it classify as kHang.
  static constexpr std::uint64_t fuel_multiplier = 8;
  static constexpr std::uint64_t fuel_slack = 4096;
  /// Classify a faulted run as soon as it provably reconverges with the
  /// golden run at a checkpoint boundary (sound: the machine is
  /// deterministic). Disable to force every run to completion.
  bool convergence_pruning = true;
  /// Order-k (>= 2) sweeps: classify a fault set without simulating it
  /// whenever the order-1 profile of its first fault proves the answer —
  /// the first fault's run reconverged with golden before the second
  /// strikes (set ≡ its tail alone), or terminated before the second
  /// strikes (set ≡ first fault alone). Reconvergence is checked at every
  /// step of the pair window before the next checkpoint, against a golden
  /// machine run in lockstep, and at every checkpoint boundary after it.
  /// Exact, hence bit-identical to exhaustive enumeration; requires
  /// convergence_pruning. Disable to force every set through the simulator.
  bool pair_outcome_reuse = true;
  /// Order-k (>= 2) sweeps classify one level at a time and hold one
  /// Outcome byte per tuple of it. A level that would exceed this cap
  /// throws Error{kExecution} — except the top level, which falls back to
  /// seeded sampling when FaultModels::max_tuples allows it.
  std::uint64_t max_planned_tuples = 1ULL << 24;
  /// Execute every engine machine (references, checkpoint recorder, sweep
  /// workers) through the emu decoded-block cache. Off reverts to per-step
  /// fetch+decode — the bench baseline. Classification is bit-identical
  /// either way.
  bool block_cache = true;
};

/// Sweep outcome aggregation (deterministic across thread counts).
struct CampaignResult {
  std::vector<Vulnerability> vulnerabilities;
  std::map<Outcome, std::uint64_t> outcome_counts;
  std::uint64_t total_faults = 0;
  std::uint64_t trace_length = 0;

  // Engine telemetry.
  std::uint64_t checkpoint_interval = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t pruned_faults = 0;  ///< classified via convergence pruning

  [[nodiscard]] std::uint64_t count(Outcome outcome) const {
    const auto it = outcome_counts.find(outcome);
    return it == outcome_counts.end() ? 0 : it->second;
  }
  /// Distinct static instruction addresses with at least one successful
  /// fault — the paper's "number of vulnerable points".
  [[nodiscard]] std::vector<std::uint64_t> vulnerable_addresses() const;

  /// Per-address merge of the vulnerability list.
  struct AddressReport {
    std::uint64_t address = 0;
    std::uint64_t hits = 0;  ///< successful faults at this static address
    std::map<emu::FaultSpec::Kind, std::uint64_t> by_kind;
  };
  [[nodiscard]] std::vector<AddressReport> merged_by_address() const;

  /// JSON document for downstream tooling: outcome counters, engine
  /// telemetry, and the per-address vulnerability merge.
  [[nodiscard]] std::string to_json() const;
};

/// One successful fault k-tuple: an order-k breach of the binary. The
/// faults are in ascending trace-index order; `addresses` are the golden
/// static addresses of the faulted trace entries, `hit_addresses` the
/// addresses each fault *actually* struck. They diverge once an earlier
/// fault of the tuple redirects control (e.g. skips a branch): the faulted
/// run leaves the golden trace, so the instruction at a later fault's step
/// is a different one — the address a patcher must strengthen. A fault
/// whose run reconverged with (or terminated before) the next injection
/// leaves the next hit address golden. run_tuples records them by one
/// replay of each successful tuple through the simulator, however the
/// sweep classified it. Deterministic: identical across thread counts and
/// across pruned/exhaustive sweeps.
struct TupleVulnerability {
  std::vector<emu::FaultSpec> faults;
  std::vector<std::uint64_t> addresses;
  std::vector<std::uint64_t> hit_addresses;

  friend bool operator==(const TupleVulnerability&, const TupleVulnerability&) = default;
};

/// Tuple → static-site attribution: the distinct addresses the faults of
/// `tuples` actually struck — sorted, deduplicated (the first fault of a set
/// always strikes its golden address). The one attribution rule shared by
/// TupleCampaignResult::patch_sites(), the patcher and the pipeline.
std::vector<std::uint64_t> tuple_patch_sites(const std::vector<TupleVulnerability>& tuples);

/// Per-level telemetry of an order-k sweep. run_tuples computes every level
/// m = 2..k bottom-up (a reconverged or terminated prefix reduces an
/// m-tuple to the (m-1)-tuple of its tail, so level m prunes against level
/// m-1); the summaries expose how much of each level the recursion proved
/// without simulating, and how much order-m residue is left.
struct TupleLevelSummary {
  unsigned order = 0;
  std::uint64_t enumerated = 0;     ///< full combinatorial level size
  std::uint64_t classified = 0;     ///< == enumerated unless this level sampled
  std::uint64_t successful = 0;     ///< classified tuples with Outcome::kSuccess
  std::uint64_t reused_suffix = 0;  ///< prefix reconverged: tuple ≡ its (m-1)-tail
  std::uint64_t reused_prefix = 0;  ///< prefix terminated: tuple ≡ its first fault
  std::uint64_t simulated = 0;      ///< tuples that went through the simulator
  std::uint64_t converged = 0;      ///< simulated runs cut at a checkpoint
  bool sampled = false;             ///< top level only, when max_tuples binds
};

/// Campaign aggregation at any order, deterministic across thread counts.
/// Carries the order-1 sweep plus one TupleLevelSummary per recursion level
/// 2..k; `vulnerabilities` and `outcome_counts` describe the top level only.
/// An order-1 campaign has an empty `levels` and empty top-level fields:
/// its whole sweep sits in `order1`.
struct TupleCampaignResult {
  unsigned order = 0;
  std::vector<TupleVulnerability> vulnerabilities;
  std::map<Outcome, std::uint64_t> outcome_counts;  ///< per classified k-tuple
  std::uint64_t total_tuples = 0;       ///< classified at the top level
  std::uint64_t enumerated_tuples = 0;  ///< full top-level space
  std::uint64_t trace_length = 0;
  std::uint64_t pair_window = 0;
  /// True when FaultModels::max_tuples bound the top level; the classified
  /// set is then the seeded rank-uniform sample drawn with `sample_seed`.
  bool sampled = false;
  std::uint64_t max_tuples = 0;
  std::uint64_t sample_seed = 0;

  /// The order-1 sweep over the same models (phase A); bit-identical to
  /// Engine::run(models).
  CampaignResult order1;
  std::vector<TupleLevelSummary> levels;  ///< orders 2..k, ascending

  [[nodiscard]] std::uint64_t count(Outcome outcome) const {
    const auto it = outcome_counts.find(outcome);
    return it == outcome_counts.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t reused_tuples() const noexcept {
    return levels.empty() ? 0 : levels.back().reused_suffix + levels.back().reused_prefix;
  }
  [[nodiscard]] std::uint64_t simulated_tuples() const noexcept {
    return levels.empty() ? 0 : levels.back().simulated;
  }
  /// Successful top-level tuples none of whose faults succeeds alone.
  [[nodiscard]] std::vector<TupleVulnerability> strictly_higher_order() const;
  /// Distinct static addresses an order-k patcher must strengthen beyond
  /// order-1 patching: every address a strictly-order-k tuple's faults
  /// actually struck. Sorted, deduplicated.
  [[nodiscard]] std::vector<std::uint64_t> patch_sites() const;
  /// Successful tuples merged by their golden address vector.
  [[nodiscard]] std::map<std::vector<std::uint64_t>, std::uint64_t>
  merged_vulnerable_tuples() const;

  /// The one campaign JSON document (schema in docs/formats.md): keyed by
  /// `order` and `levels`, with the order-1 sweep nested as `order1`.
  [[nodiscard]] std::string to_json() const;
};

/// The reusable engine: build once per (image, input pair), sweep many
/// fault models against the same snapshot chain.
class Engine {
 public:
  /// Records the golden references and the checkpoint chain. Throws
  /// Error{kExecution} on non-differential behaviour.
  Engine(elf::Image image, std::string good_input, std::string bad_input,
         EngineConfig config = {});

  /// Runs the full sweep for `models`. The sweep spawns and joins its own
  /// worker threads; run one sweep at a time per engine.
  CampaignResult run(const FaultModels& models) const;

  /// Runs the order-k sweep for `models.order >= 2`: phase A profiles every
  /// single fault, then every level m = 2..k is classified bottom-up — by
  /// recursive outcome reuse where a profile proves the answer (a first
  /// fault that reconverged before the second strikes reduces the m-tuple
  /// to its (m-1)-tail; one that terminated reduces it to the first fault
  /// alone), through the multi-leg simulator otherwise. Intermediate levels
  /// are exhaustive; the top level honours FaultModels::max_tuples via
  /// seeded sampling. Each successful top-level tuple is then replayed once
  /// to record its hit addresses. Bit-identical across thread counts and
  /// across pair_outcome_reuse / convergence_pruning on/off (restricted to
  /// the same classified set).
  TupleCampaignResult run_tuples(const FaultModels& models) const;

  [[nodiscard]] const References& references() const noexcept { return refs_; }
  [[nodiscard]] std::uint64_t checkpoint_interval() const noexcept { return interval_; }
  [[nodiscard]] std::size_t snapshot_count() const noexcept { return chain_.size(); }
  /// Distinct pages held by the whole checkpoint chain — the COW resident
  /// set. A full-copy chain would hold snapshot_count × address-space
  /// pages; the gap between the two is the sharing win.
  [[nodiscard]] std::size_t chain_unique_pages() const noexcept { return chain_pages_; }
  [[nodiscard]] std::size_t chain_resident_bytes() const noexcept { return chain_bytes_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  static constexpr std::uint64_t kNeverStep = ~std::uint64_t{0};

  /// What one first fault does on its own: the order-1 outcome plus the two
  /// step counts the order-k sweep prunes with. kNeverStep means "not before
  /// the run ended / not observed".
  struct FaultProfile {
    Outcome outcome = Outcome::kNoEffect;
    /// First step where the full faulted state matched golden: a step of
    /// the pair window before the next checkpoint boundary (order-k sweeps
    /// with outcome reuse only), else a boundary. From here on the run
    /// provably replays the golden future.
    std::uint64_t reconverge_step = kNeverStep;
    /// Step count at which the run terminated (exit/crash). A second fault
    /// at t2 >= end_step never fires.
    std::uint64_t end_step = kNeverStep;
  };

  /// Classifies the run `machine` just stopped (`reason` from advance())
  /// from its status, exit code and output.
  [[nodiscard]] Outcome classify_stopped(const emu::Machine& machine,
                                         emu::StopReason reason) const noexcept {
    return sim::classify(refs_.good_reference, refs_.bad_reference, reason,
                         machine.exit_code(), machine.output(), patch::kDetectedExit);
  }

  /// The profile of a run that stopped with `reason` without reconverging.
  [[nodiscard]] FaultProfile stopped_profile(const emu::Machine& machine,
                                             emu::StopReason reason) const noexcept;

  /// A sweep worker's state (defined in engine.cpp): the faulted machine and
  /// the golden machine of the pair-window check, each built on first use.
  struct Worker;

  /// Runs `machine` to completion with `fault` armed, scanning checkpoint
  /// boundaries from `boundary` on and pruning as soon as the state matches
  /// golden. `pruned` counts runs classified via the state match.
  FaultProfile finish_with_pruning(emu::Machine& machine, const emu::FaultSpec& fault,
                                   std::uint64_t boundary,
                                   std::atomic<std::uint64_t>& pruned) const;

  /// The one fault-set simulator behind phase A, every order-k level and the
  /// hit replay. `set` holds order-1 plan indices in ascending trace order
  /// (one for a single fault). It restores the checkpoint nearest the first
  /// fault, then runs one leg per earlier fault — fault i armed, paused just
  /// before fault i+1 strikes; a leg that terminates classifies the set, as
  /// the later faults never fire. When `hits` is non-null, hits[i] receives
  /// the address fault i actually strikes: the rip at the pause before it,
  /// or its golden address for the first fault and for faults the run never
  /// reaches. With a non-zero `window`, each step of the last fault's first
  /// `window` before the next boundary where the faulted rip is the golden
  /// trace's address is compared against the worker's golden machine; a
  /// match sets reconverge_step and changes nothing else of the profile.
  /// finish_with_pruning runs the rest; `pruned` counts its state matches.
  FaultProfile simulate(Worker& worker, std::span<const std::uint32_t> set,
                        const std::vector<PlannedFault>& plan, std::uint64_t window,
                        std::uint64_t* hits, std::atomic<std::uint64_t>& pruned) const;

  /// The one order-1 aggregation shared by run() and run_tuples() phase A —
  /// what keeps the two sweeps bit-identical by construction.
  CampaignResult aggregate_order1(const std::vector<PlannedFault>& plan,
                                  const std::vector<FaultProfile>& profiles,
                                  std::uint64_t pruned) const;

  /// Profiles every fault of `plan` into `profiles` — the shared heart of
  /// run() and run_tuples() phase A: simulate() per fault across the
  /// worker threads, slot i written only by fault i. A non-zero `window`
  /// runs the pair-window check.
  void profile_all(const std::vector<PlannedFault>& plan, std::uint64_t window,
                   std::vector<FaultProfile>& profiles,
                   std::atomic<std::uint64_t>& pruned, obs::Progress& progress) const;

  elf::Image image_;
  std::string bad_input_;
  EngineConfig config_;
  References refs_;
  std::uint64_t interval_ = 0;
  std::uint64_t fuel_ = 0;
  Outcome bad_reference_outcome_ = Outcome::kNoEffect;
  /// chain_[k] is the golden bad-input machine at step k * interval_.
  std::vector<MachineSnapshot> chain_;
  std::size_t chain_pages_ = 0;
  std::size_t chain_bytes_ = 0;
};

}  // namespace r2r::sim
