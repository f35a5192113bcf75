// Per-layer probes of a traced run. Each probe times calls into one
// module's public functions on fixed inputs: the campaign_o2 guest for
// isa/emu/sim, the ladder guests for fault/bir/patch, and the seeded
// hybrid corpus for guests/elf/lift/passes/lower/harden. Short calls are
// repeated and their median reported.
#include <functional>

#include "bir/assemble.h"
#include "bir/recover.h"
#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "isa/target.h"
#include "lift/lifter.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "passes/stats.h"
#include "patch/patcher.h"
#include "sim/snapshot.h"
#include "workload.h"

namespace perfbench {
namespace {

using MetricList = std::vector<Metric>;

/// Times `call` once, in the given unit (1e9 for ns, 1e6 for us, ...).
double timed(const std::function<void()>& call, double per_second) {
  const std::uint64_t start = now_ns();
  call();
  return seconds_since(start) * per_second;
}

void probe_guests(const Options& options, MetricList& out) {
  std::vector<double> synth_ms;
  std::vector<double> build_ms;
  for (const SynthDraw& draw : hybrid_synth_draws(options.seed, options.smoke)) {
    guests::Guest guest;
    synth_ms.push_back(
        timed([&] { guest = guests::synth::generate(draw.seed, draw.arch); }, 1e3));
    build_ms.push_back(timed([&] { (void)guests::build_image(guest); }, 1e3));
  }
  out.push_back({"guests.synth_ms", median(synth_ms), "ms"});
  out.push_back({"guests.build_image_ms", median(build_ms), "ms"});
}

void probe_isa(const elf::Image& image, int reps, MetricList& out) {
  const r2r::isa::Target& target =
      r2r::isa::target(r2r::isa::arch_from_elf_machine(image.machine).value());
  const elf::Segment& text = *image.find_segment(".text");
  std::uint64_t decoded = 0;
  const std::uint64_t start = now_ns();
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t offset = 0;
    while (offset < text.data.size()) {
      const auto bytes = std::span(text.data).subspan(offset);
      std::size_t length = 1;
      try {
        length = target.decode(bytes, text.vaddr + offset).length;
      } catch (const std::exception&) {
        // Inline data: step over one byte, as a disassembler would.
      }
      offset += length;
      ++decoded;
    }
  }
  out.push_back({"isa.decode_ns", seconds_since(start) * 1e9 / static_cast<double>(decoded),
                 "ns"});
}

void probe_emu(const elf::Image& image, const std::string& input, int reps, MetricList& out) {
  const auto ns_per_instr = [&](bool cached, std::uint64_t& steps) {
    r2r::emu::Machine machine(image, input);
    machine.set_block_cache_enabled(cached);
    const r2r::sim::MachineSnapshot entry = r2r::sim::capture(machine);
    std::uint64_t total_steps = 0;
    std::uint64_t total_ns = 0;
    for (int rep = 0; rep < reps; ++rep) {
      r2r::sim::restore(entry, machine);
      const std::uint64_t start = now_ns();
      steps = machine.run(r2r::emu::RunConfig{}).steps;
      total_ns += now_ns() - start;
      total_steps += steps;
    }
    return static_cast<double>(total_ns) / static_cast<double>(total_steps);
  };
  std::uint64_t steps = 0;
  out.push_back({"emu.ns_per_instr", ns_per_instr(true, steps), "ns"});
  out.push_back({"emu.ns_per_instr_uncached", ns_per_instr(false, steps), "ns"});
  out.push_back({"emu.instructions", static_cast<double>(steps), "count"});
}

void probe_snapshots(const elf::Image& image, const guests::Guest& guest, int reps,
                     Checks& checks, MetricList& out) {
  r2r::emu::Machine machine(image, guest.bad_input);
  const r2r::sim::MachineSnapshot entry = r2r::sim::capture(machine);
  machine.run(r2r::emu::RunConfig{});
  const r2r::sim::MachineSnapshot end = r2r::sim::capture(machine);

  std::vector<double> restore_ns;
  std::vector<double> capture_ns;
  std::vector<double> same_ns;
  bool same = true;
  for (int rep = 0; rep < reps; ++rep) {
    // Each probe follows a run that dirtied the state, as in a sweep.
    r2r::sim::restore(entry, machine);
    machine.run(r2r::emu::RunConfig{});
    same_ns.push_back(timed([&] { same = same && r2r::sim::same_state(end, machine); }, 1e9));
    capture_ns.push_back(timed([&] { (void)r2r::sim::capture(machine); }, 1e9));
    r2r::sim::restore(entry, machine);
    machine.run(r2r::emu::RunConfig{});
    restore_ns.push_back(timed([&] { r2r::sim::restore(entry, machine); }, 1e9));
  }
  checks.expect(same, "layers: a golden rerun reaches the captured end state");
  out.push_back({"sim.restore_ns", median(restore_ns), "ns"});
  out.push_back({"sim.capture_ns", median(capture_ns), "ns"});
  out.push_back({"sim.same_state_ns", median(same_ns), "ns"});

  // Classification over the outcomes of single skips at every step.
  const sim::References refs =
      sim::make_references(image, guest.good_input, guest.bad_input);
  std::vector<r2r::emu::RunResult> runs;
  for (std::uint64_t t = 0; t < refs.bad_trace.size(); ++t) {
    r2r::emu::RunConfig config;
    config.fault = r2r::emu::FaultSpec{r2r::emu::FaultSpec::Kind::kSkip, t, 0};
    runs.push_back(r2r::emu::run_image(image, guest.bad_input, config));
  }
  std::uint64_t successes = 0;
  const double total_ns = timed(
      [&] {
        for (int rep = 0; rep < reps; ++rep) {
          for (const auto& run : runs) {
            successes += sim::classify(refs, run, r2r::patch::kDetectedExit) ==
                         sim::Outcome::kSuccess;
          }
        }
      },
      1e9);
  sim::FaultModels skips;
  skips.bit_flip = false;
  const std::uint64_t engine_successes =
      sim::Engine(image, guest.good_input, guest.bad_input, single_thread_engine())
          .run(skips)
          .vulnerabilities.size();
  checks.expect(successes == engine_successes * static_cast<std::uint64_t>(reps),
                "layers: classifying plain single-skip runs agrees with the engine's sweep");
  out.push_back({"sim.classify_ns", total_ns / static_cast<double>(runs.size() * reps), "ns"});
}

void probe_engine(const elf::Image& image, const guests::Guest& guest, const Options& options,
                  MetricList& out) {
  std::vector<double> engine_ms;
  std::unique_ptr<sim::Engine> engine;
  for (int rep = 0; rep < (options.smoke ? 1 : 7); ++rep) {
    engine_ms.push_back(timed(
        [&] {
          engine = std::make_unique<sim::Engine>(image, guest.good_input, guest.bad_input,
                                                 single_thread_engine());
        },
        1e3));
  }
  out.push_back({"sim.engine_ms", median(engine_ms), "ms"});
  out.push_back({"sim.snapshots", static_cast<double>(engine->snapshot_count()), "count"});
  out.push_back({"sim.chain_kb", static_cast<double>(engine->chain_resident_bytes()) / 1024.0,
                 "KiB"});

  sim::FaultModels order1 = campaign_models();
  order1.order = 1;
  std::vector<double> order1_s;
  sim::CampaignResult singles;
  for (int rep = 0; rep < (options.smoke ? 1 : 3); ++rep) {
    order1_s.push_back(timed([&] { singles = engine->run(order1); }, 1.0));
  }
  const double order1_median = median(order1_s);
  out.push_back({"sim.order1_faults_per_s",
                 static_cast<double>(singles.total_faults) / order1_median, "1/s"});
  out.push_back({"sim.pruned_ratio",
                 static_cast<double>(singles.pruned_faults) /
                     static_cast<double>(singles.total_faults),
                 "ratio"});

  // A seeded sample of campaign_o2's pair level keeps the probe short.
  sim::FaultModels pairs = campaign_models();
  pairs.max_tuples = options.smoke ? 2000 : 50000;
  pairs.sample_seed = options.seed;
  sim::TupleCampaignResult swept;
  const double swept_s = timed([&] { swept = engine->run_tuples(pairs); }, 1.0);
  const sim::TupleLevelSummary& level = swept.levels.back();
  const double level2_s = std::max(swept_s - order1_median, 1e-9);
  out.push_back({"sim.level2_sets_per_s", static_cast<double>(level.classified) / level2_s,
                 "1/s"});
  out.push_back({"sim.reused_ratio",
                 static_cast<double>(level.reused_prefix + level.reused_suffix) /
                     static_cast<double>(level.classified),
                 "ratio"});
  out.push_back({"sim.converged_ratio",
                 static_cast<double>(level.converged) /
                     static_cast<double>(std::max<std::uint64_t>(level.simulated, 1)),
                 "ratio"});
}

void probe_ladder(const Options& options, MetricList& out) {
  const int reps = options.smoke ? 1 : 20;
  double campaign_ms = 0;
  std::vector<double> recover_us;
  std::vector<double> assemble_us;
  std::vector<double> apply_us;
  std::uint64_t iterations = 0;
  std::uint64_t patches = 0;
  std::uint64_t residual = 0;
  for (const LadderGuest& entry : ladder_guests(options.smoke)) {
    const guests::Guest& guest = *entry.guest;
    const elf::Image image = guests::build_image(guest);
    const patch::PipelineConfig config = ladder_config(entry);
    campaign_ms += timed(
        [&] {
          (void)r2r::fault::run_campaign(image, guest.good_input, guest.bad_input,
                                         config.campaign);
        },
        1e3);

    std::vector<double> recover;
    std::vector<double> assemble;
    std::vector<double> apply;
    sim::FaultModels order1 = config.campaign.models;
    order1.order = 1;
    const std::vector<sim::Vulnerability> vulnerabilities =
        sim::Engine(image, guest.good_input, guest.bad_input, single_thread_engine())
            .run(order1)
            .vulnerabilities;
    for (int rep = 0; rep < reps; ++rep) {
      r2r::bir::Module module;
      recover.push_back(timed([&] { module = r2r::bir::recover(image); }, 1e6));
      assemble.push_back(timed([&] { (void)r2r::bir::assemble(module); }, 1e6));
      apply.push_back(timed([&] { (void)patch::apply_patches(module, vulnerabilities); }, 1e6));
    }
    recover_us.push_back(median(recover));
    assemble_us.push_back(median(assemble));
    apply_us.push_back(median(apply));

    const patch::PipelineResult result =
        patch::faulter_patcher(image, guest.good_input, guest.bad_input, config);
    iterations += result.iterations.size();
    for (const patch::IterationReport& report : result.iterations) {
      patches += report.patches_applied;
    }
    residual += residual_fault_sets(result.hardened, entry);
  }
  const auto mean = [](const std::vector<double>& values) {
    double sum = 0;
    for (const double value : values) sum += value;
    return sum / static_cast<double>(values.size());
  };
  out.push_back({"fault.campaign_ms", campaign_ms, "ms"});
  out.push_back({"bir.recover_us", mean(recover_us), "us"});
  out.push_back({"bir.assemble_us", mean(assemble_us), "us"});
  out.push_back({"patch.apply_us", mean(apply_us), "us"});
  out.push_back({"patch.iterations", static_cast<double>(iterations), "count"});
  out.push_back({"patch.patches", static_cast<double>(patches), "count"});
  out.push_back({"patch.residual_fault_sets", static_cast<double>(residual), "count"});
}

/// Replays hybrid_harden's stage order through the public calls, so each
/// stage can be timed; the result must be byte-identical to hybrid_harden.
void probe_hybrid(const Options& options, Checks& checks, MetricList& out) {
  std::vector<double> hybrid_ms;
  std::vector<double> lift_us;
  std::vector<double> cleanup_us;
  std::vector<double> countermeasure_us;
  std::vector<double> lower_us;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<double> no_cm_ratios;
  double lifted_ops = 0;
  double cleaned_ops = 0;
  double hardened_ops = 0;
  double hardened_bytes = 0;
  std::uint64_t identical = 0;
  const std::vector<guests::Guest> corpus = hybrid_guests(options.seed, options.smoke);
  for (const guests::Guest& guest : corpus) {
    const elf::Image image = guests::build_image(guest);
    r2r::harden::HybridResult reference;
    hybrid_ms.push_back(timed([&] { reference = r2r::harden::hybrid_harden(image); }, 1e3));

    r2r::lift::LiftResult lifted;
    lift_us.push_back(timed([&] { lifted = r2r::lift::lift(image); }, 1e6));
    lifted_ops += r2r::passes::count_ops(lifted.module).total;
    cleanup_us.push_back(timed(
        [&] {
          r2r::passes::PassManager cleanup;
          cleanup.add(r2r::passes::make_state_promotion());
          cleanup.add(r2r::passes::make_global_store_elim());
          cleanup.add(r2r::passes::make_constant_fold());
          cleanup.add(r2r::passes::make_dce());
          cleanup.run_to_fixpoint(lifted.module);
        },
        1e6));
    cleaned_ops += r2r::passes::count_ops(lifted.module).total;
    countermeasure_us.push_back(timed(
        [&] {
          r2r::passes::PassManager hardening;
          hardening.add(r2r::passes::make_call_guard());
          hardening.add(r2r::passes::make_branch_hardening());
          hardening.run(lifted.module);
        },
        1e6));
    hardened_ops += r2r::passes::count_ops(lifted.module).total;
    r2r::lower::LowerOptions lower_options;
    lower_options.arch = r2r::isa::arch_from_elf_machine(image.machine).value();
    elf::Image lowered;
    lower_us.push_back(timed(
        [&] {
          lowered = r2r::lower::lower_to_image(lifted.module, lifted.guest_data, lower_options);
        },
        1e6));
    hardened_bytes += static_cast<double>(lowered.code_size());

    std::vector<std::uint8_t> bytes;
    write_us.push_back(timed([&] { bytes = elf::write_elf(reference.hardened); }, 1e6));
    read_us.push_back(timed([&] { (void)elf::read_elf(bytes); }, 1e6));
    identical += elf::write_elf(lowered) == bytes ? 1 : 0;

    r2r::harden::HybridConfig no_cm;
    no_cm.countermeasure = r2r::harden::HybridCountermeasure::kNone;
    no_cm_ratios.push_back(
        static_cast<double>(r2r::harden::hybrid_harden(image, no_cm).hardened_code_size) /
        static_cast<double>(image.code_size()));
  }
  checks.expect(identical == corpus.size(),
                "layers: stage replay byte-identical to hybrid_harden on " +
                    std::to_string(identical) + " of " + std::to_string(corpus.size()) +
                    " guests");
  const double guests_n = static_cast<double>(corpus.size());
  out.push_back({"elf.write_us", median(write_us), "us"});
  out.push_back({"elf.read_us", median(read_us), "us"});
  out.push_back({"lift.us", median(lift_us), "us"});
  out.push_back({"lift.ir_ops", lifted_ops / guests_n, "count"});
  out.push_back({"passes.cleanup_us", median(cleanup_us), "us"});
  out.push_back({"passes.countermeasure_us", median(countermeasure_us), "us"});
  out.push_back({"passes.ir_ops_cleaned", cleaned_ops / guests_n, "count"});
  out.push_back({"passes.ir_ops_hardened", hardened_ops / guests_n, "count"});
  out.push_back({"lower.us", median(lower_us), "us"});
  out.push_back({"lower.bytes_per_ir_op", hardened_bytes / hardened_ops, "B"});
  out.push_back({"lower.overhead_pct_no_cm", 100.0 * (geomean(no_cm_ratios) - 1), "%"});
  out.push_back({"harden.hybrid_ms.p50", median(hybrid_ms), "ms"});
  out.push_back({"harden.hybrid_ms.p95", percentile(hybrid_ms, 95), "ms"});
  out.push_back({"harden.hybrid_samples", static_cast<double>(hybrid_ms.size()), "count"});
}

}  // namespace

std::vector<Metric> measure_layers(const Options& options, Checks& checks) {
  const int reps = options.smoke ? 10 : 2000;
  const guests::Guest guest = campaign_guest();
  const elf::Image image = guests::build_image(guest);
  MetricList out;
  probe_guests(options, out);
  probe_isa(image, reps, out);
  probe_emu(image, guest.bad_input, reps, out);
  probe_snapshots(image, guest, reps, checks, out);
  probe_engine(image, guest, options, out);
  probe_ladder(options, out);
  probe_hybrid(options, checks, out);
  return out;
}

}  // namespace perfbench
