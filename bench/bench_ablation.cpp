// Ablation studies for design choices docs/architecture.md describes:
//   (a) cleanup passes (state promotion / global store elim / DCE) vs none
//       — how much lift-and-lower overhead the optimizer recovers;
//   (b) the Faulter+Patcher iteration cap (1, 2, 4, 12) on pincheck under
//       the skip model — residual successful faults and overhead per cap;
//   (c) one vs two checksum copies in branch hardening is structural
//       (Fig. 5 duplication), measured here as code-size delta per branch.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "harden/hybrid.h"
#include "ir/builder.h"
#include "lower/lower.h"
#include "passes/pass.h"
#include "patch/pipeline.h"

namespace {

using namespace r2r;

void print_cleanup_ablation() {
  std::printf("(a) cleanup-pass ablation: lift+lower code size\n");
  harden::TextTable table;
  table.add_row({"case study", "original", "no cleanup", "with cleanup", "recovered"});
  for (const guests::Guest* guest : {&guests::pincheck(), &guests::bootloader()}) {
    const elf::Image input = guests::build_image(*guest);
    harden::HybridConfig raw;
    raw.countermeasure = harden::HybridCountermeasure::kNone;
    raw.cleanup = false;
    const harden::HybridResult no_cleanup = harden::hybrid_harden(input, raw);
    harden::HybridConfig cleaned;
    cleaned.countermeasure = harden::HybridCountermeasure::kNone;
    const harden::HybridResult with_cleanup = harden::hybrid_harden(input, cleaned);
    const double recovered =
        100.0 *
        (static_cast<double>(no_cleanup.hardened_code_size) -
         static_cast<double>(with_cleanup.hardened_code_size)) /
        static_cast<double>(no_cleanup.hardened_code_size);
    table.add_row({guest->name, std::to_string(input.code_size()),
                   std::to_string(no_cleanup.hardened_code_size),
                   std::to_string(with_cleanup.hardened_code_size),
                   bench::percent(recovered)});
  }
  std::printf("%s\n", table.render().c_str());
}

void print_hardening_cost_per_branch() {
  std::printf("(c) branch hardening cost per protected branch (lowered bytes)\n");
  // N-branch chain; the marginal size per extra branch isolates the
  // per-branch cost of the Fig. 5 construct.
  const auto build_chain = [](unsigned branches) {
    ir::Module module;
    ir::GlobalVariable* out = module.add_global("out", 8);
    ir::Function* main = module.add_function("main");
    ir::Builder builder(module);
    ir::BasicBlock* current = main->add_block("entry");
    builder.set_insert_point(current);
    for (unsigned i = 0; i < branches; ++i) {
      ir::BasicBlock* t = main->add_block("t" + std::to_string(i));
      ir::BasicBlock* f = main->add_block("f" + std::to_string(i));
      ir::Instr* cond = builder.icmp(ir::Pred::kEq, builder.load(ir::Type::kI64, out),
                                     builder.const_i64(i));
      builder.cond_br(cond, t, f);
      builder.set_insert_point(t);
      builder.store(builder.const_i64(i), out);
      builder.br(f);
      builder.set_insert_point(f);
      current = f;
    }
    builder.ret();
    module.entry_function = "main";
    return module;
  };

  harden::TextTable table;
  table.add_row({"branches", "plain bytes", "hardened bytes", "delta/branch"});
  for (const unsigned branches : {1u, 2u, 4u, 8u}) {
    ir::Module plain = build_chain(branches);
    const std::size_t plain_size = lower::lower_to_image(plain, {}).code_size();
    ir::Module hardened = build_chain(branches);
    passes::make_branch_hardening()->run(hardened);
    const std::size_t hardened_size = lower::lower_to_image(hardened, {}).code_size();
    const std::size_t delta = (hardened_size - plain_size) / branches;
    table.add_row({std::to_string(branches), std::to_string(plain_size),
                   std::to_string(hardened_size), std::to_string(delta)});
  }
  std::printf("%s\n", table.render().c_str());
}

void print_iteration_cap_ablation() {
  std::printf("(b) Faulter+Patcher iteration cap ablation (pincheck, skip model)\n");
  harden::TextTable table;
  table.add_row({"max iterations", "residual successful faults", "overhead"});
  const guests::Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  for (const unsigned cap : {1u, 2u, 4u, 12u}) {
    patch::PipelineConfig config;
    config.campaign.models.bit_flip = false;
    config.max_iterations = cap;
    const patch::PipelineResult result =
        patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);
    table.add_row({std::to_string(cap),
                   std::to_string(result.final_campaign.order1.vulnerabilities.size()),
                   bench::percent(result.overhead_percent())});
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_CleanupPasses(benchmark::State& state) {
  const elf::Image input = guests::build_image(guests::pincheck());
  for (auto _ : state) {
    lift::LiftResult lifted = lift::lift(input);
    passes::PassManager cleanup;
    cleanup.add(passes::make_state_promotion());
    cleanup.add(passes::make_global_store_elim());
    cleanup.add(passes::make_constant_fold());
    cleanup.add(passes::make_dce());
    benchmark::DoNotOptimize(cleanup.run_to_fixpoint(lifted.module));
  }
}
BENCHMARK(BM_CleanupPasses)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  r2r::bench::print_header("Ablations: design choices described in docs/architecture.md",
                           "r2r-specific (supplements the paper's evaluation)");
  print_cleanup_ablation();
  print_iteration_cap_ablation();
  print_hardening_cost_per_branch();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
