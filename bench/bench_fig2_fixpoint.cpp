// Fig. 2 — the iterative Faulter+Patcher loop.
//
// The figure is a flowchart; the measurable content is the convergence
// series: vulnerabilities found and patches applied per iteration until the
// fix-point ("Running the faulter on the patched binary may reveal that we
// added new vulnerabilities... addressed by running the patcher iteratively
// until a fixed point is reached", Section IV-B.3).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "patch/pipeline.h"

namespace {

using namespace r2r;

void print_series(const guests::Guest& guest, bool bit_flips) {
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign.models.bit_flip = bit_flips;
  const patch::PipelineResult result =
      patch::faulter_patcher(input, guest.good_input, guest.bad_input, config);

  std::printf("%s (%s model): %zu iteration(s), fixpoint=%s\n", guest.name.c_str(),
              bit_flips ? "skip+flip" : "skip", result.iterations.size(),
              result.fixpoint ? "yes" : "no");
  harden::TextTable table;
  table.add_row({"iter", "successful faults", "vulnerable points", "patched",
                 "unpatchable", "code size (B)"});
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const patch::IterationReport& it = result.iterations[i];
    table.add_row({std::to_string(i), std::to_string(it.successful_faults),
                   std::to_string(it.vulnerable_points),
                   std::to_string(it.patches_applied),
                   std::to_string(it.unpatchable_points),
                   std::to_string(it.code_size)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("final: %zu residual successful faults, overhead %s\n\n",
              result.final_campaign.order1.vulnerabilities.size(),
              bench::percent(result.overhead_percent()).c_str());
}

void print_all() {
  bench::print_header("Fig. 2: Faulter+Patcher iteration to fix-point",
                      "Kiaei et al., DAC'21, Fig. 2 + Section IV-B.3");
  for (const guests::Guest* guest :
       {&guests::toymov(), &guests::pincheck(), &guests::bootloader()}) {
    print_series(*guest, /*bit_flips=*/false);
  }
  // The bit-flip series demonstrates the residual-risk fix-point (the
  // paper's 50% reduction case). Restricted to the small guest to keep the
  // bench quick.
  print_series(guests::toymov(), /*bit_flips=*/true);
}

void BM_FixpointIterationToymov(benchmark::State& state) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image input = guests::build_image(guest);
  patch::PipelineConfig config;
  config.campaign.models.bit_flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        patch::faulter_patcher(input, guest.good_input, guest.bad_input, config));
  }
}
BENCHMARK(BM_FixpointIterationToymov)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
