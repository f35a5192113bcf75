// Section V-C textual claims:
//   (1) instruction-skip vulnerabilities fully resolved by both approaches;
//   (2) single-bit-flip vulnerable points reduced by >= 50%;
//   (3) naive full duplication costs >= 300% code size.
//
// A gate: it exits 1 when any claim fails on the case studies (a skip
// vulnerability left by Hybrid or Faulter+Patcher on pincheck or
// bootloader; F+P's bit-flip reduction on pincheck under 50%; duplication
// under 300% or no dearer than branch hardening on either case study).
// Run with --benchmark_filter=NONE to skip the microbenchmark.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "harden/hybrid.h"
#include "patch/pipeline.h"

namespace {

using namespace r2r;

bool verdict(int claim, bool holds) {
  std::printf("claim %d %s\n\n", claim, holds ? "holds" : "FAILS");
  return holds;
}

bool skip_claim() {
  std::printf("claim 1: all instruction-skip vulnerabilities resolved\n");
  bool holds = true;
  harden::TextTable table;
  table.add_row({"case study", "approach", "skip vulns before", "skip vulns after"});
  for (const guests::Guest* guest : {&guests::pincheck(), &guests::bootloader()}) {
    const elf::Image input = guests::build_image(*guest);
    fault::CampaignConfig skip_only;
    skip_only.models.bit_flip = false;
    const sim::CampaignResult baseline =
        fault::run_campaign(input, guest->good_input, guest->bad_input, skip_only).order1;

    patch::PipelineConfig fp_config;
    fp_config.campaign = skip_only;
    const patch::PipelineResult fp =
        patch::faulter_patcher(input, guest->good_input, guest->bad_input, fp_config);
    const std::size_t fp_left = fp.final_campaign.order1.vulnerable_addresses().size();
    table.add_row({guest->name, "Faulter+Patcher",
                   std::to_string(baseline.vulnerable_addresses().size()),
                   std::to_string(fp_left)});

    const harden::HybridResult hybrid = harden::hybrid_harden(input);
    const sim::CampaignResult hybrid_campaign = fault::run_campaign(
        hybrid.hardened, guest->good_input, guest->bad_input, skip_only).order1;
    const std::size_t hybrid_left = hybrid_campaign.vulnerable_addresses().size();
    table.add_row({guest->name, "Hybrid",
                   std::to_string(baseline.vulnerable_addresses().size()),
                   std::to_string(hybrid_left)});
    holds = holds && fp_left == 0 && hybrid_left == 0;
  }
  std::printf("%s\n", table.render().c_str());
  return verdict(1, holds);
}

bool bitflip_claim() {
  std::printf("claim 2: single-bit-flip vulnerable points reduced by >= 50%%\n");
  bool holds = true;
  harden::TextTable table;
  table.add_row({"case study", "points before", "points after F+P", "reduction"});
  // The paper reports a 50% reduction; bit-flip campaigns are quadratic in
  // trace length, so this claim is evaluated on pincheck (the bootloader's
  // copy/hash loops make its bit-flip campaign minutes-long).
  for (const guests::Guest* guest : {&guests::pincheck()}) {
    const elf::Image input = guests::build_image(*guest);
    fault::CampaignConfig flips;
    flips.models.skip = false;
    const sim::CampaignResult before =
        fault::run_campaign(input, guest->good_input, guest->bad_input, flips).order1;

    patch::PipelineConfig config;
    config.campaign = flips;
    config.max_iterations = 6;
    const patch::PipelineResult result =
        patch::faulter_patcher(input, guest->good_input, guest->bad_input, config);
    const std::size_t after = result.final_campaign.order1.vulnerable_addresses().size();
    const std::size_t base = before.vulnerable_addresses().size();
    const double reduction =
        base == 0 ? 0.0
                  : 100.0 * (static_cast<double>(base) - static_cast<double>(after)) /
                        static_cast<double>(base);
    table.add_row({guest->name, std::to_string(base), std::to_string(after),
                   bench::percent(reduction)});
    holds = holds && base > 0 && reduction >= 50.0;
  }
  std::printf("%s\n", table.render().c_str());
  return verdict(2, holds);
}

bool duplication_claim() {
  std::printf("claim 3: full duplication implies >= 300%% code size overhead\n");
  bool holds = true;
  harden::TextTable table;
  table.add_row({"case study", "duplication overhead", "branch hardening overhead"});
  for (const guests::Guest* guest : {&guests::pincheck(), &guests::bootloader()}) {
    const elf::Image input = guests::build_image(*guest);
    harden::HybridConfig dup;
    dup.countermeasure = harden::HybridCountermeasure::kInstructionDuplication;
    const double duplication = harden::hybrid_harden(input, dup).overhead_percent();
    const double hardening = harden::hybrid_harden(input).overhead_percent();
    table.add_row({guest->name, bench::percent(duplication), bench::percent(hardening)});
    holds = holds && duplication >= 300.0 && duplication > hardening;
  }
  std::printf("%s\n", table.render().c_str());
  return verdict(3, holds);
}

void print_outcome_histogram() {
  std::printf("fault outcome histogram (pincheck, both models, unprotected)\n");
  const guests::Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  const sim::CampaignResult campaign =
      fault::run_campaign(input, guest.good_input, guest.bad_input).order1;
  harden::TextTable table;
  table.add_row({"outcome", "count"});
  for (const auto& [outcome, count] : campaign.outcome_counts) {
    table.add_row({std::string(fault::to_string(outcome)), std::to_string(count)});
  }
  table.add_row({"total", std::to_string(campaign.total_faults)});
  std::printf("%s\n", table.render().c_str());
}

void BM_SkipCampaignPincheck(benchmark::State& state) {
  const guests::Guest& guest = guests::pincheck();
  const elf::Image input = guests::build_image(guest);
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::run_campaign(input, guest.good_input, guest.bad_input, config));
  }
}
BENCHMARK(BM_SkipCampaignPincheck)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  r2r::bench::print_header("Section V-C claims: fault coverage and baselines",
                           "Kiaei et al., DAC'21, Section V-C");
  const bool skip = skip_claim();
  const bool bitflip = bitflip_claim();
  const bool duplication = duplication_claim();
  print_outcome_histogram();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return skip && bitflip && duplication ? 0 : 1;
}
