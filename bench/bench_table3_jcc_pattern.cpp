// Table III — local protection pattern for conditional jump operations.
//
// Prints the original and protected sequences (double-checked branch
// direction on both edges via set<cond> against the expected constant),
// and measures fault coverage on a branch whose inversion grants access.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "patch/patcher.h"
#include "patch/patterns.h"

namespace {

using namespace r2r;

const std::string kGoodInput = "A";
const std::string kBadInput = "B";

bir::Module jcc_victim() {
  bir::Module module = guests::build_module(guests::toymov());
  return module;
}

std::size_t find_jcc(const bir::Module& module) {
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kJcc) {
      return i;
    }
  }
  return 0;
}

void print_table() {
  bench::print_header(
      "Table III: local protection pattern for conditional jump operations",
      "Kiaei et al., DAC'21, Table III + Section V-A.3");

  bir::Module module = jcc_victim();
  const std::size_t index = find_jcc(module);
  const std::size_t before_bytes = bench::byte_size(module, index, index);
  std::printf("--- original ---\n%s", bench::listing(module, index, index).c_str());

  patch::protect_instruction(module, index);
  std::size_t end = index;
  while (end + 1 < module.text.size() && module.text[end + 1].synthesized) ++end;
  const std::size_t after_bytes = bench::byte_size(module, index, end);
  std::printf("--- protected ---\n%s", bench::listing(module, index, end).c_str());
  std::printf("bytes: %zu -> %zu (site overhead %s)\n\n", before_bytes, after_bytes,
              bench::percent(100.0 * (static_cast<double>(after_bytes) -
                                      static_cast<double>(before_bytes)) /
                             static_cast<double>(before_bytes))
                  .c_str());

  const elf::Image protected_image = bir::assemble(module);
  const emu::RunResult good = emu::run_image(protected_image, kGoodInput);
  const emu::RunResult bad = emu::run_image(protected_image, kBadInput);
  std::printf("behaviour: good='%s' bad='%s'\n",
              good.output.substr(0, good.output.size() - 1).c_str(),
              bad.output.substr(0, bad.output.size() - 1).c_str());

  fault::CampaignConfig config;  // both fault models
  bir::Module unprotected = jcc_victim();
  const sim::CampaignResult before = fault::run_campaign(
      bir::assemble(unprotected), kGoodInput, kBadInput, config).order1;
  const sim::CampaignResult after =
      fault::run_campaign(protected_image, kGoodInput, kBadInput, config).order1;

  harden::TextTable table;
  table.add_row({"binary", "faults", "successful", "vulnerable points", "detected"});
  table.add_row({"unprotected", std::to_string(before.total_faults),
                 std::to_string(before.vulnerabilities.size()),
                 std::to_string(before.vulnerable_addresses().size()),
                 std::to_string(before.count(fault::Outcome::kDetected))});
  table.add_row({"jcc-protected", std::to_string(after.total_faults),
                 std::to_string(after.vulnerabilities.size()),
                 std::to_string(after.vulnerable_addresses().size()),
                 std::to_string(after.count(fault::Outcome::kDetected))});
  std::printf("%s\n", table.render().c_str());
}

void BM_ApplyJccPattern(benchmark::State& state) {
  for (auto _ : state) {
    bir::Module module = jcc_victim();
    benchmark::DoNotOptimize(patch::protect_instruction(module, find_jcc(module)));
  }
}
BENCHMARK(BM_ApplyJccPattern);

void BM_ProtectedBranchExecution(benchmark::State& state) {
  bir::Module module = jcc_victim();
  patch::protect_instruction(module, find_jcc(module));
  const elf::Image image = bir::assemble(module);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu::run_image(image, kGoodInput));
  }
}
BENCHMARK(BM_ProtectedBranchExecution);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
