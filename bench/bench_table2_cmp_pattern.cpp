// Table II — local protection pattern for cmp operations.
//
// Prints the original and protected sequences (double comparison with
// pushfq'd RFLAGS images compared, red-zone adjustment, flag restoration),
// verifies behaviour preservation and fault coverage, and times the
// pattern.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "patch/patcher.h"
#include "patch/patterns.h"

namespace {

using namespace r2r;

const std::string kGoodInput = "K";
const std::string kBadInput = "x";

/// cmp-guarded access check: one byte from stdin compared against 'K'.
bir::Module cmp_victim() {
  return bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rax, 0\n"
      "    mov rdi, 0\n"
      "    mov rsi, offset buf\n"
      "    mov rdx, 1\n"
      "    syscall\n"
      "    mov rsi, offset buf\n"
      "    movzx rbx, byte ptr [rsi]\n"
      "    mov rcx, offset key\n"
      "    cmp rbx, [rcx]\n"        // the protected cmp
      "    jne deny\n"
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    mov rsi, offset msg_y\n"
      "    mov rdx, 3\n"
      "    syscall\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n"
      "deny:\n"
      "    mov rax, 60\n"
      "    mov rdi, 1\n"
      "    syscall\n"
      ".section .data\n"
      "key: .quad 75\n"  // 'K'
      "buf: .zero 8\n"
      "msg_y: .asciz \"Y!\\n\"\n");
}

std::size_t find_cmp(const bir::Module& module) {
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kCmp) {
      return i;
    }
  }
  return 0;
}

void print_table() {
  bench::print_header("Table II: local protection pattern for cmp operations",
                      "Kiaei et al., DAC'21, Table II + Section V-A.2");

  bir::Module module = cmp_victim();
  const std::size_t index = find_cmp(module);
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

  // Behaviour preservation + fault coverage.
  const elf::Image protected_image = bir::assemble(module);
  const emu::RunResult good = emu::run_image(protected_image, kGoodInput);
  const emu::RunResult bad = emu::run_image(protected_image, kBadInput);
  std::printf("behaviour: good exit=%lld ('%s'), bad exit=%lld\n",
              static_cast<long long>(good.exit_code),
              good.output.substr(0, good.output.size() - 1).c_str(),
              static_cast<long long>(bad.exit_code));

  fault::CampaignConfig config;  // both models
  bir::Module unprotected = cmp_victim();
  const sim::CampaignResult before = fault::run_campaign(
      bir::assemble(unprotected), kGoodInput, kBadInput, config).order1;
  const sim::CampaignResult after =
      fault::run_campaign(protected_image, kGoodInput, kBadInput, config).order1;

  harden::TextTable table;
  table.add_row({"binary", "faults", "successful", "detected", "crash"});
  table.add_row({"unprotected", std::to_string(before.total_faults),
                 std::to_string(before.vulnerabilities.size()),
                 std::to_string(before.count(fault::Outcome::kDetected)),
                 std::to_string(before.count(fault::Outcome::kCrash))});
  table.add_row({"cmp-protected", std::to_string(after.total_faults),
                 std::to_string(after.vulnerabilities.size()),
                 std::to_string(after.count(fault::Outcome::kDetected)),
                 std::to_string(after.count(fault::Outcome::kCrash))});
  std::printf("%s\n", table.render().c_str());
}

void BM_ApplyCmpPattern(benchmark::State& state) {
  for (auto _ : state) {
    bir::Module module = cmp_victim();
    benchmark::DoNotOptimize(patch::protect_instruction(module, find_cmp(module)));
  }
}
BENCHMARK(BM_ApplyCmpPattern);

void BM_ProtectedCmpExecution(benchmark::State& state) {
  bir::Module module = cmp_victim();
  patch::protect_instruction(module, find_cmp(module));
  const elf::Image image = bir::assemble(module);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu::run_image(image, kGoodInput));
  }
}
BENCHMARK(BM_ProtectedCmpExecution);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
