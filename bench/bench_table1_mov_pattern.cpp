// Table I — local protection pattern for mov operations.
//
// Prints the original and protected instruction sequences (paper Table I),
// their encoded sizes, verifies that the pattern turns the skip-fault on
// the mov from "successful" into "not successful", and times pattern
// application with google-benchmark.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "patch/patcher.h"
#include "patch/patterns.h"

namespace {

using namespace r2r;

/// A toy binary where skipping `mov rax, [rbx+4]` grants access: rax holds
/// the privileged value before the load (mirrors the paper's example of a
/// mov whose skip is a successful fault). stdin supplies the byte that the
/// load fetches: 0x01 = authorized, 0x00 = attacker.
bir::Module mov_victim() {
  return bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rax, 0\n"
      "    mov rdi, 0\n"
      "    mov rsi, offset slot\n"
      "    add rsi, 4\n"
      "    mov rdx, 1\n"
      "    syscall\n"
      "    mov rbx, offset slot\n"
      "    mov rax, 1\n"           // attacker-friendly stale value
      "    mov rax, [rbx+4]\n"     // the protected mov
      "    cmp rax, 1\n"
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
      "    mov rax, 1\n"
      "    mov rdi, 1\n"
      "    mov rsi, offset msg_n\n"
      "    mov rdx, 2\n"
      "    syscall\n"
      "    mov rax, 60\n"
      "    mov rdi, 1\n"
      "    syscall\n"
      ".section .data\n"
      "slot: .quad 0, 0\n"
      "msg_y: .asciz \"Y!\\n\"\n"
      "msg_n: .asciz \"N\\n\"\n");
}

const std::string kGoodInput(1, '\x01');
const std::string kBadInput(1, '\x00');

std::size_t find_mov(const bir::Module& module) {
  for (std::size_t i = 0; i < module.text.size(); ++i) {
    if (module.text[i].is_instruction() &&
        module.text[i].instr->mnemonic == isa::Mnemonic::kMov &&
        isa::is_mem(module.text[i].instr->op(1))) {
      return i;
    }
  }
  return 0;
}

void print_table() {
  bench::print_header("Table I: local protection pattern for mov operations",
                      "Kiaei et al., DAC'21, Table I + Section V-A.1");

  bir::Module module = mov_victim();
  const std::size_t index = find_mov(module);
  const std::size_t before_bytes = bench::byte_size(module, index, index);
  std::printf("--- original ---\n%s", bench::listing(module, index, index).c_str());

  const patch::PatternKind kind = patch::protect_instruction(module, index);
  // The insertion runs from the mov up to (and including) the handler call.
  std::size_t end = index;
  while (end + 1 < module.text.size() && module.text[end + 1].synthesized) ++end;
  const std::size_t after_bytes = bench::byte_size(module, index, end);
  std::printf("--- protected (pattern %d applied) ---\n%s",
              static_cast<int>(kind), bench::listing(module, index, end).c_str());
  std::printf("bytes: %zu -> %zu (site overhead %s)\n\n", before_bytes, after_bytes,
              bench::percent(100.0 * (static_cast<double>(after_bytes) -
                                      static_cast<double>(before_bytes)) /
                             static_cast<double>(before_bytes))
                  .c_str());

  // Fault-killing check: campaign over the unprotected vs protected binary.
  fault::CampaignConfig skip_only;
  skip_only.models.bit_flip = false;
  bir::Module unprotected = mov_victim();
  elf::Image unprotected_image = bir::assemble(unprotected);
  const sim::CampaignResult before =
      fault::run_campaign(unprotected_image, kGoodInput, kBadInput, skip_only).order1;
  elf::Image protected_image = bir::assemble(module);
  const sim::CampaignResult after =
      fault::run_campaign(protected_image, kGoodInput, kBadInput, skip_only).order1;

  harden::TextTable table;
  table.add_row({"binary", "skip faults", "successful", "detected"});
  table.add_row({"unprotected", std::to_string(before.total_faults),
                 std::to_string(before.vulnerabilities.size()),
                 std::to_string(before.count(fault::Outcome::kDetected))});
  table.add_row({"mov-protected", std::to_string(after.total_faults),
                 std::to_string(after.vulnerabilities.size()),
                 std::to_string(after.count(fault::Outcome::kDetected))});
  std::printf("%s\n", table.render().c_str());
}

void BM_ApplyMovPattern(benchmark::State& state) {
  for (auto _ : state) {
    bir::Module module = mov_victim();
    benchmark::DoNotOptimize(patch::protect_instruction(module, find_mov(module)));
  }
}
BENCHMARK(BM_ApplyMovPattern);

void BM_ProtectedMovExecution(benchmark::State& state) {
  bir::Module module = mov_victim();
  patch::protect_instruction(module, find_mov(module));
  const elf::Image image = bir::assemble(module);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu::run_image(image, ""));
  }
}
BENCHMARK(BM_ProtectedMovExecution);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
