// Toolchain throughput: emulator speed, fault-simulation rate (the paper
// forks fault simulations "to speed up the process" — here the equivalent
// knob is raw faults/second), recovery/reassembly and lift/lower latency.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "bir/recover.h"
#include "harden/hybrid.h"
#include "lift/lifter.h"
#include "lower/lower.h"

namespace {

using namespace r2r;

void BM_EmulatorInstructionThroughput(benchmark::State& state) {
  // Tight arithmetic loop: measures emulated instructions per second.
  bir::Module module = bir::module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rcx, 10000\n"
      "loop:\n"
      "    add rax, rcx\n"
      "    xor rax, rbx\n"
      "    imul rbx, rax\n"
      "    dec rcx\n"
      "    cmp rcx, 0\n"
      "    jne loop\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
  const elf::Image image = bir::assemble(module);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const emu::RunResult result = emu::run_image(image, "");
    instructions += result.steps;
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EmulatorInstructionThroughput)->Unit(benchmark::kMillisecond);

void BM_SingleFaultInjection(benchmark::State& state) {
  // One faulted run of toymov: the unit of work a campaign repeats.
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  emu::RunConfig config;
  config.fault = emu::FaultSpec{emu::FaultSpec::Kind::kBitFlip, 5, 11};
  std::uint64_t faults = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu::run_image(image, guest.bad_input, config));
    ++faults;
  }
  state.counters["faults/s"] =
      benchmark::Counter(static_cast<double>(faults), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleFaultInjection);

void BM_FullCampaignToymov(benchmark::State& state) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  std::uint64_t faults = 0;
  for (auto _ : state) {
    const sim::CampaignResult result =
        fault::run_campaign(image, guest.good_input, guest.bad_input).order1;
    faults += result.total_faults;
  }
  state.counters["faults/s"] =
      benchmark::Counter(static_cast<double>(faults), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullCampaignToymov)->Unit(benchmark::kMillisecond);

void BM_StructuralRecovery(benchmark::State& state) {
  const elf::Image image = guests::build_image(guests::bootloader());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bir::recover(image));
  }
}
BENCHMARK(BM_StructuralRecovery);

void BM_RecoverAndReassemble(benchmark::State& state) {
  const elf::Image image = guests::build_image(guests::bootloader());
  for (auto _ : state) {
    bir::Module module = bir::recover(image);
    benchmark::DoNotOptimize(bir::assemble(module));
  }
}
BENCHMARK(BM_RecoverAndReassemble);

void BM_LiftToIr(benchmark::State& state) {
  const elf::Image image = guests::build_image(guests::bootloader());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lift::lift(image));
  }
}
BENCHMARK(BM_LiftToIr);

void BM_LiftLowerRoundTrip(benchmark::State& state) {
  const elf::Image image = guests::build_image(guests::bootloader());
  harden::HybridConfig config;
  config.countermeasure = harden::HybridCountermeasure::kNone;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harden::hybrid_harden(image, config));
  }
}
BENCHMARK(BM_LiftLowerRoundTrip)->Unit(benchmark::kMillisecond);

void BM_ElfWriteRead(benchmark::State& state) {
  const elf::Image image = guests::build_image(guests::pincheck());
  for (auto _ : state) {
    benchmark::DoNotOptimize(elf::read_elf(elf::write_elf(image)));
  }
}
BENCHMARK(BM_ElfWriteRead);

}  // namespace

int main(int argc, char** argv) {
  r2r::bench::print_header("Toolchain throughput",
                           "Section IV-B.1 (fault-simulation speed) and tool latency");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
