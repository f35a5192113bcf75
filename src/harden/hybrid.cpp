#include "harden/hybrid.h"

#include <utility>

#include "ir/verifier.h"
#include "isa/target.h"
#include "obs/obs.h"
#include "passes/pass.h"
#include "support/error.h"

namespace r2r::harden {

namespace {

constexpr std::pair<HybridCountermeasure, std::string_view> kCountermeasureNames[] = {
    {HybridCountermeasure::kNone, "none"},
    {HybridCountermeasure::kBranchHardening, "branch-hardening"},
    {HybridCountermeasure::kInstructionDuplication, "instruction-duplication"},
};

}  // namespace

std::string_view to_string(HybridCountermeasure countermeasure) noexcept {
  for (const auto& [value, name] : kCountermeasureNames) {
    if (value == countermeasure) return name;
  }
  return "?";
}

std::optional<HybridCountermeasure> countermeasure_from(std::string_view name) noexcept {
  for (const auto& [value, known] : kCountermeasureNames) {
    if (known == name) return value;
  }
  return std::nullopt;
}

HybridResult hybrid_harden(const elf::Image& input, const HybridConfig& config) {
  obs::Span run_span("harden.hybrid");
  obs::Metrics::instance().counter("harden.hybrid_runs").add(1);

  HybridResult result;
  result.original_code_size = input.code_size();

  // The round trip stays on the input's ISA: lift derives it from e_machine,
  // so lowering must emit for the same target.
  lower::LowerOptions lower_options;
  {
    const auto arch = isa::arch_from_elf_machine(input.machine);
    support::check(arch.has_value(), support::ErrorKind::kElf,
                   "input image has an e_machine no registered target handles");
    lower_options.arch = *arch;
  }

  lift::LiftResult lifted = [&] {
    obs::Span span("harden.lift");
    return lift::lift(input);
  }();
  const auto verify = [&lifted] {
    obs::Span span("harden.verify");
    ir::verify(lifted.module);
  };
  verify();

  if (config.cleanup) {
    obs::Span span("harden.cleanup");
    passes::PassManager cleanup;
    cleanup.add(passes::make_state_promotion());
    cleanup.add(passes::make_global_store_elim());
    cleanup.add(passes::make_constant_fold());
    cleanup.add(passes::make_dce());
    cleanup.run_to_fixpoint(lifted.module);
    span.end();
    verify();
  }

  result.ir_before = passes::count_ops(lifted.module);

  {
    obs::Span span("harden.countermeasure");
    switch (config.countermeasure) {
      case HybridCountermeasure::kNone:
        break;
      case HybridCountermeasure::kBranchHardening: {
        passes::PassManager pm;
        pm.add(passes::make_call_guard());
        pm.add(passes::make_branch_hardening());
        pm.run(lifted.module);
        break;
      }
      case HybridCountermeasure::kInstructionDuplication: {
        passes::PassManager pm;
        pm.add(passes::make_instruction_duplication());
        pm.run(lifted.module);
        break;
      }
    }
  }
  verify();
  result.ir_after = passes::count_ops(lifted.module);

  {
    obs::Span span("harden.lower");
    result.hardened =
        lower::lower_to_image(lifted.module, lifted.guest_data, lower_options);
  }
  result.hardened_code_size = result.hardened.code_size();
  result.module = std::move(lifted.module);
  return result;
}

}  // namespace r2r::harden
