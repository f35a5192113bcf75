// fixpoint_ladder: the Faulter+Patcher loop of Fig. 2 to its fix-point on
// five guests. Dozens of short engines, order-3 recursion, and one
// bir::assemble plus one patcher run per iteration.
#include <cstdio>

#include "elf/image.h"
#include "emu/machine.h"
#include "isa/target.h"
#include "workload.h"

namespace perfbench {
namespace {

// Seed-commit reference: pincheck keeps one unpatchable triple, every
// other guest closes its order. Fewer residual sets is an improvement, so
// the check is an upper bound.
constexpr std::uint64_t kMaxResidualFaultSets = 1;

class FixpointLadder final : public Workload {
 public:
  explicit FixpointLadder(const Options& options) : options_(options) {}

  void setup() override {
    entries_ = ladder_guests(options_.smoke);
    images_.clear();
    for (const LadderGuest& entry : entries_) {
      images_.push_back(guests::build_image(*entry.guest));
    }
  }

  void pass(Tracer& tracer) override {
    runs_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const guests::Guest& guest = *entries_[i].guest;
      Tracer::Span span(tracer, "patch.faulter_patcher");
      runs_.push_back(patch::faulter_patcher(images_[i], guest.good_input, guest.bad_input,
                                             ladder_config(entries_[i])));
    }
  }

  void check(Checks& checks, bool first) override {
    std::vector<std::vector<std::uint8_t>> elf_bytes;
    for (const patch::PipelineResult& run : runs_) {
      elf_bytes.push_back(elf::write_elf(run.hardened));
    }
    if (!first) {
      for (std::size_t i = 0; i < runs_.size(); ++i) {
        checks.expect(elf_bytes[i] == first_elf_[i],
                      "fixpoint_ladder: " + entries_[i].guest->name +
                          " hardened image differs from the first pass");
      }
      return;
    }
    first_elf_ = elf_bytes;
    code_ratios_.clear();
    instr_ratios_.clear();
    residual_ = 0;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const LadderGuest& entry = entries_[i];
      const guests::Guest& guest = *entry.guest;
      const std::string name = "fixpoint_ladder: " + guest.name + " (" +
                               std::string(r2r::isa::to_string(guest.arch)) + ")";
      const elf::Image hardened = elf::read_elf(elf_bytes[i]);
      const auto good = r2r::emu::run_image(hardened, guest.good_input);
      const auto bad = r2r::emu::run_image(hardened, guest.bad_input);
      checks.expect(matches_oracle(good, guest.good_output, guest.good_exit),
                    name + " good input after the ELF round trip");
      checks.expect(matches_oracle(bad, guest.bad_output, guest.bad_exit),
                    name + " bad input after the ELF round trip");

      const auto original_good = r2r::emu::run_image(images_[i], guest.good_input);
      const auto original_bad = r2r::emu::run_image(images_[i], guest.bad_input);
      code_ratios_.push_back(static_cast<double>(hardened.code_size()) /
                             static_cast<double>(images_[i].code_size()));
      instr_ratios_.push_back(static_cast<double>(good.steps + bad.steps) /
                              static_cast<double>(original_good.steps + original_bad.steps));
      residual_ += residual_fault_sets(hardened, entry);
    }
    checks.expect(residual_ <= kMaxResidualFaultSets,
                  "fixpoint_ladder: " + std::to_string(residual_) +
                      " residual fault sets, at most " +
                      std::to_string(kMaxResidualFaultSets) + " expected");
  }

  [[nodiscard]] double code_size_ratio() const override { return geomean(code_ratios_); }
  [[nodiscard]] double instr_count_ratio() const override { return geomean(instr_ratios_); }

  void describe(double pass_s) const override {
    std::printf("fixpoint_ladder: %zu guests, 1 thread\n", runs_.size());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const patch::PipelineResult& r = runs_[i];
      std::printf("  %-11s %-6s order %u: %zu iterations, %llu -> %llu B (%.1f%%)\n",
                  entries_[i].guest->name.c_str(),
                  std::string(r2r::isa::to_string(entries_[i].guest->arch)).c_str(),
                  entries_[i].order, r.iterations.size(),
                  static_cast<unsigned long long>(r.original_code_size),
                  static_cast<unsigned long long>(r.hardened_code_size), r.overhead_percent());
    }
    std::printf("  fixpoint_pass_s %.4f  code_overhead_pct %.2f  runtime_overhead_pct %.2f  "
                "residual_fault_sets %llu\n",
                pass_s, 100.0 * (code_size_ratio() - 1), 100.0 * (instr_count_ratio() - 1),
                static_cast<unsigned long long>(residual_));
  }

 private:
  Options options_;
  std::vector<LadderGuest> entries_;
  std::vector<elf::Image> images_;
  std::vector<patch::PipelineResult> runs_;
  std::vector<std::vector<std::uint8_t>> first_elf_;
  std::vector<double> code_ratios_;
  std::vector<double> instr_ratios_;
  std::uint64_t residual_ = 0;
};

}  // namespace

std::vector<LadderGuest> ladder_guests(bool smoke) {
  if (smoke) {
    return {{&guests::toymov(), false, 3}, {&guests::toymov_rv32i(), true, 1}};
  }
  return {{&guests::pincheck(), false, 3},
          {&guests::bootloader(), false, 2},
          {&guests::toymov(), false, 3},
          {&guests::pincheck_rv32i(), true, 1},
          {&guests::toymov_rv32i(), true, 1}};
}

patch::PipelineConfig ladder_config(const LadderGuest& entry) {
  patch::PipelineConfig config;
  config.campaign.models.skip = true;
  config.campaign.models.bit_flip = entry.bit_flip;
  config.campaign.models.order = entry.order;
  config.campaign.threads = 1;
  return config;
}

std::uint64_t residual_fault_sets(const elf::Image& image, const LadderGuest& entry) {
  const sim::Engine engine(image, entry.guest->good_input, entry.guest->bad_input,
                           single_thread_engine());
  const sim::FaultModels models = ladder_config(entry).campaign.models;
  if (entry.order == 1) return engine.run(models).vulnerabilities.size();
  const sim::TupleCampaignResult swept = engine.run_tuples(models);
  std::uint64_t successful = swept.order1.vulnerabilities.size();
  for (const sim::TupleLevelSummary& level : swept.levels) successful += level.successful;
  return successful;
}

std::unique_ptr<Workload> make_fixpoint_ladder(const Options& options) {
  return std::make_unique<FixpointLadder>(options);
}

}  // namespace perfbench
