// hybrid_corpus: Hybrid branch hardening (lift, cleanup passes, call guard
// plus branch hardening, lower) over pincheck, bootloader and a seeded
// draw of synth guests for x64 and rv32i. Each hardened image goes
// through an ELF write/read round trip and runs on its good and bad
// inputs. The simulator does no work here.
#include <cstdio>
#include <set>

#include "elf/image.h"
#include "emu/machine.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "isa/target.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::size_t kSynthPerTarget = 200;
constexpr std::size_t kSmokeSynthPerTarget = 2;

struct GuestRun {
  std::vector<std::uint8_t> elf_bytes;
  std::uint64_t code_size = 0;
  r2r::emu::RunResult good;
  r2r::emu::RunResult bad;
};

class HybridCorpus final : public Workload {
 public:
  explicit HybridCorpus(const Options& options) : options_(options) {}

  void setup() override {
    corpus_ = hybrid_guests(options_.seed, options_.smoke);
    images_.clear();
    for (const guests::Guest& guest : corpus_) images_.push_back(guests::build_image(guest));
  }

  void pass(Tracer& tracer) override {
    runs_.assign(corpus_.size(), GuestRun{});
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      GuestRun& run = runs_[i];
      r2r::harden::HybridResult hardened = [&] {
        Tracer::Span span(tracer, "harden.hybrid_harden");
        return r2r::harden::hybrid_harden(images_[i]);
      }();
      {
        Tracer::Span span(tracer, "elf.write_elf");
        run.elf_bytes = elf::write_elf(hardened.hardened);
      }
      const elf::Image loaded = [&] {
        Tracer::Span span(tracer, "elf.read_elf");
        return elf::read_elf(run.elf_bytes);
      }();
      run.code_size = loaded.code_size();
      {
        Tracer::Span span(tracer, "emu.run_image");
        run.good = r2r::emu::run_image(loaded, corpus_[i].good_input);
        run.bad = r2r::emu::run_image(loaded, corpus_[i].bad_input);
      }
    }
  }

  void check(Checks& checks, bool first) override {
    if (first) {
      first_elf_.clear();
      code_ratios_.clear();
      instr_ratios_.clear();
    }
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      const guests::Guest& guest = corpus_[i];
      const GuestRun& run = runs_[i];
      const bool ok = matches_oracle(run.good, guest.good_output, guest.good_exit) &&
                      matches_oracle(run.bad, guest.bad_output, guest.bad_exit);
      if (!ok) {
        ++wrong;
        std::fprintf(stderr, "hybrid_corpus: %s (%s) misbehaves after hardening\n",
                     guest.name.c_str(), std::string(r2r::isa::to_string(guest.arch)).c_str());
      }
      if (!first) {
        wrong += run.elf_bytes == first_elf_[i] ? 0 : 1;
        continue;
      }
      first_elf_.push_back(run.elf_bytes);
      const auto original_good = r2r::emu::run_image(images_[i], guest.good_input);
      const auto original_bad = r2r::emu::run_image(images_[i], guest.bad_input);
      checks.expect(matches_oracle(original_good, guest.good_output, guest.good_exit) &&
                        matches_oracle(original_bad, guest.bad_output, guest.bad_exit),
                    "hybrid_corpus: " + guest.name + " matches its oracle before hardening");
      code_ratios_.push_back(static_cast<double>(run.code_size) /
                             static_cast<double>(images_[i].code_size()));
      instr_ratios_.push_back(static_cast<double>(run.good.steps + run.bad.steps) /
                              static_cast<double>(original_good.steps + original_bad.steps));
    }
    checks.expect(wrong == 0, "hybrid_corpus: " + std::to_string(wrong) + " of " +
                                  std::to_string(corpus_.size()) +
                                  " hardened guests differ from their oracles or the first pass");
  }

  [[nodiscard]] double code_size_ratio() const override { return geomean(code_ratios_); }
  [[nodiscard]] double instr_count_ratio() const override { return geomean(instr_ratios_); }

  void describe(double pass_s) const override {
    std::printf("hybrid_corpus: %zu guests (seed %llu), branch hardening\n", corpus_.size(),
                static_cast<unsigned long long>(options_.seed));
    for (std::size_t i = 0; i < corpus_.size() && i < 3; ++i) {
      std::printf("  %-11s %-6s %llu -> %llu B (%.1f%%)\n", corpus_[i].name.c_str(),
                  std::string(r2r::isa::to_string(corpus_[i].arch)).c_str(),
                  static_cast<unsigned long long>(images_[i].code_size()),
                  static_cast<unsigned long long>(runs_[i].code_size),
                  100.0 * (code_ratios_[i] - 1));
    }
    std::printf("  hybrid_guests_per_s %.2f  code_overhead_pct %.2f  runtime_overhead_pct %.2f\n",
                static_cast<double>(corpus_.size()) / pass_s, 100.0 * (code_size_ratio() - 1),
                100.0 * (instr_count_ratio() - 1));
  }

 private:
  Options options_;
  std::vector<guests::Guest> corpus_;
  std::vector<elf::Image> images_;
  std::vector<GuestRun> runs_;
  std::vector<std::vector<std::uint8_t>> first_elf_;
  std::vector<double> code_ratios_;
  std::vector<double> instr_ratios_;
};

}  // namespace

std::vector<SynthDraw> hybrid_synth_draws(std::uint64_t seed, bool smoke) {
  const std::size_t per_target = smoke ? kSmokeSynthPerTarget : kSynthPerTarget;
  std::vector<SynthDraw> draws;
  Rng rng(seed);
  for (const r2r::isa::Arch arch : {r2r::isa::Arch::kX64, r2r::isa::Arch::kRv32i}) {
    std::set<std::uint64_t> drawn;
    while (drawn.size() < per_target) {
      const std::uint64_t synth_seed = rng.next() >> 32;
      if (drawn.insert(synth_seed).second) draws.push_back({synth_seed, arch});
    }
  }
  return draws;
}

std::vector<guests::Guest> hybrid_guests(std::uint64_t seed, bool smoke) {
  std::vector<guests::Guest> corpus{guests::pincheck(), guests::bootloader(),
                                    guests::pincheck_rv32i()};
  for (const SynthDraw& draw : hybrid_synth_draws(seed, smoke)) {
    corpus.push_back(guests::synth::generate(draw.seed, draw.arch));
  }
  return corpus;
}

std::unique_ptr<Workload> make_hybrid_corpus(const Options& options) {
  return std::make_unique<HybridCorpus>(options);
}

}  // namespace perfbench
