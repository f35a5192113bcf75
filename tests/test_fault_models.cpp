// Extension fault models (register-bit-flip, flag-flip) and decoder
// robustness under arbitrary byte sequences (fuzz property).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bir/assemble.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "isa/decoder.h"
#include "isa/encoder.h"
#include "isa/target.h"
#include "sim/engine.h"
#include "support/error.h"
#include "support/rng.h"

namespace r2r {
namespace {

using emu::FaultSpec;

TEST(RegisterFlip, FlipsExactlyOneBitBeforeTheInstruction) {
  // exit(rdi) where rdi = 8; flipping bit 1 of rdi before the syscall
  // (trace index 2) exits with 10.
  bir::Module module = bir::module_from_assembly(
      ".global _start\n_start:\n"
      "    mov rax, 60\n"
      "    mov rdi, 8\n"
      "    syscall\n");
  const elf::Image image = bir::assemble(module);
  emu::RunConfig config;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kRegisterBitFlip;
  spec.trace_index = 2;
  spec.bit_offset = isa::reg_number(isa::Reg::rdi) * 64 + 1;
  config.fault = spec;
  const emu::RunResult run = emu::run_image(image, "", config);
  ASSERT_EQ(run.reason, emu::StopReason::kExited);
  EXPECT_EQ(run.exit_code, 10);
}

TEST(FlagFlip, InvertsBranchDirection) {
  // cmp sets ZF=0 (values differ); flipping ZF right before the je takes
  // the equal path.
  bir::Module module = bir::module_from_assembly(
      ".global _start\n_start:\n"
      "    mov rbx, 1\n"
      "    cmp rbx, 2\n"
      "    je equal\n"
      "    mov rax, 60\n"
      "    mov rdi, 1\n"
      "    syscall\n"
      "equal:\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
  const elf::Image image = bir::assemble(module);
  EXPECT_EQ(emu::run_image(image, "").exit_code, 1);

  emu::RunConfig config;
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kFlagFlip;
  spec.trace_index = 2;  // the je
  spec.bit_offset = 3;   // ZF
  config.fault = spec;
  EXPECT_EQ(emu::run_image(image, "", config).exit_code, 0);
}

TEST(ExtensionCampaign, FlagModelFindsBranchVulnerabilities) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  fault::CampaignConfig config;
  config.models.skip = false;
  config.models.bit_flip = false;
  config.models.flag_flip = true;
  const sim::CampaignResult result =
      fault::run_campaign(image, guest.good_input, guest.bad_input, config).order1;
  EXPECT_EQ(result.total_faults, result.trace_length * 6);
  // Flipping ZF at the guarding jne grants access.
  EXPECT_FALSE(result.vulnerabilities.empty());
  for (const fault::Vulnerability& v : result.vulnerabilities) {
    EXPECT_EQ(v.spec.kind, FaultSpec::Kind::kFlagFlip);
  }
}

TEST(ExtensionCampaign, RegisterModelRespectsStrideAndRegisterSet) {
  const guests::Guest& guest = guests::toymov();
  const elf::Image image = guests::build_image(guest);
  fault::CampaignConfig config;
  config.models.skip = false;
  config.models.bit_flip = false;
  config.models.register_flip = true;
  config.models.register_flip_regs = {0, 3};  // rax, rbx
  config.models.register_flip_bit_stride = 16;
  const sim::CampaignResult result =
      fault::run_campaign(image, guest.good_input, guest.bad_input, config).order1;
  EXPECT_EQ(result.total_faults, result.trace_length * 2 * (64 / 16));
}

TEST(ExtensionCampaign, HybridChecksumCatchesFlagFlipsLocalPatternsMiss) {
  // A flag flip corrupts the very state both executions of the Table III
  // pattern consult, so the local pattern cannot catch it; the hybrid's
  // checksum validation recomputes the condition from *data* (the lifted
  // comparison) and does catch the inconsistency when the flip lands
  // between C2's evaluation and use. At minimum, the hybrid binary must
  // not be *more* vulnerable than the pattern-patched one.
  const guests::Guest& guest = guests::toymov();
  const elf::Image input = guests::build_image(guest);
  fault::CampaignConfig config;
  config.models.skip = false;
  config.models.bit_flip = false;
  config.models.flag_flip = true;

  const sim::CampaignResult unprotected =
      fault::run_campaign(input, guest.good_input, guest.bad_input, config).order1;

  const harden::HybridResult hybrid = harden::hybrid_harden(input);
  const sim::CampaignResult hardened = fault::run_campaign(
      hybrid.hardened, guest.good_input, guest.bad_input, config).order1;

  EXPECT_GT(unprotected.vulnerabilities.size(), 0u);
  EXPECT_LE(hardened.vulnerable_addresses().size(),
            unprotected.vulnerable_addresses().size());
}

// ---- extension models against generated guests -------------------------------
//
// The register_flip and flag_flip models used to default off and were only
// exercised on toymov. Here they sweep synthetic guests, and for each
// (model, seed) combination the engine must classify bit-identically
// (a) with convergence pruning on vs off (pruned vs exhaustive), and
// (b) at 1 vs 8 worker threads.

enum class ExtensionModel { kRegisterFlip, kFlagFlip };

sim::FaultModels extension_models(ExtensionModel model) {
  sim::FaultModels models;
  models.skip = false;
  models.bit_flip = false;
  models.register_flip = model == ExtensionModel::kRegisterFlip;
  models.flag_flip = model == ExtensionModel::kFlagFlip;
  return models;
}

class ExtensionModelSweep
    : public testing::TestWithParam<std::tuple<ExtensionModel, std::uint64_t>> {};

TEST_P(ExtensionModelSweep, PrunedVsExhaustiveAndThreadCountAreBitIdentical) {
  const auto [model, seed] = GetParam();
  const guests::Guest guest = guests::synth::generate(seed);
  const elf::Image image = guests::build_image(guest);
  const sim::FaultModels models = extension_models(model);

  sim::EngineConfig pruned_config;
  pruned_config.threads = 1;
  const sim::Engine pruned(image, guest.good_input, guest.bad_input, pruned_config);
  const sim::CampaignResult reference = pruned.run(models);

  // The sweep must actually cover the advertised fan-out.
  const std::uint64_t per_step =
      model == ExtensionModel::kRegisterFlip
          ? models.register_flip_regs.size() * (64 / models.register_flip_bit_stride)
          : 6;  // six arithmetic flags
  EXPECT_EQ(reference.total_faults, reference.trace_length * per_step);

  // (a) exhaustive (no convergence pruning) is bit-identical.
  sim::EngineConfig exhaustive_config = pruned_config;
  exhaustive_config.convergence_pruning = false;
  const sim::Engine exhaustive(image, guest.good_input, guest.bad_input,
                               exhaustive_config);
  const sim::CampaignResult full = exhaustive.run(models);
  EXPECT_EQ(full.vulnerabilities, reference.vulnerabilities);
  EXPECT_EQ(full.outcome_counts, reference.outcome_counts);
  EXPECT_EQ(full.total_faults, reference.total_faults);
  EXPECT_EQ(full.pruned_faults, 0u);

  // (b) 8 worker threads are bit-identical.
  sim::EngineConfig parallel_config = pruned_config;
  parallel_config.threads = 8;
  const sim::Engine parallel(image, guest.good_input, guest.bad_input,
                             parallel_config);
  const sim::CampaignResult threaded = parallel.run(models);
  EXPECT_EQ(threaded.vulnerabilities, reference.vulnerabilities);
  EXPECT_EQ(threaded.outcome_counts, reference.outcome_counts);
  EXPECT_EQ(threaded.total_faults, reference.total_faults);
  EXPECT_EQ(threaded.pruned_faults, reference.pruned_faults);
}

TEST_P(ExtensionModelSweep, FaultCampaignMatchesEngineSweep) {
  // fault::run_campaign must hand the extension models through to the
  // engine verbatim — same vulnerabilities, same counters.
  const auto [model, seed] = GetParam();
  const guests::Guest guest = guests::synth::generate(seed);
  const elf::Image image = guests::build_image(guest);
  const sim::FaultModels models = extension_models(model);

  const sim::Engine engine(image, guest.good_input, guest.bad_input, {});
  const sim::CampaignResult expected = engine.run(models);

  fault::CampaignConfig config;
  config.models = models;
  const sim::CampaignResult campaign =
      fault::run_campaign(image, guest.good_input, guest.bad_input, config).order1;
  EXPECT_EQ(campaign.vulnerabilities, expected.vulnerabilities);
  EXPECT_EQ(campaign.outcome_counts, expected.outcome_counts);
  EXPECT_EQ(campaign.total_faults, expected.total_faults);
  EXPECT_EQ(campaign.trace_length, expected.trace_length);
}

INSTANTIATE_TEST_SUITE_P(
    SynthGuests, ExtensionModelSweep,
    testing::Combine(testing::Values(ExtensionModel::kRegisterFlip,
                                     ExtensionModel::kFlagFlip),
                     // Corpus seeds: order-1-clean multi-stage (2), minimal
                     // straight-line (23), shortest-trace multi-stage (36).
                     testing::Values(2ULL, 23ULL, 36ULL)),
    [](const testing::TestParamInfo<std::tuple<ExtensionModel, std::uint64_t>>& info) {
      const ExtensionModel model = std::get<0>(info.param);
      return std::string(model == ExtensionModel::kRegisterFlip ? "register_flip"
                                                                : "flag_flip") +
             "_seed_" + std::to_string(std::get<1>(info.param));
    });

// ---- decoder fuzz property -----------------------------------------------------

TEST(DecoderFuzz, ArbitraryBytesEitherDecodeOrThrowError) {
  // Property, on every target: the non-throwing core never crashes, loops
  // or reads out of bounds on arbitrary input, and decode() is its thin
  // wrapper. On each window (of random length up to the target's maximum)
  // the two agree on the instruction and its length, or on the message
  // decode() throws as Error{kDecode}. Half the windows are bit-flipped
  // valid encodings, the input a bit-flip campaign feeds the decoder.
  constexpr std::uint64_t kAddress = 0x400000;
  for (const isa::Target* target : isa::all_targets()) {
    SCOPED_TRACE(std::string(target->name()));
    const std::size_t max_length = target->max_instruction_length();
    const std::vector<std::vector<std::uint8_t>> seeds = {
        target->encode(isa::add(isa::Reg::rax, isa::Reg::rcx, target->natural_width()),
                       kAddress),
        target->encode(isa::cmp(isa::Reg::rbx, isa::imm(7), target->natural_width()),
                       kAddress),
        target->encode(isa::mov(isa::Reg::rdx, isa::imm(0x12345678), target->natural_width()),
                       kAddress),
    };
    support::Rng rng(20260608);
    unsigned decoded_count = 0;
    unsigned rejected_count = 0;
    std::vector<std::uint8_t> window;
    for (int round = 0; round < 20000; ++round) {
      if (round % 2 == 0) {
        const auto& seed = seeds[rng.next() % seeds.size()];
        window.assign(seed.begin(), seed.end());
        window.resize(max_length, static_cast<std::uint8_t>(rng.next()));
        window[rng.next() % seed.size()] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
      } else {
        window.resize(rng.next() % (max_length + 1));
        for (auto& b : window) b = static_cast<std::uint8_t>(rng.next());
      }

      isa::Decoded core;
      const isa::DecodeStatus status = target->try_decode(window, kAddress, core);
      try {
        const isa::Decoded wrapped = target->decode(window, kAddress);
        ASSERT_TRUE(status.ok()) << "decode() accepted what try_decode() rejected";
        EXPECT_EQ(wrapped.instr, core.instr);
        EXPECT_EQ(wrapped.length, core.length);
        EXPECT_GE(core.length, 1u);
        EXPECT_LE(core.length, window.size());
        ++decoded_count;
      } catch (const support::Error& error) {
        ASSERT_FALSE(status.ok()) << "decode() threw on what try_decode() accepted";
        EXPECT_EQ(error.kind(), support::ErrorKind::kDecode);
        EXPECT_EQ(std::string(error.what()), isa::decode_error(status).what());
        ++rejected_count;
      }
    }
    EXPECT_GT(decoded_count, 1000u);
    EXPECT_GT(rejected_count, 1000u);
  }
}

TEST(DecoderFuzz, DecodedInstructionsReencodeToEquivalentForm) {
  // For every fuzzed byte string that decodes, re-encoding the decoded
  // instruction and decoding again must yield the same instruction
  // (encode-decode normalization is idempotent).
  support::Rng rng(77);
  std::vector<std::uint8_t> buffer(15);
  unsigned decoded_count = 0;
  for (int round = 0; round < 20000; ++round) {
    for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next());
    isa::Decoded first;
    try {
      first = isa::decode(buffer, 0x400000);
    } catch (const support::Error&) {
      continue;
    }
    ++decoded_count;
    std::vector<std::uint8_t> bytes;
    try {
      bytes = isa::encode(first.instr, 0x400000);
    } catch (const support::Error&) {
      // Decode-only forms (rel8 branches, shift-by-1 opcodes) may encode
      // differently or reject exotic-but-valid inputs; skip those.
      continue;
    }
    const isa::Decoded second = isa::decode(bytes, 0x400000);
    EXPECT_EQ(second.instr, first.instr);
  }
  EXPECT_GT(decoded_count, 1000u) << "fuzz corpus decoded too few samples";
}

}  // namespace
}  // namespace r2r
