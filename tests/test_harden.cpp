// harden layer: table and section rendering, end-to-end Hybrid
// invariants across countermeasure configurations, and the Hybrid output
// bytes pinned per case.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "elf/image.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "harden/report.h"
#include "isa/target.h"
#include "support/sha256.h"
#include "synth_corpus.h"

namespace r2r::harden {
namespace {

TEST(TextTable, AlignsColumnsAndDrawsHeaderRule) {
  TextTable table;
  table.add_row({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("|-------------|-------|"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
}

TEST(TextTable, ToleratesRaggedRows) {
  TextTable table;
  table.add_row({"a", "b", "c"});
  table.add_row({"1"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| 1 |"), std::string::npos);
}

TEST(TextTable, MarkdownPadsRaggedRowsWithEmptyCells) {
  TextTable table;
  table.add_row({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_EQ(table.render(Style::kMarkdown),
            "| a | b | c |\n"
            "| --- | --- | --- |\n"
            "| 1 |  |  |\n");
}

// The batch summary's shape: an untitled section whose table is followed
// by a note.
TEST(Section, UntitledSectionRendersTableThenNoteInBothStyles) {
  Section section;
  TextTable table;
  table.add_row({"guest", "status"});
  table.add_row({"toymov", "ok"});
  section.table(std::move(table));
  section.note("1 guest(s)");
  EXPECT_EQ(section.render(Style::kText),
            "| guest  | status |\n"
            "|--------|--------|\n"
            "| toymov | ok     |\n"
            "1 guest(s)\n");
  EXPECT_EQ(section.render(Style::kMarkdown),
            "| guest | status |\n"
            "| --- | --- |\n"
            "| toymov | ok |\n"
            "\n"
            "- 1 guest(s)\n");
}

TEST(HybridDriver, CountermeasureConfigsProduceOrderedSizes) {
  HybridConfig none;
  none.countermeasure = HybridCountermeasure::kNone;
  HybridConfig hardening;  // default = branch hardening
  HybridConfig duplication;
  duplication.countermeasure = HybridCountermeasure::kInstructionDuplication;

  // none < branch hardening on every case study. toymov has one branch and
  // three computations after cleanup, so duplicating them costs less than
  // hardening the branch: only the first order holds there.
  const elf::Image toymov = guests::build_image(guests::toymov());
  EXPECT_LT(hybrid_harden(toymov, none).hardened_code_size,
            hybrid_harden(toymov, hardening).hardened_code_size);

  // Section V-C claim 3 is made on pincheck and bootloader: there, full
  // duplication costs more than branch hardening.
  for (const guests::Guest* guest : {&guests::pincheck(), &guests::bootloader()}) {
    const elf::Image input = guests::build_image(*guest);
    const std::uint64_t size_none = hybrid_harden(input, none).hardened_code_size;
    const std::uint64_t size_hardened = hybrid_harden(input, hardening).hardened_code_size;
    const std::uint64_t size_dup = hybrid_harden(input, duplication).hardened_code_size;
    EXPECT_LT(size_none, size_hardened) << guest->name;
    EXPECT_LT(size_hardened, size_dup) << guest->name;
  }
}

TEST(HybridDriver, LiftLowerOverheadBudget) {
  // Table V's rewriting cost alone: lift, cleanup and lower pincheck with
  // no countermeasure.
  HybridConfig none;
  none.countermeasure = HybridCountermeasure::kNone;
  const HybridResult result = hybrid_harden(guests::build_image(guests::pincheck()), none);
  EXPECT_LE(result.overhead_percent(), 30.0);
}

TEST(HybridDriver, BranchHardeningOverheadBudget) {
  // Table V's Hybrid column: branch hardening on the two case studies.
  const HybridResult pincheck = hybrid_harden(guests::build_image(guests::pincheck()));
  EXPECT_LE(pincheck.overhead_percent(), 370.0);
  const HybridResult bootloader = hybrid_harden(guests::build_image(guests::bootloader()));
  EXPECT_LE(bootloader.overhead_percent(), 355.0);
}

TEST(HybridDriver, CleanupReducesCodeSize) {
  const elf::Image input = guests::build_image(guests::pincheck());
  HybridConfig raw;
  raw.countermeasure = HybridCountermeasure::kNone;
  raw.cleanup = false;
  HybridConfig cleaned;
  cleaned.countermeasure = HybridCountermeasure::kNone;
  EXPECT_GT(hybrid_harden(input, raw).hardened_code_size,
            hybrid_harden(input, cleaned).hardened_code_size);
}

TEST(HybridDriver, ReportsIrCountsBeforeAndAfter) {
  const elf::Image input = guests::build_image(guests::toymov());
  const HybridResult result = hybrid_harden(input);
  EXPECT_GT(result.ir_before.total, 0u);
  EXPECT_GT(result.ir_after.total, result.ir_before.total);
  EXPECT_EQ(result.original_code_size, input.code_size());
  EXPECT_GT(result.overhead_percent(), 0.0);
}

// ---- HybridGolden: the hardened bytes, pinned --------------------------------
//
// Ratios and size orderings cannot see a change of register choice or
// instruction order in the lowering; these cases pin the whole output. A
// change that alters the Hybrid bytes on purpose updates the table in its
// own diff, with the reason.

struct GoldenBytes {
  std::uint64_t text_size = 0;
  std::string_view sha256;  ///< of elf::write_elf(hardened)
};

/// Hardens `input` and compares its .text size and ELF digest with `want`.
void expect_golden(const elf::Image& input, const HybridConfig& config,
                   const GoldenBytes& want) {
  const HybridResult result = hybrid_harden(input, config);
  const std::vector<std::uint8_t> elf = elf::write_elf(result.hardened);
  const std::string digest = support::sha256_hex(
      std::string_view(reinterpret_cast<const char*>(elf.data()), elf.size()));
  EXPECT_EQ(result.hardened_code_size, want.text_size);
  EXPECT_EQ(digest, want.sha256);
}

HybridConfig golden_config(HybridCountermeasure countermeasure, bool cleanup = true) {
  HybridConfig config;
  config.countermeasure = countermeasure;
  config.cleanup = cleanup;
  return config;
}

constexpr HybridCountermeasure kAllCountermeasures[] = {
    HybridCountermeasure::kNone,
    HybridCountermeasure::kBranchHardening,
    HybridCountermeasure::kInstructionDuplication,
};

struct CaseStudyGolden {
  std::string_view guest;
  isa::Arch arch;
  GoldenBytes bytes[3];  ///< per kAllCountermeasures entry
};

constexpr CaseStudyGolden kCaseStudyGolden[] = {
    {"pincheck",
     isa::Arch::kX64,
     {{701, "f1026507f9d03e29c26928af31c0fb5218b15c1edc264a47ad41f15038927b5a"},
      {2531, "ecdadd5781f92978ff88db6c90cd999e7e236c11a14ada78fec5b24d3b622a21"},
      {2620, "ec22c2db4fd5dbd5390c046e23a9c828afb39cfd8a1831a5e0d177ee55998795"}}},
    {"bootloader",
     isa::Arch::kX64,
     {{790, "fc056cab8617132be6dfa95c47efdda1520b6791e517da365ab7f771f7d6cc88"},
      {2364, "969efecf449d9cd87263e1dc1b59a8d8f8caab930a931c23972eb533570ffff0"},
      {2828, "a1ca79980ce66187ea9e231f101220a6a2bfb4c6ca3937d8522d903929491e2f"}}},
    {"toymov",
     isa::Arch::kX64,
     {{110, "d6c9ad16227693385d0139d4234c7cfdf2d60219cad176977a598fc63771d5ce"},
      {326, "46d80d2c494c1c7f508e5d8042a19d4a4d9089413ac6772cbbc12e154e501fac"},
      {252, "076d84c9da7a6c65458adbb5f06fa7a710aec4959f3280e4b0bcc6deaa8baea7"}}},
    {"pincheck",
     isa::Arch::kRv32i,
     {{880, "078c364fd045949741982c5bc81f7298564e3b6ef82b53d0363fd64099da996d"},
      {3228, "2c1a2e34e44a58967dbbc121322098c13ce3bfa691599c831543d95c718ddbc9"},
      {6060, "0a18748f55d09b96dd99d7f8cfb27e99e6bf530079554462f8a532f672f433ee"}}},
    {"toymov",
     isa::Arch::kRv32i,
     {{132, "1999d9bcd63a0d5c430350f0b1d1449b7c8e23ac2d53d904281845416eec902b"},
      {412, "a114d77da1c256f5ec24d5c4a3b775b82ec131030f740f70fdfe7fcb80ea5903"},
      {516, "1edd54877a61efecc5b4c4fa3c0a0d70a659ea732204e0afadba6a131631683c"}}},
};

TEST(HybridGolden, CaseStudiesUnderEveryCountermeasure) {
  for (const CaseStudyGolden& golden : kCaseStudyGolden) {
    const guests::Guest* guest = guests::find_guest(golden.guest, golden.arch);
    ASSERT_NE(guest, nullptr) << golden.guest;
    const elf::Image input = guests::build_image(*guest);
    for (std::size_t i = 0; i < std::size(kAllCountermeasures); ++i) {
      SCOPED_TRACE(std::string(golden.guest) + " on " +
                   std::string(isa::to_string(golden.arch)) + " under " +
                   std::string(to_string(kAllCountermeasures[i])));
      expect_golden(input, golden_config(kAllCountermeasures[i]), golden.bytes[i]);
    }
  }
}

TEST(HybridGolden, PincheckWithoutCleanup) {
  const elf::Image input = guests::build_image(guests::pincheck());
  expect_golden(input, golden_config(HybridCountermeasure::kBranchHardening, false),
                {6219, "ed44d932575f9908227bd90258fe2fef93bd33b7473ae2a8157084d51c5f73f0"});
}

struct SynthGolden {
  std::uint64_t seed;
  GoldenBytes x64;
  GoldenBytes rv32i;
};

/// One row per synth_corpus::kCorpus seed, in its order.
constexpr SynthGolden kSynthGolden[] = {
    {10,
     {1680, "0cd68849ee58593291992a2ab5522d18065aa426b132b01f27d21202da70ae93"},
     {2140, "e167b1ecd479f5350d45b773feae189f5c2fec864fae64984d7d94243a7e4e38"}},
    {20,
     {1649, "bdee7a640f1c5f73969bac0f3b1e3c7c542a63c73a1f56f13d713187c2936213"},
     {2152, "f3b100a4297337031f5b65b38fe4943067ab8210a7ce6b81b4b29c23afba64e7"}},
    {2,
     {2953, "fd1b02f9aa966432a83a1c9dfb2a0a1fac7845f92a20913b36705aabe51db745"},
     {3832, "f63266155bc406aa6a2d2849b361452e7e1c88ceebf917a1e62eb5ea53aae247"}},
    {8,
     {2481, "acef6c7515134a5a97a235f15c07f34bf65dc392c9cf42012ba42d3c77c78a03"},
     {3160, "263c1960cff50c7ed3801878826161ac21a14101d06dea3fa8138207a78931f5"}},
    {9,
     {4359, "fb18d8094e0efc6f344033b53bf50d5fcfaca49b19ae27554e9746706cd1f80c"},
     {5520, "446e7c1febd4667c013c6e079f96e53a0654db89be3697d8a5fa2b1a57e92851"}},
    {15,
     {3106, "1a2dc5a7c261f17c46c31f7bc04e61a010fcb3b594255194fb42399356ad8b6d"},
     {3892, "156ed22b550b3ff86ab145fde760fc90ce9efe6adca4550a094f23c3ba3e274f"}},
    {23,
     {1316, "06cf7f43157082860f9beb806a5ac328536418fc1d60facdc6463fa0920af21d"},
     {1656, "a932d5a8e6bff7fa9a6fe98fde55733f92733e874a59bd20e04647ef7d8b311a"}},
    {36,
     {2177, "5bc9b932bf96713c726075db7893e932fa524faed2fd591a225543593f030c2f"},
     {2816, "95e3e79bfa53c4345da96e0e6cbbfe9e8de284c0d437c13ffa12318e0b0bb7c3"}},
    {77,
     {2214, "46c88622c8e31c460cdc0bb5fa6c5cb4628e4747f97e5a120f0652037ba758b5"},
     {2852, "99973b0bb8f41e15f406729dd5d71735be5a5d962a14eb1274a29ef5a08848ca"}},
};

TEST(HybridGolden, FrozenSynthCorpusUnderBranchHardening) {
  ASSERT_EQ(std::size(kSynthGolden), std::size(synth_corpus::kCorpus));
  const HybridConfig config = golden_config(HybridCountermeasure::kBranchHardening);
  for (std::size_t i = 0; i < std::size(kSynthGolden); ++i) {
    const SynthGolden& golden = kSynthGolden[i];
    ASSERT_EQ(golden.seed, synth_corpus::kCorpus[i].seed);
    for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
      SCOPED_TRACE("synth:" + std::to_string(golden.seed) + " on " +
                   std::string(isa::to_string(arch)));
      const elf::Image input = guests::build_image(guests::synth::generate(golden.seed, arch));
      expect_golden(input, config, arch == isa::Arch::kX64 ? golden.x64 : golden.rv32i);
    }
  }
}

}  // namespace
}  // namespace r2r::harden
