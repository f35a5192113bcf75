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
  EXPECT_LE(result.overhead_percent(), 60.0);
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
     {{857, "22344e984be316dbbc2117eb8f86cd4b3aad52c2ce6749d34856aa8af7ef5889"},
      {2892, "341ff12678d81977dcdb288fc71eb3e6883647a3230a79028575451f04704ee6"},
      {3158, "1998b0730896f69027ba0e974e305aac02b5e75b8944dd882c7f3989b9c2cda5"}}},
    {"bootloader",
     isa::Arch::kX64,
     {{929, "d8c41de0a2dd51d3e49078b9aed4a16646fcce20d07ab8719cadb20a889e92cf"},
      {2709, "b8ed1ada08f52e891448c0fea2517b0a9d7a59bfb41071f4a52bd9233a600632"},
      {3419, "7663be6842bd9dfcfa826ba134e4058ba2a48ac45ab658dc7314e468d3c74162"}}},
    {"toymov",
     isa::Arch::kX64,
     {{174, "a53e07fa5dbaba3406ce2fed341580a134f0cda7f77c812cba0a38b4d64929bc"},
      {424, "e185de10917599b742be326c16669f845573287bbc2acc5cef9db2f98095d261"},
      {345, "e43272ee05ab9fe1701740794a01871c071776d71b8d9f177dd2623a7ac6ec6c"}}},
    {"pincheck",
     isa::Arch::kRv32i,
     {{928, "3322453591dd3b236b3946e6a6e138086593f077936c212d460ffce4072f0ce2"},
      {3276, "cda350f350c0dc858fcf639fb618eebd323a3ed0cffd7fe9b194189b9914e20b"},
      {6108, "aa28a157e9a6311bcbf48d36e96dd4e4f67de4f57bc808605a90d9d361ef4204"}}},
    {"toymov",
     isa::Arch::kRv32i,
     {{156, "97faddf479f7b2a39b0a4f869a85934d8385bf5733c489361a928a8b9c6a5492"},
      {436, "100cb9a8945d7e66594436a8ed7ae81b7ffdf55312142f7695cf379d7be164b7"},
      {540, "c5a287d738b72cff6cb13b2f1f8e64ae0abf395098a04c340a0e243cbfc3f9d2"}}},
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
                {6505, "1a585cb82aad6852265ece32e63eaa51a54a0b4175f3ce22ce51776f215fc4a9"});
}

struct SynthGolden {
  std::uint64_t seed;
  GoldenBytes x64;
  GoldenBytes rv32i;
};

/// One row per synth_corpus::kCorpus seed, in its order.
constexpr SynthGolden kSynthGolden[] = {
    {10,
     {1938, "8b7b71fc1a5a135d59019b41942aba4d146bc61f350f4285b134583be0f92ad9"},
     {2176, "43857ca89ec9d8e47161ffb7bee2db6d8c26c32d8795a0bfec52eb1603dac80a"}},
    {20,
     {1904, "0f4aac66cbe6155b43d43cb362d3787c397afc169095649eea2e002202ed63c6"},
     {2188, "378651e1128d3a8149e9aa7c440b4fc6d87169da2f202fc6e5f209c42c5b1fc5"}},
    {2,
     {3339, "f253686ce61465973a808c4443fe4a2bfa784f26e636d29bd4eb9cfbb21f603b"},
     {3868, "581e9692065909d89f146d98973004fa1d526acd8fcc9ca2f6392bd96719753b"}},
    {8,
     {2832, "c958a25e08e0e0cf9a69143c986b202add19933010e6763f9d6e1cccfb550ae5"},
     {3196, "7d7fb1b3fc308609e31af35a411485dc304fa03ff651fbc79fddf09d2a3e3c15"}},
    {9,
     {4848, "5829188e58a4221165e27d32599ea9712c898a88c491fdfd0e50b00e148ebfa6"},
     {5556, "c93fc0c08e592913a963245d3c90cb614717a72ab809f5740d6e5777ffe63345"}},
    {15,
     {3492, "ffc825dd031c18340c9c3bae50550a8d3de984fc74a8c2bf8c21890cab095d26"},
     {3928, "9bc2835675af9f99f2d35b7afe677d2f0bf4665bc9c3289d908d29b8603b943b"}},
    {23,
     {1538, "29bd784d7adb1f058b368d8627a10da2e2cbc77bfa546837018f4c320ead1f89"},
     {1692, "ea3ccc342c518715a9cf9da5b5220e81c1b423d0b725f995f1a146802a7b9234"}},
    {36,
     {2482, "283536b96c5aff7cba154ef9bfd5b05a306512103389906742131c43d4c38c5a"},
     {2852, "857dfd04936e8ba023439567a44b74f829554129af2fb77d8db037d2ce3c18b7"}},
    {77,
     {2519, "50c36cee4d3d3ce019a6d4a6a0c41346c9b903d88fc4b497f9e7270dfd756daf"},
     {2888, "86b3ef7c329e1220f101608a2c1974161ccb753e64df1da9e8876e703dc04d20"}},
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
