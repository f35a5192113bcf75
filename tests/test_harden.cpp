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
     {{857, "34c1f07bab747883078cef650b2c8dd9ab47f241ed6d6d224e5c7f585d12484f"},
      {2892, "5e618d2d492a8408fc5aa5e0f93873da34850868ca25fa44c2f378c4a3b0f0ea"},
      {3158, "d58ca7edfae82c84328d17f02e1fe65a9b07cc983b67565363214e980be3713f"}}},
    {"bootloader",
     isa::Arch::kX64,
     {{929, "7455b95c0f69032849c0e47895ff1106fe186be8cb36f43e9107ce59b5668df8"},
      {2709, "3115e6478535a44e7de35c3b9bdafe53a184d11afbc3d2e737e59836f00e6a8f"},
      {3419, "13b7c2ff3674b5833488e31ff67ac9091d6fc9b8c847f17d02ab1577e88cf563"}}},
    {"toymov",
     isa::Arch::kX64,
     {{174, "e6da04b67d8baacb10117ba5c4b524922fe6d0ba0451f3a324530c7e45793bf6"},
      {424, "690f6ec3002b7b431f20e824191e286b12d5bf79f66590325f8723e8867a282a"},
      {345, "50ccfcaefaa305de687d13c58e280c90dff85fb047c81277af0aa7c79a0e894c"}}},
    {"pincheck",
     isa::Arch::kRv32i,
     {{928, "69d7551e8d4444a59349fe6cbfcbcc111f19021b83e2d93cea5d6bef191fb178"},
      {3276, "10647519684ae7f06ac32d60da85208af28deadda55d5559fdcc445d48c7877a"},
      {6108, "4850740666bea9392c91fc32b0ad166505bb85534df5886e691f5a0ccf83d006"}}},
    {"toymov",
     isa::Arch::kRv32i,
     {{156, "c3b9dee2d258d6a76dcf682f70fc7508fe7e21174630cb0c486fb4a86377205e"},
      {436, "0fd8688d33c72725c7bd8fa9ce318aa07aea6e991367eca457a1a012c6d8fd77"},
      {540, "1856d24129c338a3a6ee47728feb46f1b59046d0fdddfd5fd8be38a9e4763ea0"}}},
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
                {6505, "42485eb8a43bc3e027fecbb2bf177f6b412120cdfc4666e04d50a29a60c32af2"});
}

struct SynthGolden {
  std::uint64_t seed;
  GoldenBytes x64;
  GoldenBytes rv32i;
};

/// One row per synth_corpus::kCorpus seed, in its order.
constexpr SynthGolden kSynthGolden[] = {
    {10,
     {1938, "bce92fa75b8930893aae9af72c32483f4c12d948486a0c51087702150372b8ba"},
     {2176, "27a6bee7fcf6ed526abe6ae95093ec927a451180d026f273535c903bf3d0da2e"}},
    {20,
     {1904, "42e460ba3bd1003a950125ad442997f0133f77fd82b4720cd89fb0a46a7bd1c4"},
     {2188, "ed919d06f6dd2afb91badabb6fb6d4b6cb815b8e242e31c4c464394b46c2ca68"}},
    {2,
     {3339, "505758df9ee56d7b06e700e0059979264e5dd267de39e0101302bd8a57ad6399"},
     {3868, "c56f13d37377f02dcc32fd6218db1cd942543efff88f61d85efcf89235267621"}},
    {8,
     {2832, "7e9e16d94b5b781c2c4f3a7e9f92911497e86825b8b71d2b7385bfd9944b7a81"},
     {3196, "c4afeb334b3384a2cdb00b15f69f588d579748af3122111d2bddc92d77f63150"}},
    {9,
     {4848, "b85e31735d7264d4b5673780a0289c545da44fb70785f6f33c95c093ce95c25a"},
     {5556, "da58565995972906930920be550a125236d05ec797e1b11205bfbed8246bb8a2"}},
    {15,
     {3492, "78ca1fbfd79267f46c87da541f0ca3ee695461ea10a1c0214304b6ef6d611f97"},
     {3928, "0a959c58bb167834142eb055002fca19f03052c438d2de9dc320e84aeac1a5d3"}},
    {23,
     {1538, "a91cfe29f8829b55fd4825e4f2c3473cf12811ffc314b58b92a729873e87b775"},
     {1692, "430747aeea00c06b2b11560500041891853d33dfd7037c4d42bbf6b56318b5c3"}},
    {36,
     {2482, "045c1c85683ccb88964162009a2d928a1720b903079c4c30f4d5bb30dcf38901"},
     {2852, "2998cdb24cda676ed4a3825c79044de00dc18e93ea41f2e2505dffa1edf683f9"}},
    {77,
     {2519, "dd6c5165ac6c2fa7b67f31d65457e807fe07ee9de2f2f2c0ee6d4eb851c72d22"},
     {2888, "ff92a1e9f424c577e62aa0227ece82f53d0072972311e270e3ded36b822cbb87"}},
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
