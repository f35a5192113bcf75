// harden layer: table and section rendering, and end-to-end Hybrid
// invariants across countermeasure configurations.
#include <gtest/gtest.h>

#include "guests/guests.h"
#include "harden/hybrid.h"
#include "harden/report.h"

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

}  // namespace
}  // namespace r2r::harden
