// Golden-file style tests for the report/JSON surfaces: the exact text and
// markdown of harden::fixpoint_section and campaign_section on fixed
// inputs, the one campaign JSON schema, and its field inventory on a real
// synthetic-guest sweep at orders 1 and 2. A report refactor that drops a field or
// reshuffles a column fails here, not in a downstream consumer.
#include <gtest/gtest.h>

#include <string>

#include "elf/image.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/report.h"
#include "patch/pipeline.h"
#include "sim/engine.h"

namespace r2r {
namespace {

// ---- fixed fixtures ---------------------------------------------------------

patch::PipelineResult fixed_pipeline_result() {
  patch::PipelineResult result;
  patch::IterationReport it0;
  it0.order = 1;
  it0.successful_faults = 4;
  it0.vulnerable_points = 3;
  it0.patches_applied = 3;
  it0.code_size = 100;
  patch::IterationReport it1;
  it1.order = 1;
  it1.code_size = 148;
  patch::IterationReport it2;
  it2.order = 2;
  it2.total_tuples = 500;
  it2.successful_tuples = 2;
  it2.strictly_order_k = 2;
  it2.tuple_patch_sites = 3;
  it2.patches_applied = 3;
  it2.code_size = 148;
  patch::IterationReport it3;
  it3.order = 2;
  it3.total_tuples = 520;
  it3.code_size = 180;
  result.iterations = {it0, it1, it2, it3};
  result.fixpoint = true;
  // The last sweep is the final campaign: order 2 and clean at every level.
  result.final_campaign.order = 2;
  result.final_campaign.total_tuples = 520;
  sim::TupleLevelSummary level;
  level.order = 2;
  level.enumerated = 520;
  level.classified = 520;
  result.final_campaign.levels = {level};
  result.original_code_size = 100;
  result.hardened_code_size = 180;
  // Rung 1 ended at 148 bytes, rung 2 at 180.
  result.order_milestones = {{1, 148}, {2, 180}};
  return result;
}

/// An order-3 run capped on rung 1: one patching iteration, and a final
/// order-3 sweep that still finds a triple.
patch::PipelineResult capped_order3_result() {
  patch::PipelineResult result;
  patch::IterationReport it0;
  it0.order = 1;
  it0.successful_faults = 1;
  it0.vulnerable_points = 1;
  it0.patches_applied = 1;
  it0.code_size = 155;
  result.iterations = {it0};
  result.final_campaign.order = 3;
  sim::TupleLevelSummary level;
  level.order = 3;
  level.successful = 1;
  result.final_campaign.levels = {level};
  result.original_code_size = 155;
  result.hardened_code_size = 261;
  return result;
}

sim::TupleCampaignResult fixed_pair_result() {
  sim::TupleCampaignResult pairs;
  pairs.order = 2;
  pairs.total_tuples = 1252;
  pairs.enumerated_tuples = 1252;
  pairs.trace_length = 161;
  pairs.pair_window = 8;
  pairs.order1.total_faults = 161;
  pairs.order1.trace_length = 161;
  pairs.order1.outcome_counts[sim::Outcome::kNoEffect] = 150;
  pairs.order1.outcome_counts[sim::Outcome::kDetected] = 11;
  pairs.outcome_counts[sim::Outcome::kNoEffect] = 1000;
  pairs.outcome_counts[sim::Outcome::kSuccess] = 2;
  pairs.outcome_counts[sim::Outcome::kDetected] = 250;
  sim::TupleLevelSummary level;
  level.order = 2;
  level.enumerated = 1252;
  level.classified = 1252;
  level.successful = 2;
  level.reused_prefix = 600;
  level.reused_suffix = 500;
  level.simulated = 152;
  pairs.levels = {level};
  sim::TupleVulnerability v1;
  v1.faults.resize(2);
  v1.faults[0].kind = emu::FaultSpec::Kind::kSkip;
  v1.faults[0].trace_index = 10;
  v1.faults[1].kind = emu::FaultSpec::Kind::kSkip;
  v1.faults[1].trace_index = 12;
  v1.addresses = {0x401010, 0x401018};
  v1.hit_addresses = {0x401010, 0x401020};
  sim::TupleVulnerability v2 = v1;
  v2.faults[1].trace_index = 13;
  pairs.vulnerabilities = {v1, v2};
  return pairs;
}

// ---- exact goldens ----------------------------------------------------------

TEST(ReportGolden, Order2FixpointSection) {
  const std::string expected =
      "order-2 fix-point trajectory: demo\n"
      "| iteration | order | faults | sets  | sites | patched | code bytes |\n"
      "|-----------|-------|--------|-------|-------|---------|------------|\n"
      "| 0         | 1     | 4      | -     | -     | 3       | 100        |\n"
      "| 1         | 1     | 0      | -     | -     | 0       | 148        |\n"
      "| 2         | 2     | 0      | 2/500 | 3     | 3       | 148        |\n"
      "| 3         | 2     | 0      | 0/520 | 0     | 0       | 180        |\n"
      "  fix-point: yes, order-2 clean: yes\n"
      "  overhead (Table-V style): order-1 48.0% -> order-2 80.0% "
      "(+32.0 points for closing the order-2 gap)\n";
  EXPECT_EQ(harden::fixpoint_section("demo", fixed_pipeline_result()), expected);
}

TEST(ReportGolden, Order2FixpointSectionMarkdown) {
  const std::string expected =
      "### order-2 fix-point trajectory: demo\n"
      "\n"
      "| iteration | order | faults | sets | sites | patched | code bytes |\n"
      "| --- | --- | --- | --- | --- | --- | --- |\n"
      "| 0 | 1 | 4 | - | - | 3 | 100 |\n"
      "| 1 | 1 | 0 | - | - | 0 | 148 |\n"
      "| 2 | 2 | 0 | 2/500 | 3 | 3 | 148 |\n"
      "| 3 | 2 | 0 | 0/520 | 0 | 0 | 180 |\n"
      "\n"
      "- fix-point: yes, order-2 clean: yes\n"
      "- overhead (Table-V style): order-1 48.0% -> order-2 80.0% "
      "(+32.0 points for closing the order-2 gap)\n";
  EXPECT_EQ(harden::fixpoint_section("demo", fixed_pipeline_result(),
                                     harden::Style::kMarkdown),
            expected);
}

// A run capped on rung 1 still reports at the requested order, without the
// order-1 -> order-k split (rung 1 never finished).
TEST(ReportGolden, CappedOrder3FixpointNamesTheRequestedOrder) {
  const std::string expected =
      "order-3 fix-point trajectory: demo\n"
      "| iteration | order | faults | sets | sites | patched | code bytes |\n"
      "|-----------|-------|--------|------|-------|---------|------------|\n"
      "| 0         | 1     | 1      | -    | -     | 1       | 155        |\n"
      "  fix-point: NO (cap hit), order-3 clean: NO\n"
      "  overhead (Table-V style): 68.4%\n";
  EXPECT_EQ(harden::fixpoint_section("demo", capped_order3_result()), expected);
  EXPECT_FALSE(capped_order3_result().verdict());
}

// A ladder that ends with the order-k sweep still dirty (the residual-risk
// fix-point) spent its extra bytes without closing the gap.
patch::PipelineResult open_order2_result() {
  patch::PipelineResult result = fixed_pipeline_result();
  result.final_campaign.levels.front().successful = 1;
  return result;
}

TEST(ReportGolden, OpenOrder2FixpointSaysTheGapStaysOpen) {
  const std::string expected =
      "order-2 fix-point trajectory: demo\n"
      "| iteration | order | faults | sets  | sites | patched | code bytes |\n"
      "|-----------|-------|--------|-------|-------|---------|------------|\n"
      "| 0         | 1     | 4      | -     | -     | 3       | 100        |\n"
      "| 1         | 1     | 0      | -     | -     | 0       | 148        |\n"
      "| 2         | 2     | 0      | 2/500 | 3     | 3       | 148        |\n"
      "| 3         | 2     | 0      | 0/520 | 0     | 0       | 180        |\n"
      "  fix-point: yes, order-2 clean: NO\n"
      "  overhead (Table-V style): order-1 48.0% -> order-2 80.0% "
      "(+32.0 points spent, the order-2 gap stays open)\n";
  EXPECT_EQ(harden::fixpoint_section("demo", open_order2_result()), expected);
  // The JSON keeps the same figures under the same names.
  const std::string json = open_order2_result().to_json();
  EXPECT_NE(json.find("\"orderk_fixpoint\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"order2_overhead_delta_percent\": 32.0"), std::string::npos) << json;
}

TEST(ReportGolden, OpenOrder2FixpointSaysTheGapStaysOpenMarkdown) {
  const std::string markdown =
      harden::fixpoint_section("demo", open_order2_result(), harden::Style::kMarkdown);
  EXPECT_NE(markdown.find("\n\n- fix-point: yes, order-2 clean: NO\n"
                          "- overhead (Table-V style): order-1 48.0% -> order-2 80.0% "
                          "(+32.0 points spent, the order-2 gap stays open)\n"),
            std::string::npos)
      << markdown;
}

TEST(ReportGolden, Order1FixpointSectionMarkdownShowsThePaperTable) {
  patch::PipelineResult result = capped_order3_result();
  result.final_campaign = {};
  result.final_campaign.order = 1;
  result.fixpoint = true;
  const std::string expected =
      "### fix-point trajectory: demo\n"
      "\n"
      "| iteration | faults | points | patched | unpatchable | code bytes |\n"
      "| --- | --- | --- | --- | --- | --- |\n"
      "| 0 | 1 | 1 | 1 | 0 | 155 |\n"
      "\n"
      "- fix-point: yes\n"
      "- code size: 155 -> 261 bytes (overhead 68.4%)\n";
  EXPECT_EQ(harden::fixpoint_section("demo", result, harden::Style::kMarkdown), expected);
}

TEST(ReportGolden, Order2CampaignSection) {
  const std::string expected =
      "residual 2-tuple campaign: demo\n"
      "  order-1 faults: 161 (0 successful)\n"
      "  order-2 tuples: 1252 within window 8 (2 successful, 2 invisible to "
      "order 1)\n"
      "  levels:         order 2: 1252 classified (2 successful)\n"
      "  pruning:        1100 tuples reused from lower-order profiles (87.9%), 152 "
      "simulated\n"
      "  patch sites:    0x401010, 0x401020\n"
      "| tuple outcome    | count |\n"
      "|------------------|-------|\n"
      "| no-effect        | 1000  |\n"
      "| successful-fault | 2     |\n"
      "| detected         | 250   |\n"
      "| fault addresses      | successful tuples |\n"
      "|----------------------|-------------------|\n"
      "| 0x401010 -> 0x401018 | 2                 |\n";
  EXPECT_EQ(harden::campaign_section("demo", fixed_pair_result()), expected);
}

TEST(ReportGolden, Order2CampaignSectionMarkdown) {
  const std::string expected =
      "### residual 2-tuple campaign: demo\n"
      "\n"
      "- order-1 faults: 161 (0 successful)\n"
      "- order-2 tuples: 1252 within window 8 (2 successful, 2 invisible to "
      "order 1)\n"
      "- levels:         order 2: 1252 classified (2 successful)\n"
      "- pruning:        1100 tuples reused from lower-order profiles (87.9%), 152 "
      "simulated\n"
      "- patch sites:    0x401010, 0x401020\n"
      "\n"
      "| tuple outcome | count |\n"
      "| --- | --- |\n"
      "| no-effect | 1000 |\n"
      "| successful-fault | 2 |\n"
      "| detected | 250 |\n"
      "\n"
      "| fault addresses | successful tuples |\n"
      "| --- | --- |\n"
      "| 0x401010 -> 0x401018 | 2 |\n";
  EXPECT_EQ(harden::campaign_section("demo", fixed_pair_result(), harden::Style::kMarkdown),
            expected);
}

/// Both tuples of fixed_pair_result() contain the skip at step 10, here an
/// order-1 vulnerability too, so no tuple names a patch site of its own.
sim::TupleCampaignResult pairs_without_patch_sites() {
  sim::TupleCampaignResult pairs = fixed_pair_result();
  pairs.order1.outcome_counts[sim::Outcome::kNoEffect] = 149;
  pairs.order1.outcome_counts[sim::Outcome::kSuccess] = 1;
  pairs.order1.vulnerabilities.push_back(
      sim::Vulnerability{pairs.vulnerabilities.front().faults.front(), 0x401010});
  return pairs;
}

TEST(ReportGolden, Order2CampaignWithoutPatchSitesSaysWhy) {
  const std::string expected =
      "residual 2-tuple campaign: demo\n"
      "  order-1 faults: 161 (1 successful)\n"
      "  order-2 tuples: 1252 within window 8 (2 successful, 0 invisible to "
      "order 1)\n"
      "  levels:         order 2: 1252 classified (2 successful)\n"
      "  pruning:        1100 tuples reused from lower-order profiles (87.9%), 152 "
      "simulated\n"
      "  patch sites:    none (every successful tuple contains an order-1 "
      "vulnerability)\n"
      "| tuple outcome    | count |\n"
      "|------------------|-------|\n"
      "| no-effect        | 1000  |\n"
      "| successful-fault | 2     |\n"
      "| detected         | 250   |\n"
      "| fault addresses      | successful tuples |\n"
      "|----------------------|-------------------|\n"
      "| 0x401010 -> 0x401018 | 2                 |\n";
  EXPECT_EQ(harden::campaign_section("demo", pairs_without_patch_sites()), expected);
}

TEST(ReportGolden, Order2CampaignWithoutPatchSitesSaysWhyMarkdown) {
  const std::string expected =
      "### residual 2-tuple campaign: demo\n"
      "\n"
      "- order-1 faults: 161 (1 successful)\n"
      "- order-2 tuples: 1252 within window 8 (2 successful, 0 invisible to "
      "order 1)\n"
      "- levels:         order 2: 1252 classified (2 successful)\n"
      "- pruning:        1100 tuples reused from lower-order profiles (87.9%), 152 "
      "simulated\n"
      "- patch sites:    none (every successful tuple contains an order-1 "
      "vulnerability)\n"
      "\n"
      "| tuple outcome | count |\n"
      "| --- | --- |\n"
      "| no-effect | 1000 |\n"
      "| successful-fault | 2 |\n"
      "| detected | 250 |\n"
      "\n"
      "| fault addresses | successful tuples |\n"
      "| --- | --- |\n"
      "| 0x401010 -> 0x401018 | 2 |\n";
  EXPECT_EQ(harden::campaign_section("demo", pairs_without_patch_sites(),
                                     harden::Style::kMarkdown),
            expected);
  EXPECT_NE(pairs_without_patch_sites().to_json().find("\"patch_sites\": []"),
            std::string::npos);
}

TEST(ReportGolden, CleanCampaignRendersNoVulnerabilityTable) {
  sim::TupleCampaignResult clean = fixed_pair_result();
  clean.vulnerabilities.clear();
  clean.outcome_counts.erase(sim::Outcome::kSuccess);
  const std::string section = harden::campaign_section("demo", clean);
  EXPECT_NE(section.find("no residual 2-tuple vulnerabilities."), std::string::npos);
  EXPECT_EQ(section.find("patch sites"), std::string::npos);
  EXPECT_EQ(section.find("| fault addresses"), std::string::npos);
  // In markdown the closing note is its own list, after the outcome table.
  const std::string markdown =
      harden::campaign_section("demo", clean, harden::Style::kMarkdown);
  EXPECT_NE(markdown.find("| detected | 250 |\n\n- no residual 2-tuple vulnerabilities.\n"),
            std::string::npos)
      << markdown;
}

TEST(ReportGolden, Order2CampaignJson) {
  const std::string expected =
      "{\n"
      "  \"order\": 2,\n"
      "  \"trace_length\": 161,\n"
      "  \"pair_window\": 8,\n"
      "  \"order1\": {\n"
      "    \"trace_length\": 161,\n"
      "    \"total_faults\": 161,\n"
      "    \"checkpoint_interval\": 0,\n"
      "    \"snapshot_count\": 0,\n"
      "    \"pruned_faults\": 0,\n"
      "    \"outcomes\": {\"no-effect\": 150, \"detected\": 11},\n"
      "    \"vulnerable_points\": []\n"
      "  },\n"
      "  \"levels\": [{\"order\": 2, \"enumerated\": 1252, \"classified\": 1252, "
      "\"successful\": 2, \"reused_suffix\": 500, \"reused_prefix\": 600, "
      "\"simulated\": 152, \"converged\": 0, \"sampled\": false}],\n"
      "  \"total_tuples\": 1252,\n"
      "  \"enumerated_tuples\": 1252,\n"
      "  \"sampled\": false,\n"
      "  \"max_tuples\": 0,\n"
      "  \"sample_seed\": 0,\n"
      "  \"reused_suffix\": 500,\n"
      "  \"reused_prefix\": 600,\n"
      "  \"simulated_tuples\": 152,\n"
      "  \"converged_tuples\": 0,\n"
      "  \"strictly_higher_order\": 2,\n"
      "  \"outcomes\": {\"no-effect\": 1000, \"successful-fault\": 2, "
      "\"detected\": 250},\n"
      "  \"vulnerable_tuples\": [{\"addresses\": [\"0x401010\", \"0x401018\"], "
      "\"hits\": 2}],\n"
      "  \"patch_sites\": [\"0x401010\", \"0x401020\"]\n"
      "}\n";
  EXPECT_EQ(fixed_pair_result().to_json(), expected);
}

// ---- field inventory on a live synthetic-guest campaign ---------------------

void expect_fields(const std::string& json, const std::vector<std::string>& fields) {
  for (const std::string& field : fields) {
    EXPECT_NE(json.find("\"" + field + "\":"), std::string::npos)
        << "JSON dropped field \"" << field << "\":\n"
        << json;
  }
}

// The one campaign schema carries the same keys at every order.
const std::vector<std::string> kCampaignFields = {
    "order",          "trace_length",     "pair_window",      "order1",
    "total_faults",   "checkpoint_interval", "snapshot_count",
    "pruned_faults",  "vulnerable_points", "levels",          "total_tuples",
    "enumerated_tuples", "sampled",       "max_tuples",       "sample_seed",
    "reused_suffix",  "reused_prefix",    "simulated_tuples", "converged_tuples",
    "strictly_higher_order", "outcomes",  "vulnerable_tuples", "patch_sites"};

TEST(ReportSurfaces, CampaignJsonFieldInventoryOnSynthGuest) {
  const guests::Guest guest = guests::synth::generate(36);
  const elf::Image image = guests::build_image(guest);
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  const fault::TupleCampaignResult result =
      fault::run_campaign(image, guest.good_input, guest.bad_input, config);

  const std::string json = result.to_json();
  expect_fields(json, kCampaignFields);
  EXPECT_NE(json.find("\"order\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"levels\": [],"), std::string::npos);
  // Values must round-trip: counters rendered verbatim.
  EXPECT_NE(json.find("\"total_faults\": " + std::to_string(result.order1.total_faults)),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_length\": " + std::to_string(result.trace_length)),
            std::string::npos);
}

TEST(ReportSurfaces, PairCampaignJsonFieldInventoryOnSynthGuest) {
  const guests::Guest guest = guests::synth::generate(36);
  const elf::Image image = guests::build_image(guest);
  fault::CampaignConfig config;
  config.models.bit_flip = false;
  config.models.order = 2;
  config.models.pair_window = 4;
  const fault::TupleCampaignResult result =
      fault::run_campaign(image, guest.good_input, guest.bad_input, config);

  const std::string json = result.to_json();
  expect_fields(json, kCampaignFields);
  EXPECT_NE(json.find("\"total_tuples\": " + std::to_string(result.total_tuples)),
            std::string::npos);

  // The rendered text section agrees with the JSON on the headline number.
  const std::string section = harden::campaign_section(guest.name, result);
  EXPECT_NE(section.find(std::to_string(result.total_tuples) + " within window"),
            std::string::npos);
}

}  // namespace
}  // namespace r2r
