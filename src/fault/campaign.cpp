#include "fault/campaign.h"

#include "support/error.h"

namespace r2r::fault {

TupleCampaignResult run_campaign(const elf::Image& image, const std::string& good_input,
                                 const std::string& bad_input,
                                 const CampaignConfig& config) {
  support::check(config.models.order >= 1 && config.models.order <= kMaxCampaignOrder,
                 support::ErrorKind::kExecution,
                 "campaign order must be 1 (single faults) or 2.." +
                     std::to_string(kMaxCampaignOrder) + " (fault k-tuples)");
  sim::EngineConfig engine_config;
  engine_config.threads = config.threads;
  engine_config.pair_outcome_reuse = config.pair_outcome_reuse;
  const sim::Engine engine(image, good_input, bad_input, engine_config);

  // The models go to the engine verbatim — CampaignConfig embeds the
  // engine's own struct precisely so there is no per-field copy to drift.
  if (config.models.order >= 2) return engine.run_tuples(config.models);
  TupleCampaignResult result;
  result.order = 1;
  result.order1 = engine.run(config.models);
  result.trace_length = result.order1.trace_length;
  return result;
}

}  // namespace r2r::fault
