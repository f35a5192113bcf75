#include "svc/job.h"

#include <chrono>
#include <thread>

#include "elf/image.h"
#include "emu/machine.h"
#include "fault/campaign.h"
#include "harden/hybrid.h"
#include "harden/report.h"
#include "isa/target.h"
#include "patch/pipeline.h"
#include "support/error.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "svc/wire.h"

namespace r2r::svc {

using support::ErrorKind;
using support::fail;

std::string_view to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kCampaign: return "campaign";
    case JobKind::kFixpoint: return "fixpoint";
    case JobKind::kHarden: return "harden";
    case JobKind::kSleep: return "sleep";
  }
  return "?";
}

JobKind job_kind_from(std::string_view name) {
  if (name == "campaign") return JobKind::kCampaign;
  if (name == "fixpoint") return JobKind::kFixpoint;
  if (name == "harden") return JobKind::kHarden;
  if (name == "sleep") return JobKind::kSleep;
  fail(ErrorKind::kInvalidArgument,
       "unknown job kind '" + std::string(name) +
           "' (expected campaign, fixpoint, harden, or sleep)");
}

namespace {

std::string regs_to_string(const std::vector<unsigned>& regs) {
  std::string out;
  for (const unsigned reg : regs) {
    if (!out.empty()) out += ",";
    out += std::to_string(reg);
  }
  return out;
}

std::vector<unsigned> regs_from_string(std::string_view text) {
  std::vector<unsigned> regs;
  if (support::trim(text).empty()) return regs;
  for (const std::string_view piece : support::split(text, ',')) {
    const auto parsed = support::parse_integer(piece);
    if (!parsed.has_value() || *parsed < 0) {
      fail(ErrorKind::kParse, "malformed register list '" + std::string(text) + "'");
    }
    regs.push_back(static_cast<unsigned>(*parsed));
  }
  return regs;
}

std::int64_t get_i64_or(const Message& message, std::string_view key,
                        std::int64_t fallback) {
  const auto value = message.get(key);
  if (!value.has_value()) return fallback;
  const auto parsed = support::parse_integer(*value);
  if (!parsed.has_value()) {
    fail(ErrorKind::kParse, "r2rd message field '" + std::string(key) +
                                "' is not an integer: '" + std::string(*value) + "'");
  }
  return *parsed;
}

/// The fields both the wire form and the cache key serialize, in one fixed
/// order. The cache key additionally pins a schema version and *omits* the
/// execution-only knobs (threads; sleep_ms never reaches the key because
/// sleep jobs are not cacheable) — see docs/r2rd.md for the contract.
void append_identity_fields(const JobSpec& spec, Message& message) {
  message.set("cmd", std::string(to_string(spec.kind)));
  message.set("target", std::string(isa::target(spec.guest.arch).name()));
  message.set("guest_name", spec.guest.name);
  message.set("assembly", spec.guest.assembly);
  message.set("good_input", spec.guest.good_input);
  message.set("bad_input", spec.guest.bad_input);
  message.set("good_output", spec.guest.good_output);
  message.set("bad_output", spec.guest.bad_output);
  message.set("good_exit", std::to_string(spec.guest.good_exit));
  message.set("bad_exit", std::to_string(spec.guest.bad_exit));
  const sim::FaultModels& models = spec.campaign.models;
  message.set("model_skip", models.skip ? "1" : "0");
  message.set("model_bit_flip", models.bit_flip ? "1" : "0");
  message.set("model_register_flip", models.register_flip ? "1" : "0");
  message.set("model_flag_flip", models.flag_flip ? "1" : "0");
  message.set("register_flip_regs", regs_to_string(models.register_flip_regs));
  message.set_u64("register_flip_bit_stride", models.register_flip_bit_stride);
  message.set_u64("order", models.order);
  message.set_u64("pair_window", models.pair_window);
  message.set_u64("model_max_tuples", models.max_tuples);
  message.set_u64("model_sample_seed", models.sample_seed);
  message.set("detected_exit", std::to_string(spec.campaign.detected_exit_code));
  message.set_u64("fuel_multiplier", spec.campaign.fuel_multiplier);
  message.set_u64("fuel_slack", spec.campaign.fuel_slack);
  message.set("pair_outcome_reuse", spec.campaign.pair_outcome_reuse ? "1" : "0");
  message.set_u64("max_iterations", spec.max_iterations);
  message.set("patterns", spec.patterns ? "1" : "0");
  message.set("format", spec.format);
}

}  // namespace

std::string JobSpec::cache_key() const {
  Message canonical;
  // Schema 2: order-k fields (model_max_tuples, model_sample_seed) joined
  // the identity set — an order-3 budgeted sweep must never resolve to a
  // cached order-3 exhaustive (or differently-seeded) answer. Schema 3:
  // order 2 runs through the order-k sweep, so order-2 report bytes (and
  // the campaign JSON at every order) changed shape. Schema 4: campaign
  // reports no longer carry a thread count, and a fix-point that hits the
  // iteration cap on rung 1 answers at the requested order.
  canonical.set("r2rd_cache_key_schema", "4");
  append_identity_fields(*this, canonical);
  return support::sha256_hex(encode_message(canonical));
}

Message JobSpec::to_message() const {
  Message message;
  append_identity_fields(*this, message);
  message.set_u64("threads", campaign.threads);
  message.set_u64("sleep_ms", sleep_ms);
  return message;
}

JobSpec JobSpec::from_message(const Message& message) {
  JobSpec spec;
  spec.kind = job_kind_from(message.get_or("cmd", "campaign"));
  const std::string target_name = message.get_or("target", "x64");
  const isa::Target* target = isa::find_target(target_name);
  if (target == nullptr) {
    fail(ErrorKind::kParse, "r2rd job names unknown target '" + target_name + "'");
  }
  spec.guest.arch = target->arch();
  spec.guest.name = message.get_or("guest_name", "");
  spec.guest.assembly = message.get_or("assembly", "");
  spec.guest.good_input = message.get_or("good_input", "");
  spec.guest.bad_input = message.get_or("bad_input", "");
  spec.guest.good_output = message.get_or("good_output", "");
  spec.guest.bad_output = message.get_or("bad_output", "");
  spec.guest.good_exit = static_cast<int>(get_i64_or(message, "good_exit", 0));
  spec.guest.bad_exit = static_cast<int>(get_i64_or(message, "bad_exit", 1));
  sim::FaultModels& models = spec.campaign.models;
  models.skip = message.get_u64_or("model_skip", 1) != 0;
  models.bit_flip = message.get_u64_or("model_bit_flip", 1) != 0;
  models.register_flip = message.get_u64_or("model_register_flip", 0) != 0;
  models.flag_flip = message.get_u64_or("model_flag_flip", 0) != 0;
  models.register_flip_regs =
      regs_from_string(message.get_or("register_flip_regs", ""));
  models.register_flip_bit_stride = static_cast<unsigned>(
      message.get_u64_or("register_flip_bit_stride", models.register_flip_bit_stride));
  models.order = static_cast<unsigned>(message.get_u64_or("order", 1));
  models.pair_window = message.get_u64_or("pair_window", models.pair_window);
  models.max_tuples = message.get_u64_or("model_max_tuples", models.max_tuples);
  models.sample_seed = message.get_u64_or("model_sample_seed", models.sample_seed);
  spec.campaign.detected_exit_code = static_cast<int>(
      get_i64_or(message, "detected_exit", spec.campaign.detected_exit_code));
  spec.campaign.fuel_multiplier =
      message.get_u64_or("fuel_multiplier", spec.campaign.fuel_multiplier);
  spec.campaign.fuel_slack = message.get_u64_or("fuel_slack", spec.campaign.fuel_slack);
  spec.campaign.pair_outcome_reuse = message.get_u64_or("pair_outcome_reuse", 1) != 0;
  spec.campaign.threads = static_cast<unsigned>(message.get_u64_or("threads", 1));
  spec.max_iterations = static_cast<unsigned>(message.get_u64_or("max_iterations", 12));
  spec.patterns = message.get_u64_or("patterns", 0) != 0;
  spec.format = message.get_or("format", "text");
  spec.sleep_ms = message.get_u64_or("sleep_ms", 0);
  return spec;
}

Message JobResult::to_message() const {
  Message message;
  message.set("exit", std::to_string(exit_code));
  message.set("infra", infra ? "1" : "0");
  message.set("report", report);
  message.set("elf", elf);
  message.set("error", error);
  return message;
}

JobResult JobResult::from_message(const Message& message) {
  JobResult result;
  result.exit_code = static_cast<int>(get_i64_or(message, "exit", 0));
  result.infra = message.get_u64_or("infra", 0) != 0;
  result.report = message.get_or("report", "");
  result.elf = message.get_or("elf", "");
  result.error = message.get_or("error", "");
  return result;
}

namespace {

std::string elf_bytes(const elf::Image& image) {
  const std::vector<std::uint8_t> bytes = elf::write_elf(image);
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

JobResult run_campaign_job(const JobSpec& spec) {
  const elf::Image image = guests::build_image(spec.guest);
  // The same campaign call and renderers as `r2r campaign`, so a daemon
  // report is byte-identical to the one-shot subcommand's.
  const fault::TupleCampaignResult campaign = fault::run_campaign(
      image, spec.guest.good_input, spec.guest.bad_input, spec.campaign);
  JobResult result;
  if (spec.format == "json") {
    result.report = campaign.to_json();
  } else if (spec.format == "markdown") {
    result.report = harden::campaign_markdown_section(spec.guest.name, campaign);
  } else {
    result.report = harden::campaign_section(spec.guest.name, campaign);
  }
  return result;
}

JobResult run_fixpoint_job(const JobSpec& spec) {
  const elf::Image image = guests::build_image(spec.guest);
  patch::PipelineConfig config;
  config.campaign = spec.campaign;
  config.max_iterations = spec.max_iterations;
  const patch::PipelineResult result =
      patch::faulter_patcher(image, spec.guest.good_input, spec.guest.bad_input, config);

  JobResult job;
  if (spec.format == "json") {
    job.report = result.to_json();
  } else if (spec.format == "markdown") {
    job.report = harden::fixpoint_markdown_section(spec.guest.name, result);
  } else {
    job.report = harden::fixpoint_section(spec.guest.name, result);
  }
  job.elf = elf_bytes(result.hardened);
  job.exit_code = result.verdict() ? 0 : 1;
  return job;
}

JobResult run_harden_job(const JobSpec& spec) {
  const elf::Image input = guests::build_image(spec.guest);
  JobResult job;
  elf::Image hardened;
  std::string text;
  if (spec.patterns) {
    patch::PipelineConfig config;
    config.campaign = spec.campaign;
    config.max_iterations = spec.max_iterations;
    const patch::PipelineResult result = patch::faulter_patcher(
        input, spec.guest.good_input, spec.guest.bad_input, config);
    text += harden::patterns_summary_line(result);
    hardened = result.hardened;
  } else {
    // Daemon harden jobs run the default Hybrid configuration
    // (branch-hardening with cleanup); the other countermeasures stay
    // CLI-only until a job field needs them, and the cache key would have
    // to grow with any such field.
    const harden::HybridConfig config;
    const harden::HybridResult result = harden::hybrid_harden(input, config);
    text += "hybrid (branch-hardening): IR " + std::to_string(result.ir_before.total) +
            " -> " + std::to_string(result.ir_after.total) + " ops in " +
            std::to_string(result.ir_after.blocks) + " block(s)\n";
    hardened = result.hardened;
  }
  const double overhead =
      input.code_size() == 0
          ? 0.0
          : 100.0 *
                (static_cast<double>(hardened.code_size()) -
                 static_cast<double>(input.code_size())) /
                static_cast<double>(input.code_size());
  text += "code size: " + std::to_string(input.code_size()) + " -> " +
          std::to_string(hardened.code_size()) + " bytes (overhead " +
          support::format_fixed(overhead, 1) + "%)\n";

  if (spec.guest.good_input.empty() && spec.guest.bad_input.empty() &&
      spec.guest.good_output.empty() && spec.guest.bad_output.empty()) {
    text += "behaviour: unchecked (no inputs for this guest)\n";
    job.report = text;
    job.elf = elf_bytes(hardened);
    return job;
  }
  const emu::RunResult good = emu::run_image(hardened, spec.guest.good_input);
  const emu::RunResult bad = emu::run_image(hardened, spec.guest.bad_input);
  const bool intact = good.exit_code == spec.guest.good_exit &&
                      good.output == spec.guest.good_output &&
                      bad.exit_code == spec.guest.bad_exit &&
                      bad.output == spec.guest.bad_output;
  text += "behaviour: good exit=" + std::to_string(good.exit_code) +
          ", bad exit=" + std::to_string(bad.exit_code) + " (expected " +
          std::to_string(spec.guest.good_exit) + "/" +
          std::to_string(spec.guest.bad_exit) + ") — " +
          (intact ? "intact" : "CHANGED") + "\n";
  job.report = text;
  job.elf = elf_bytes(hardened);
  job.exit_code = intact ? 0 : 1;
  return job;
}

}  // namespace

JobResult run_job(const JobSpec& spec) {
  try {
    switch (spec.kind) {
      case JobKind::kCampaign: return run_campaign_job(spec);
      case JobKind::kFixpoint: return run_fixpoint_job(spec);
      case JobKind::kHarden: return run_harden_job(spec);
      case JobKind::kSleep: {
        std::this_thread::sleep_for(std::chrono::milliseconds(spec.sleep_ms));
        JobResult result;
        result.report = "slept " + std::to_string(spec.sleep_ms) + " ms\n";
        return result;
      }
    }
    JobResult result;
    result.infra = true;
    result.exit_code = kInfraExitCode;
    result.error = "unreachable job kind";
    return result;
  } catch (const std::exception& error) {
    JobResult result;
    result.infra = true;
    result.exit_code = kInfraExitCode;
    result.error = error.what();
    return result;
  }
}

}  // namespace r2r::svc
