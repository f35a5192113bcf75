#include "svc/job.h"

#include <chrono>
#include <limits>
#include <thread>
#include <utility>

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

/// The inverse of regs_to_string; an empty string is an empty list.
/// Throws Error{kParse} on a piece that is not a register number below
/// isa::kRegCount.
std::vector<unsigned> regs_from_string(std::string_view text) {
  std::vector<unsigned> regs;
  if (support::trim(text).empty()) return regs;
  for (const std::string_view piece : support::split(text, ',')) {
    const auto parsed = support::parse_integer(piece);
    if (!parsed.has_value() || *parsed < 0 || *parsed >= isa::kRegCount) {
      fail(ErrorKind::kParse, "malformed register list '" + std::string(text) +
                                  "' (register numbers are 0 to " +
                                  std::to_string(isa::kRegCount - 1) + ")");
    }
    regs.push_back(static_cast<unsigned>(*parsed));
  }
  return regs;
}

/// Parses an exit-code field; throws Error{kParse} when it is present but
/// not an integer an `int` holds.
int get_int_or(const Message& message, std::string_view key, int fallback) {
  const auto value = message.get(key);
  if (!value.has_value()) return fallback;
  const auto parsed = support::parse_integer(*value);
  if (!parsed.has_value() || !std::in_range<int>(*parsed)) {
    fail(ErrorKind::kParse, "r2rd message field '" + std::string(key) +
                                "' is not an int: '" + std::string(*value) + "'");
  }
  return static_cast<int>(*parsed);
}

/// The largest value of the `unsigned` fields (order, threads, ...).
constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();

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
  for (const sim::FaultModelSwitch& model : sim::fault_model_switches()) {
    message.set("model_" + std::string(model.name), models.*model.enabled ? "1" : "0");
  }
  message.set("register_flip_regs", regs_to_string(models.register_flip_regs));
  message.set_u64("register_flip_bit_stride", models.register_flip_bit_stride);
  message.set_u64("order", models.order);
  message.set_u64("pair_window", models.pair_window);
  message.set_u64("model_max_tuples", models.max_tuples);
  message.set_u64("model_sample_seed", models.sample_seed);
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
  // iteration cap on rung 1 answers at the requested order. Schema 5: the
  // engine knobs no client could set (detected_exit, fuel_multiplier,
  // fuel_slack) left the identity, a fix-point whose ladder stops below the
  // requested order re-sweeps at that order, and a harden job whose
  // behaviour check fails returns no ELF. Schema 6: text and markdown
  // reports render one section each, so markdown reports changed shape and
  // a fix-point report names the requested order (a ladder that stops on a
  // lower rung, or hits the cap on rung 1, used to name the rung it swept).
  // Schema 7: an open order-k fix-point labels its overhead as spent, and
  // an order-k campaign without tuple patch sites says so in words.
  // Schema 8: harden ELFs changed bytes: the Hybrid state section's zero
  // tail is bss, and a Table I pattern that pushes with dead flags opens
  // the x64 red zone first.
  canonical.set("r2rd_cache_key_schema", "8");
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
  spec.guest.good_exit = get_int_or(message, "good_exit", 0);
  spec.guest.bad_exit = get_int_or(message, "bad_exit", 1);
  // An absent field keeps its sim::FaultModels default.
  sim::FaultModels& models = spec.campaign.models;
  for (const sim::FaultModelSwitch& model : sim::fault_model_switches()) {
    bool& enabled = models.*model.enabled;
    enabled = message.get_u64_or("model_" + std::string(model.name), enabled ? 1 : 0) != 0;
  }
  if (const auto regs = message.get("register_flip_regs")) {
    models.register_flip_regs = regs_from_string(*regs);
  }
  models.register_flip_bit_stride = static_cast<unsigned>(message.get_u64_or(
      "register_flip_bit_stride", models.register_flip_bit_stride, kMaxUnsigned));
  models.order = static_cast<unsigned>(message.get_u64_or("order", 1, kMaxUnsigned));
  models.pair_window = message.get_u64_or("pair_window", models.pair_window);
  models.max_tuples = message.get_u64_or("model_max_tuples", models.max_tuples);
  models.sample_seed = message.get_u64_or("model_sample_seed", models.sample_seed);
  spec.campaign.pair_outcome_reuse = message.get_u64_or("pair_outcome_reuse", 1) != 0;
  spec.campaign.threads = static_cast<unsigned>(message.get_u64_or("threads", 1, kMaxUnsigned));
  spec.max_iterations =
      static_cast<unsigned>(message.get_u64_or("max_iterations", 12, kMaxUnsigned));
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
  result.exit_code = get_int_or(message, "exit", 0);
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

patch::PipelineResult run_pipeline(const JobSpec& spec, const elf::Image& image) {
  patch::PipelineConfig config;
  config.campaign = spec.campaign;
  config.max_iterations = spec.max_iterations;
  return patch::faulter_patcher(image, spec.guest.good_input, spec.guest.bad_input, config);
}

/// The report in spec.format: the result's own JSON document, or its
/// harden:: section in text or markdown style.
template <typename Result>
std::string render(const JobSpec& spec, const Result& result,
                   std::string (*section)(const std::string&, const Result&,
                                          harden::Style)) {
  if (spec.format == "json") return result.to_json();
  return section(spec.guest.name, result,
                 spec.format == "markdown" ? harden::Style::kMarkdown
                                           : harden::Style::kText);
}

}  // namespace

fault::TupleCampaignResult run_campaign_job(const JobSpec& spec) {
  return fault::run_campaign(guests::build_image(spec.guest), spec.guest.good_input,
                             spec.guest.bad_input, spec.campaign);
}

patch::PipelineResult run_fixpoint_job(const JobSpec& spec) {
  return run_pipeline(spec, guests::build_image(spec.guest));
}

HardenRun run_harden_job(const JobSpec& spec, const harden::HybridConfig& hybrid) {
  const elf::Image input = guests::build_image(spec.guest);
  const guests::Guest& guest = spec.guest;
  HardenRun run;
  run.original_code_size = input.code_size();
  if (spec.patterns) {
    patch::PipelineResult result = run_pipeline(spec, input);
    run.report = harden::patterns_summary_line(result);
    run.hardened = std::move(result.hardened);
  } else {
    harden::HybridResult result = harden::hybrid_harden(input, hybrid);
    run.report = "hybrid (" + std::string(harden::to_string(hybrid.countermeasure)) +
                 "): IR " + std::to_string(result.ir_before.total) + " -> " +
                 std::to_string(result.ir_after.total) + " ops in " +
                 std::to_string(result.ir_after.blocks) + " block(s)\n";
    run.hardened = std::move(result.hardened);
  }
  run.report += "code size: " + std::to_string(run.original_code_size) + " -> " +
                std::to_string(run.hardened.code_size()) + " bytes (overhead " +
                support::format_fixed(run.overhead_percent(), 1) + "%)\n";

  // The hardened binary must still accept the authorized input and refuse
  // the attacker input exactly as the guest's oracle says. A .s guest
  // without inputs has no oracle to check against.
  if (guest.good_input.empty() && guest.bad_input.empty() && guest.good_output.empty() &&
      guest.bad_output.empty()) {
    run.report += "behaviour: unchecked (no inputs for this guest)\n";
    run.intact = true;
    return run;
  }
  run.checked = true;
  const emu::RunResult good = emu::run_image(run.hardened, guest.good_input);
  const emu::RunResult bad = emu::run_image(run.hardened, guest.bad_input);
  run.intact = good.exit_code == guest.good_exit && good.output == guest.good_output &&
               bad.exit_code == guest.bad_exit && bad.output == guest.bad_output;
  run.report += "behaviour: good exit=" + std::to_string(good.exit_code) +
                ", bad exit=" + std::to_string(bad.exit_code) + " (expected " +
                std::to_string(guest.good_exit) + "/" + std::to_string(guest.bad_exit) +
                ") — " + (run.intact ? "intact" : "CHANGED") + "\n";
  return run;
}

JobResult execute_job(const JobSpec& spec, const harden::HybridConfig& hybrid) {
  switch (spec.kind) {
    case JobKind::kCampaign: {
      JobResult job;
      job.report = render(spec, run_campaign_job(spec), harden::campaign_section);
      return job;
    }
    case JobKind::kFixpoint: {
      const patch::PipelineResult result = run_fixpoint_job(spec);
      JobResult job;
      job.report = render(spec, result, harden::fixpoint_section);
      job.elf = elf_bytes(result.hardened);
      job.exit_code = result.verdict() ? 0 : 1;
      return job;
    }
    case JobKind::kHarden: {
      const HardenRun run = run_harden_job(spec, hybrid);
      JobResult job;
      job.report = run.report;
      if (run.intact) job.elf = elf_bytes(run.hardened);
      job.exit_code = run.intact ? 0 : 1;
      return job;
    }
    case JobKind::kSleep: {
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.sleep_ms));
      JobResult job;
      job.report = "slept " + std::to_string(spec.sleep_ms) + " ms\n";
      return job;
    }
  }
  fail(ErrorKind::kInvalidArgument, "unreachable job kind");
}

JobResult run_job(const JobSpec& spec) {
  try {
    return execute_job(spec);
  } catch (const std::exception& error) {
    JobResult result;
    result.infra = true;
    result.exit_code = kInfraExitCode;
    result.error = error.what();
    return result;
  }
}

}  // namespace r2r::svc
