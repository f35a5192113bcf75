// r2r::svc — job model of the r2rd campaign service, and the one runner of
// campaign, fixpoint and harden jobs.
//
// A JobSpec is a fully-resolved unit of work: the guest (assembly, inputs,
// oracle — resolved once by the daemon, so the bytes that are hashed are
// the bytes that are executed), the campaign/pipeline configuration, and
// the requested report format. Its cache key is the SHA-256 of a canonical
// serialization of every behaviour-relevant field (docs/r2rd.md pins the
// exact field list); knobs that provably cannot change the answer —
// `threads` (reports are bit-identical for every thread count, the
// engine's core invariant) and queue `priority` — are deliberately
// excluded, so a resubmission at a different parallelism or urgency still
// hits the cache.
//
// execute_job() runs a spec in the calling process and renders its report.
// It is the one implementation of campaign, fixpoint and harden: `r2r
// campaign|fixpoint|harden` call it in-process, `r2r batch` rows read their
// cells from the same runs before rendering (run_campaign_job,
// run_fixpoint_job, run_harden_job), and the daemon's workers call it
// through run_job(). One runner is what makes daemon fresh = daemon cached
// = one-shot CLI hold by construction.
#pragma once

#include <cstdint>
#include <string>

#include "elf/image.h"
#include "fault/campaign.h"
#include "guests/guests.h"
#include "harden/hybrid.h"
#include "patch/pipeline.h"

namespace r2r::svc {
class Message;

/// Process exit code for *infrastructure* failures — the daemon was
/// unreachable, the queue refused the job, a worker crashed, the pipeline
/// itself threw — as opposed to 1, "the check the job ran came back
/// negative". Shared with `r2r batch`, which draws the same distinction
/// for its rows. (0 = success, 1 = check failed, 2 = usage error.)
inline constexpr int kInfraExitCode = 3;

/// What a job runs. kSleep is a diagnostic no-op (occupies a worker for
/// `sleep_ms`, never cached) used by the lifecycle tests and for ops smoke
/// checks of queueing/backpressure.
enum class JobKind { kCampaign, kFixpoint, kHarden, kSleep };

[[nodiscard]] std::string_view to_string(JobKind kind) noexcept;
/// Parses "campaign" / "fixpoint" / "harden" / "sleep"; throws
/// Error{kInvalidArgument} on anything else.
[[nodiscard]] JobKind job_kind_from(std::string_view name);

struct JobSpec {
  JobKind kind = JobKind::kCampaign;
  guests::Guest guest;              ///< fully resolved; arch names the target
  fault::CampaignConfig campaign;   ///< models, threads and pair reuse
  unsigned max_iterations = 12;     ///< fixpoint / harden-with-patterns cap
  bool patterns = false;            ///< harden: Faulter+Patcher instead of Hybrid
  std::string format = "text";      ///< text | json | markdown
  std::uint64_t sleep_ms = 0;       ///< kSleep only

  /// The content-addressed cache key: 64 hex chars of SHA-256 over the
  /// canonical serialization. Deterministic across processes and runs.
  [[nodiscard]] std::string cache_key() const;
  /// kSleep jobs are transient diagnostics and bypass the cache.
  [[nodiscard]] bool cacheable() const noexcept { return kind != JobKind::kSleep; }

  /// Wire round-trip (daemon -> worker). to_message is total; from_message
  /// throws Error{kParse} on missing/malformed fields.
  [[nodiscard]] Message to_message() const;
  [[nodiscard]] static JobSpec from_message(const Message& message);
};

struct JobResult {
  int exit_code = 0;      ///< the subcommand exit-code contract (0/1)
  bool infra = false;     ///< true: the pipeline failed, not the guest
  std::string report;     ///< rendered report bytes (cached verbatim)
  /// The hardened ELF image bytes: every fixpoint, and a harden job whose
  /// behaviour check passed (a binary that fails it is never handed out).
  std::string elf;
  std::string error;      ///< diagnostic when infra (or a usage error)

  [[nodiscard]] Message to_message() const;
  [[nodiscard]] static JobResult from_message(const Message& message);
};

/// What a campaign and a fixpoint job compute before execute_job renders
/// them; `r2r batch` builds its campaign and fixpoint rows from these.
[[nodiscard]] fault::TupleCampaignResult run_campaign_job(const JobSpec& spec);
[[nodiscard]] patch::PipelineResult run_fixpoint_job(const JobSpec& spec);

/// One harden job before it becomes a JobResult: the hardened image and
/// the report's approach, code-size and behaviour lines.
struct HardenRun {
  elf::Image hardened;
  std::uint64_t original_code_size = 0;
  std::string report;
  /// The guest has inputs, so the hardened binary was run against its
  /// oracle; false means "behaviour: unchecked".
  bool checked = false;
  /// The hardened binary still matches the guest's oracle on both inputs,
  /// or the guest has no inputs to check.
  bool intact = false;

  [[nodiscard]] double overhead_percent() const noexcept {
    return elf::overhead_percent(original_code_size, hardened.code_size());
  }
};

/// Hardens spec.guest: the Faulter+Patcher patterns when spec.patterns,
/// otherwise the Hybrid chain under `hybrid`. `r2r batch --cmd harden`
/// builds its rows from this, so a row is ok exactly when `r2r harden`
/// exits 0.
[[nodiscard]] HardenRun run_harden_job(const JobSpec& spec,
                                       const harden::HybridConfig& hybrid = {});

/// Runs `spec` in-process and renders its report; throws on a pipeline
/// failure. `hybrid` is the countermeasure and cleanup choice of a Hybrid
/// harden job: `r2r harden --countermeasure/--no-cleanup` set it, every
/// other caller (r2rd included) runs the default.
[[nodiscard]] JobResult execute_job(const JobSpec& spec,
                                    const harden::HybridConfig& hybrid = {});

/// execute_job() for a daemon worker. Never throws: a pipeline failure
/// comes back as an infra result.
[[nodiscard]] JobResult run_job(const JobSpec& spec);

}  // namespace r2r::svc
