// Tests for r2r::svc — the r2rd campaign service: wire framing, the
// bounded priority queue, the content-addressed result cache and its key,
// job reports byte-identical to the one-shot `r2r` subcommands, and full
// daemon lifecycles over a real Unix socket (cached-equals-fresh
// byte-identity, worker kill -9 isolation and respawn, graceful drain,
// backpressure refusal).
#include <csignal>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "guests/guests.h"
#include "isa/target.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "svc/cache.h"
#include "svc/client.h"
#include "svc/job.h"
#include "svc/queue.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace {

namespace fs = std::filesystem;
using namespace r2r;

// ---- wire -------------------------------------------------------------------

TEST(SvcWire, EncodeDecodeRoundTripsOrderAndBinaryValues) {
  svc::Message message;
  message.set("op", "submit");
  message.set("report", std::string("line\nwith\0nul", 13));
  message.set("empty", "");
  message.set("op", "second");  // duplicate key: order preserved, last wins
  // encode_message emits the full frame; decode_message takes the payload
  // after the outer length header (read_message strips it the same way).
  const std::string frame = svc::encode_message(message);
  const svc::Message decoded =
      svc::decode_message(std::string_view(frame).substr(frame.find('\n') + 1));
  ASSERT_EQ(decoded.fields().size(), 4u);
  EXPECT_EQ(decoded.fields()[0].first, "op");
  EXPECT_EQ(decoded.fields()[0].second, "submit");
  EXPECT_EQ(decoded.fields()[1].second, std::string("line\nwith\0nul", 13));
  EXPECT_EQ(decoded.get_or("op", ""), "second");
  EXPECT_EQ(decoded.get_or("empty", "x"), "");
  // Deterministic: the same fields encode to the same bytes.
  EXPECT_EQ(svc::encode_message(message), svc::encode_message(decoded));
}

TEST(SvcWire, GetU64RejectsNonNumeric) {
  svc::Message message;
  message.set("n", "12");
  message.set("bad", "12x");
  EXPECT_EQ(message.get_u64_or("n", 0), 12u);
  EXPECT_EQ(message.get_u64_or("absent", 7), 7u);
  EXPECT_THROW((void)message.get_u64_or("bad", 0), support::Error);
}

TEST(SvcWire, GetU64RejectsValuesPastItsBound) {
  svc::Message message;
  message.set("n", "4294967295");
  message.set("big", "9223372036854775807");
  EXPECT_EQ(message.get_u64_or("n", 0, 4294967295u), 4294967295u);
  EXPECT_EQ(message.get_u64_or("big", 0), 9223372036854775807u);
  try {
    (void)message.get_u64_or("n", 0, 4294967294u);
    FAIL() << "a value past the bound parsed";
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kParse);
    EXPECT_NE(std::string(error.what()).find("[0, 4294967294]"), std::string::npos)
        << error.what();
  }
}

TEST(SvcWire, DecodeRejectsMalformedPayloads) {
  EXPECT_THROW((void)svc::decode_message(""), support::Error);
  EXPECT_THROW((void)svc::decode_message("notanumber\n"), support::Error);
  // Field count promises more fields than the payload holds.
  EXPECT_THROW((void)svc::decode_message("2\n1 1\nab"), support::Error);
  // Value length runs past the end of the payload.
  EXPECT_THROW((void)svc::decode_message("1\n1 99\nab"), support::Error);
}

TEST(SvcWire, PipeRoundTripAndCleanEof) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  svc::Message message;
  message.set("key", "value");
  svc::write_message(fds[1], message);
  svc::write_message(fds[1], message);
  ::close(fds[1]);
  EXPECT_EQ(svc::read_message(fds[0]).value().get_or("key", ""), "value");
  EXPECT_EQ(svc::read_message(fds[0]).value().get_or("key", ""), "value");
  // Writer gone, frame boundary: clean close, not an error.
  EXPECT_FALSE(svc::read_message(fds[0]).has_value());
  ::close(fds[0]);
}

TEST(SvcWire, EofMidFrameIsAnError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const char torn[] = "100\n3";  // promises a 100-byte payload, delivers 1
  ASSERT_EQ(::write(fds[1], torn, sizeof torn - 1),
            static_cast<ssize_t>(sizeof torn - 1));
  ::close(fds[1]);
  EXPECT_THROW((void)svc::read_message(fds[0]), support::Error);
  ::close(fds[0]);
}

// ---- queue ------------------------------------------------------------------

TEST(SvcQueue, PopsByPriorityThenFifo) {
  svc::JobQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(1, 0));
  EXPECT_TRUE(queue.try_push(2, 5));
  EXPECT_TRUE(queue.try_push(3, 0));
  EXPECT_TRUE(queue.try_push(4, 5));
  EXPECT_EQ(queue.pop(), 2);  // highest priority first
  EXPECT_EQ(queue.pop(), 4);  // FIFO within a priority level
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(SvcQueue, BoundedTryPushRefusesWhenFull) {
  svc::JobQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1, 0));
  EXPECT_TRUE(queue.try_push(2, 9));
  EXPECT_FALSE(queue.try_push(3, 99));  // priority does not bypass the bound
  EXPECT_EQ(queue.depth(), 2u);
  (void)queue.pop();
  EXPECT_TRUE(queue.try_push(3, 0));
}

TEST(SvcQueue, CloseDrainsRemainderThenSignalsConsumers) {
  svc::JobQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(1, 0));
  EXPECT_TRUE(queue.try_push(2, 0));
  queue.close();
  EXPECT_FALSE(queue.try_push(3, 0));  // admission stops immediately
  EXPECT_EQ(queue.pop(), 1);           // ...but the backlog still drains
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(SvcQueue, CloseWakesABlockedConsumer) {
  svc::JobQueue<int> queue(4);
  std::optional<int> seen = 42;
  std::thread consumer([&] { seen = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
  EXPECT_FALSE(seen.has_value());
}

// ---- result cache -----------------------------------------------------------

svc::JobResult result_with_report(const std::string& report) {
  svc::JobResult result;
  result.report = report;
  return result;
}

TEST(SvcCache, MissThenHitReturnsStoredBytes) {
  svc::ResultCache cache(4);
  EXPECT_FALSE(cache.lookup("k").has_value());
  cache.insert("k", result_with_report("bytes\n"));
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->report, "bytes\n");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SvcCache, FirstWriteWins) {
  svc::ResultCache cache(4);
  cache.insert("k", result_with_report("first"));
  cache.insert("k", result_with_report("second"));
  EXPECT_EQ(cache.lookup("k")->report, "first");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SvcCache, EvictsOldestInsertionFirst) {
  svc::ResultCache cache(2);
  cache.insert("a", result_with_report("A"));
  cache.insert("b", result_with_report("B"));
  cache.insert("c", result_with_report("C"));
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

// ---- cache key --------------------------------------------------------------

svc::JobSpec campaign_spec() {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kCampaign;
  spec.guest = guests::toymov();
  return spec;
}

TEST(SvcCacheKey, StableHexDigest) {
  const std::string key = campaign_spec().cache_key();
  EXPECT_EQ(key.size(), 64u);
  EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(key, campaign_spec().cache_key());  // deterministic across calls
}

TEST(SvcCacheKey, ChangesWithEveryBehaviourRelevantField) {
  const std::string base = campaign_spec().cache_key();
  const auto mutated = [&](auto&& mutate) {
    svc::JobSpec spec = campaign_spec();
    mutate(spec);
    return spec.cache_key();
  };
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.kind = svc::JobKind::kHarden; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.guest = guests::pincheck(); }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.guest.assembly += "\nnop"; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.guest.bad_input += "x"; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.guest = guests::toymov_rv32i(); }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.skip = false; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.flag_flip = true; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.order = 2; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.order = 3; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.pair_window = 4; }), base);
  // An order-3 budgeted sweep must never resolve to a cached exhaustive
  // (or differently-seeded) order-3 answer: the sampling knobs are
  // behaviour-relevant identity, not execution detail.
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.max_tuples = 500; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.sample_seed += 1; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.max_iterations = 3; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.patterns = true; }), base);
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.format = "json"; }), base);
  // The orders must also be distinct from each other, not just from order 1.
  EXPECT_NE(mutated([](svc::JobSpec& s) { s.campaign.models.order = 2; }),
            mutated([](svc::JobSpec& s) { s.campaign.models.order = 3; }));
}

TEST(SvcCacheKey, IgnoresExecutionOnlyKnobs) {
  // Reports are bit-identical for every thread count (the engine's core
  // invariant), so parallelism must not split the cache.
  const std::string base = campaign_spec().cache_key();
  svc::JobSpec spec = campaign_spec();
  spec.campaign.threads = 8;
  EXPECT_EQ(spec.cache_key(), base);
}

TEST(SvcCacheKey, SleepJobsBypassTheCache) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kSleep;
  EXPECT_FALSE(spec.cacheable());
  EXPECT_TRUE(campaign_spec().cacheable());
}

TEST(SvcJob, SpecSurvivesWireRoundTrip) {
  svc::JobSpec spec = campaign_spec();
  spec.campaign.models.order = 3;
  spec.campaign.models.pair_window = 5;
  spec.campaign.models.max_tuples = 2048;
  spec.campaign.models.sample_seed = 99;
  spec.campaign.threads = 3;
  spec.format = "markdown";
  const svc::JobSpec back = svc::JobSpec::from_message(spec.to_message());
  EXPECT_EQ(back.guest.assembly, spec.guest.assembly);
  EXPECT_EQ(back.guest.arch, spec.guest.arch);
  EXPECT_EQ(back.campaign.models.order, 3u);
  EXPECT_EQ(back.campaign.models.pair_window, 5u);
  EXPECT_EQ(back.campaign.models.max_tuples, 2048u);
  EXPECT_EQ(back.campaign.models.sample_seed, 99u);
  EXPECT_EQ(back.campaign.threads, 3u);
  EXPECT_EQ(back.format, "markdown");
  EXPECT_EQ(back.cache_key(), spec.cache_key());
}

/// `spec`'s wire message without the field `key`.
svc::Message without_field(const svc::JobSpec& spec, std::string_view key) {
  const svc::Message full = spec.to_message();
  svc::Message message;
  for (const auto& [name, value] : full.fields()) {
    if (name != key) message.set(name, value);
  }
  return message;
}

/// The ErrorKind from_message throws for `message`, or nullopt.
std::optional<support::ErrorKind> decode_error(const svc::Message& message) {
  try {
    (void)svc::JobSpec::from_message(message);
  } catch (const support::Error& error) {
    return error.kind();
  }
  return std::nullopt;
}

TEST(SvcJob, AbsentModelFieldsKeepTheirDefaults) {
  const sim::FaultModels defaults;
  const sim::FaultModels absent = svc::JobSpec::from_message(svc::Message{}).campaign.models;
  EXPECT_EQ(absent.skip, defaults.skip);
  EXPECT_EQ(absent.bit_flip, defaults.bit_flip);
  EXPECT_EQ(absent.register_flip, defaults.register_flip);
  EXPECT_EQ(absent.flag_flip, defaults.flag_flip);
  EXPECT_EQ(absent.register_flip_regs, defaults.register_flip_regs);

  // A client that omits only the register list sweeps the default
  // registers, not none.
  svc::JobSpec spec = campaign_spec();
  spec.campaign.models.register_flip = true;
  const svc::JobSpec back =
      svc::JobSpec::from_message(without_field(spec, "register_flip_regs"));
  EXPECT_TRUE(back.campaign.models.register_flip);
  EXPECT_EQ(back.campaign.models.register_flip_regs,
            (std::vector<unsigned>{0, 1, 2, 3, 6, 7}));
}

TEST(SvcJob, RegisterListOutsideTheRegisterFileIsAParseError) {
  svc::Message message = campaign_spec().to_message();
  message.set("register_flip_regs", "16");  // last field wins
  EXPECT_EQ(decode_error(message), support::ErrorKind::kParse);
  message.set("register_flip_regs", "1,x");
  EXPECT_EQ(decode_error(message), support::ErrorKind::kParse);
  message.set("register_flip_regs", "0,15");
  EXPECT_EQ(decode_error(message), std::nullopt);
}

TEST(SvcJob, RegisterListAndModelFieldsRoundTripUnchanged) {
  const std::vector<std::vector<unsigned>> lists = {
      {}, {15, 4}, sim::FaultModels{}.register_flip_regs};
  for (const std::vector<unsigned>& regs : lists) {
    svc::JobSpec spec = campaign_spec();
    spec.campaign.models.register_flip_regs = regs;
    spec.campaign.models.bit_flip = false;
    spec.campaign.models.flag_flip = true;
    const svc::Message message = spec.to_message();
    const svc::JobSpec back = svc::JobSpec::from_message(message);
    EXPECT_EQ(back.campaign.models.register_flip_regs, regs);
    EXPECT_TRUE(back.campaign.models.skip);
    EXPECT_FALSE(back.campaign.models.bit_flip);
    EXPECT_FALSE(back.campaign.models.register_flip);
    EXPECT_TRUE(back.campaign.models.flag_flip);
    EXPECT_EQ(back.cache_key(), spec.cache_key());

    // The model fields keep their names and their order on the wire.
    std::vector<std::string> model_fields;
    for (const auto& [name, value] : message.fields()) {
      if (name.starts_with("model_") && name != "model_max_tuples" &&
          name != "model_sample_seed") {
        model_fields.push_back(name + "=" + value);
      }
    }
    EXPECT_EQ(model_fields, (std::vector<std::string>{"model_skip=1", "model_bit_flip=0",
                                                      "model_register_flip=0",
                                                      "model_flag_flip=1"}));
  }
}

TEST(SvcJob, NarrowedFieldsRoundTripAtTheirBoundAndRejectOnePast) {
  // Each field the reader narrows to `unsigned` or `int` keeps its value at
  // the type's bounds and is a parse error one past them: without the
  // bound, order=4294967298 would run, and be cached, as order 2.
  constexpr std::int64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  struct Field {
    const char* key;
    std::int64_t low;
    std::int64_t high;
    std::int64_t (*read)(const svc::JobSpec&);
  };
  const std::vector<Field> fields = {
      {"order", 0, kUnsignedMax,
       [](const svc::JobSpec& s) -> std::int64_t { return s.campaign.models.order; }},
      {"threads", 0, kUnsignedMax,
       [](const svc::JobSpec& s) -> std::int64_t { return s.campaign.threads; }},
      {"max_iterations", 0, kUnsignedMax,
       [](const svc::JobSpec& s) -> std::int64_t { return s.max_iterations; }},
      {"register_flip_bit_stride", 0, kUnsignedMax,
       [](const svc::JobSpec& s) -> std::int64_t {
         return s.campaign.models.register_flip_bit_stride;
       }},
      {"good_exit", kIntMin, kIntMax,
       [](const svc::JobSpec& s) -> std::int64_t { return s.guest.good_exit; }},
      {"bad_exit", kIntMin, kIntMax,
       [](const svc::JobSpec& s) -> std::int64_t { return s.guest.bad_exit; }},
  };
  for (const Field& field : fields) {
    SCOPED_TRACE(field.key);
    svc::Message message = campaign_spec().to_message();
    for (const std::int64_t bound : {field.low, field.high}) {
      message.set(field.key, std::to_string(bound));  // last field wins
      const svc::JobSpec spec = svc::JobSpec::from_message(message);
      EXPECT_EQ(field.read(spec), bound);
      EXPECT_EQ(field.read(svc::JobSpec::from_message(spec.to_message())), bound);
    }
    message.set(field.key, std::to_string(field.high + 1));
    EXPECT_EQ(decode_error(message), support::ErrorKind::kParse);
    message.set(field.key, std::to_string(field.low - 1));
    EXPECT_EQ(decode_error(message), support::ErrorKind::kParse);
  }
  svc::Message wrapped = campaign_spec().to_message();
  wrapped.set("order", "4294967298");
  EXPECT_EQ(decode_error(wrapped), support::ErrorKind::kParse);

  // A worker's answer carries the job's exit code as an int too.
  svc::Message answer;
  answer.set("exit", std::to_string(kIntMax));
  EXPECT_EQ(svc::JobResult::from_message(answer).exit_code, kIntMax);
  answer.set("exit", std::to_string(kIntMax + 1));
  EXPECT_THROW((void)svc::JobResult::from_message(answer), support::Error);
}

// ---- daemon == CLI ----------------------------------------------------------

struct CliRun {
  int exit_code = -1;
  std::string out;
};

CliRun run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.exit_code = cli::run(args, out, err);
  run.out = out.str();
  return run;
}

TEST(SvcJob, CampaignAndFixpointReportsEqualTheCliOutput) {
  // A daemon job and the one-shot subcommand share the campaign call and
  // one renderer per format, so the job report is the subcommand's stdout
  // byte for byte — at every order, in every format, and at a different
  // thread count: the cache key leaves `threads` out, so a cached answer
  // must not depend on it. The capped fix-point (one iteration, still on
  // rung 1) pins the shared verdict, exit code included.
  struct Case {
    svc::JobKind kind;
    unsigned max_iterations;
  };
  const guests::Guest& guest = guests::toymov();
  for (const Case& c : {Case{svc::JobKind::kCampaign, 12}, Case{svc::JobKind::kFixpoint, 12},
                        Case{svc::JobKind::kFixpoint, 1}}) {
    const std::string cmd(svc::to_string(c.kind));
    for (const unsigned order : {1u, 2u, 3u}) {
      for (const char* format : {"text", "json", "markdown"}) {
        const std::string where = cmd + " order " + std::to_string(order) +
                                  " max-iterations " + std::to_string(c.max_iterations) +
                                  " " + format;
        svc::JobSpec spec;
        spec.kind = c.kind;
        spec.guest = guest;
        spec.campaign.models.bit_flip = false;
        spec.campaign.models.order = order;
        spec.campaign.threads = 4;
        spec.max_iterations = c.max_iterations;
        spec.format = format;
        const svc::JobResult job = svc::run_job(spec);
        ASSERT_FALSE(job.infra) << where << ": " << job.error;

        std::vector<std::string> args = {cmd, guest.name, "--model", "skip", "--order",
                                         std::to_string(order), "--threads", "1",
                                         "--format", format};
        if (c.kind == svc::JobKind::kFixpoint) {
          args.insert(args.end(), {"--max-iterations", std::to_string(c.max_iterations)});
        }
        const CliRun cli = run_cli(args);
        EXPECT_EQ(job.report, cli.out) << where;
        EXPECT_EQ(job.exit_code, cli.exit_code) << where;
      }
    }
  }
}

TEST(SvcJob, HardenPatternsResidualLineEqualsTheCli) {
  // pincheck keeps one unpatchable triple at order 3: both surfaces must
  // report it on the same `faulter+patcher:` line.
  const guests::Guest& guest = guests::pincheck();
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kHarden;
  spec.guest = guest;
  spec.patterns = true;
  spec.campaign.models.bit_flip = false;
  spec.campaign.models.order = 3;
  const svc::JobResult job = svc::run_job(spec);
  ASSERT_FALSE(job.infra) << job.error;

  const std::string elf = (fs::path(testing::TempDir()) / "svc_harden.elf").string();
  const CliRun cli = run_cli({"harden", guest.name, "--patterns", "--model", "skip",
                              "--order", "3", "--out", elf});
  ASSERT_EQ(cli.exit_code, 0);
  const std::string line = job.report.substr(0, job.report.find('\n') + 1);
  EXPECT_EQ(line, cli.out.substr(0, cli.out.find('\n') + 1));
  EXPECT_NE(line.find("residual 0 fault(s) / 1 tuple(s)"), std::string::npos) << line;
  // The rest of the daemon report (code size, behaviour) matches too; only
  // the CLI's trailing "hardened ELF written" line is its own.
  EXPECT_EQ(cli.out.rfind(job.report, 0), 0u) << job.report << "\nvs\n" << cli.out;
  EXPECT_EQ(job.exit_code, cli.exit_code);
}

TEST(SvcJob, HybridHardenReportAndElfEqualTheCli) {
  // A daemon harden job runs the default Hybrid configuration; `r2r harden`
  // without flags runs the same one through the same runner, on both
  // targets. The CLI adds only its "hardened ELF written" line.
  for (const guests::Guest* guest : {&guests::pincheck(), &guests::toymov_rv32i()}) {
    svc::JobSpec spec;
    spec.kind = svc::JobKind::kHarden;
    spec.guest = *guest;
    const svc::JobResult job = svc::run_job(spec);
    ASSERT_FALSE(job.infra) << job.error;

    const std::string elf = (fs::path(testing::TempDir()) / "svc_hybrid.elf").string();
    const std::string target(isa::target(guest->arch).name());
    const CliRun cli = run_cli({"--target", target, "harden", guest->name, "--out", elf});
    EXPECT_EQ(job.exit_code, cli.exit_code) << guest->name;
    EXPECT_EQ(cli.out, job.report + "hardened ELF written to " + elf + " (" +
                           std::to_string(job.elf.size()) + " bytes)\n")
        << guest->name;
    EXPECT_EQ(cli::read_file(elf), job.elf) << guest->name;
  }
}

// ---- daemon lifecycle -------------------------------------------------------

std::string socket_path(const std::string& name) {
  return (fs::path(testing::TempDir()) / name).string();
}

svc::Message submit_request(const svc::JobSpec& spec, int priority = 0) {
  svc::Message request = spec.to_message();
  request.set("op", "submit");
  request.set_u64("priority", static_cast<std::uint64_t>(priority));
  return request;
}

svc::Message rpc(const std::string& socket, const svc::Message& request) {
  svc::Client client = svc::Client::connect(socket, 2000);
  return client.request(request);
}

svc::JobSpec sleep_spec(std::uint64_t ms) {
  svc::JobSpec spec;
  spec.kind = svc::JobKind::kSleep;
  spec.sleep_ms = ms;
  return spec;
}

TEST(SvcServer, CachedAnswerIsByteIdenticalToFreshAcrossFormats) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_cached.sock");
  config.workers = 1;
  svc::Server server(config);
  server.start();

  for (const char* format : {"text", "json", "markdown"}) {
    svc::JobSpec spec = campaign_spec();
    spec.format = format;
    const svc::Message fresh = rpc(config.socket_path, submit_request(spec));
    ASSERT_EQ(fresh.get_or("ok", ""), "1") << fresh.get_or("error", "");
    EXPECT_EQ(fresh.get_or("cached", ""), "0") << format;
    const svc::Message cached = rpc(config.socket_path, submit_request(spec));
    ASSERT_EQ(cached.get_or("ok", ""), "1");
    EXPECT_EQ(cached.get_or("cached", ""), "1") << format;
    // The determinism contract: a hit returns byte-for-byte the fresh
    // report, and both name the same content-addressed key.
    EXPECT_EQ(cached.get_or("report", "a"), fresh.get_or("report", "b")) << format;
    EXPECT_EQ(cached.get_or("key", ""), fresh.get_or("key", "?")) << format;
    EXPECT_FALSE(fresh.get_or("report", "").empty()) << format;
  }

  svc::Message status_request;
  status_request.set("op", "status");
  const svc::Message status = rpc(config.socket_path, status_request);
  EXPECT_EQ(status.get_or("cache_hits", ""), "3");
  EXPECT_EQ(status.get_or("cache_misses", ""), "3");
  EXPECT_EQ(status.get_or("jobs_completed", ""), "3");
  EXPECT_EQ(status.get_or("cache_entries", ""), "3");

  server.request_shutdown();
  server.wait();
}

TEST(SvcServer, HardenJobThatChangesBehaviourReturnsNoElf) {
  // A hardened binary that fails the behaviour check is never handed out:
  // the job answers 1 with a report ending in CHANGED and no ELF, and
  // `r2r submit --elf` then writes no file, as `r2r harden` refuses to.
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_changed.sock");
  config.workers = 1;
  svc::Server server(config);
  server.start();

  svc::JobSpec spec;
  spec.kind = svc::JobKind::kHarden;
  spec.guest = guests::pincheck();
  spec.guest.good_output = "tampered";
  const svc::Message response = rpc(config.socket_path, submit_request(spec));
  ASSERT_EQ(response.get_or("ok", ""), "1") << response.get_or("error", "");
  const svc::JobResult job = svc::JobResult::from_message(response);
  EXPECT_FALSE(job.infra);
  EXPECT_EQ(job.exit_code, 1);
  EXPECT_TRUE(job.report.ends_with("CHANGED\n")) << job.report;
  EXPECT_TRUE(job.elf.empty());

  const std::string elf = (fs::path(testing::TempDir()) / "svc_changed.elf").string();
  fs::remove(elf);
  cli::ArgParser submit = cli::make_submit_parser();
  submit.parse({"pincheck", "--cmd", "harden", "--elf", elf});
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::print_job(submit, job, out, err), 1);
  EXPECT_EQ(out.str(), job.report);
  EXPECT_FALSE(fs::exists(elf));

  server.request_shutdown();
  server.wait();
}

TEST(SvcServer, KilledWorkerFailsOnlyItsJobAndIsRespawned) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_kill.sock");
  config.workers = 1;
  svc::Server server(config);
  server.start();
  const pid_t victim = server.worker_pid(0);
  ASSERT_GT(victim, 0);

  svc::Message crashed;
  std::thread submitter([&] {
    crashed = rpc(config.socket_path, submit_request(sleep_spec(10'000)));
  });
  // Give the job time to reach the worker, then kill it mid-sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  submitter.join();

  EXPECT_EQ(crashed.get_or("ok", ""), "1");  // answered, not dropped
  EXPECT_EQ(crashed.get_or("infra", ""), "1");
  EXPECT_EQ(crashed.get_or("exit", ""), "3");
  EXPECT_NE(crashed.get_or("error", "").find("killed by signal 9"), std::string::npos)
      << crashed.get_or("error", "");

  // The slot came back with a fresh process, and real work still runs.
  EXPECT_NE(server.worker_pid(0), victim);
  const svc::Message after =
      rpc(config.socket_path, submit_request(campaign_spec()));
  EXPECT_EQ(after.get_or("ok", ""), "1") << after.get_or("error", "");
  EXPECT_EQ(after.get_or("infra", ""), "0");

  svc::Message status_request;
  status_request.set("op", "status");
  const svc::Message status = rpc(config.socket_path, status_request);
  EXPECT_EQ(status.get_or("workers_respawned", ""), "1");

  server.request_shutdown();
  server.wait();
}

TEST(SvcServer, GracefulShutdownDrainsQueuedJobsFirst) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_drain.sock");
  config.workers = 1;  // serializes the jobs, so two of three sit queued
  svc::Server server(config);
  server.start();

  std::vector<svc::Message> responses(3);
  std::vector<std::thread> submitters;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    submitters.emplace_back([&, i] {
      responses[i] = rpc(config.socket_path, submit_request(sleep_spec(150)));
    });
  }
  // Let all three be admitted before asking for the drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  svc::Message shutdown_request;
  shutdown_request.set("op", "shutdown");
  const svc::Message drained = rpc(config.socket_path, shutdown_request);
  for (std::thread& submitter : submitters) submitter.join();

  EXPECT_EQ(drained.get_or("ok", ""), "1");
  EXPECT_EQ(drained.get_or("drained", ""), "1");
  // Every admitted job completed before the daemon answered the shutdown.
  EXPECT_EQ(drained.get_or("jobs_completed", ""), "3");
  for (const svc::Message& response : responses) {
    EXPECT_EQ(response.get_or("ok", ""), "1") << response.get_or("error", "");
    EXPECT_EQ(response.get_or("infra", ""), "0");
  }
  server.wait();
  // The daemon is gone: a fresh connect (short timeout) must fail.
  EXPECT_THROW((void)svc::Client::connect(config.socket_path, 50), support::Error);
}

TEST(SvcServer, FullQueueRefusesWithBackpressure) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_busy.sock");
  config.workers = 1;
  config.queue_depth = 1;
  svc::Server server(config);
  server.start();

  // First job occupies the only worker; second fills the queue.
  std::vector<svc::Message> responses(2);
  std::vector<std::thread> submitters;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    submitters.emplace_back([&, i] {
      responses[i] = rpc(config.socket_path, submit_request(sleep_spec(500)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const svc::Message refused =
      rpc(config.socket_path, submit_request(sleep_spec(500)));
  EXPECT_EQ(refused.get_or("ok", ""), "0");
  EXPECT_EQ(refused.get_or("busy", ""), "1");
  EXPECT_EQ(refused.get_or("exit", ""), "3");
  for (std::thread& submitter : submitters) submitter.join();
  for (const svc::Message& response : responses) {
    EXPECT_EQ(response.get_or("ok", ""), "1");  // admitted jobs still finish
  }

  server.request_shutdown();
  server.wait();
}

TEST(SvcServer, DrainingDaemonRefusesNewJobs) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_refuse.sock");
  config.workers = 1;
  svc::Server server(config);
  server.start();
  server.request_shutdown();  // local drain: accept loop still answers
  const svc::Message refused =
      rpc(config.socket_path, submit_request(campaign_spec()));
  EXPECT_EQ(refused.get_or("ok", ""), "0");
  EXPECT_EQ(refused.get_or("draining", ""), "1");
  EXPECT_EQ(refused.get_or("exit", ""), "3");
  server.wait();
}

TEST(SvcServer, SubmitAtAPriorityPastIntIsRefused) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_priority.sock");
  config.workers = 1;
  svc::Server server(config);
  server.start();
  // The highest priority an int holds runs; one past it is refused rather
  // than queued as -2^31, behind every priority-0 job.
  svc::Message top = submit_request(sleep_spec(0));
  top.set_u64("priority", std::numeric_limits<int>::max());  // last field wins
  const svc::Message accepted = rpc(config.socket_path, top);
  EXPECT_EQ(accepted.get_or("ok", ""), "1") << accepted.get_or("error", "");
  svc::Message past = submit_request(sleep_spec(0));
  past.set_u64("priority", std::uint64_t{1} << 31);
  const svc::Message refused = rpc(config.socket_path, past);
  EXPECT_EQ(refused.get_or("ok", ""), "0");
  EXPECT_EQ(refused.get_or("exit", ""), "3");
  EXPECT_NE(refused.get_or("error", "").find("'priority'"), std::string::npos)
      << refused.get_or("error", "");
  svc::Message status_request;
  status_request.set("op", "status");
  EXPECT_EQ(rpc(config.socket_path, status_request).get_or("jobs_submitted", ""), "1");
  server.request_shutdown();
  server.wait();

  // `r2r submit` refuses the same priority as a usage error before it
  // connects; at the bound it gets as far as the (absent) daemon.
  const std::string absent = socket_path("svc_priority_absent.sock");
  const std::vector<std::string> submit = {"submit", "toymov", "--socket", absent,
                                           "--connect-timeout", "0", "--priority"};
  std::vector<std::string> over = submit;
  over.push_back("2147483648");
  EXPECT_EQ(run_cli(over).exit_code, 2);
  std::vector<std::string> at_bound = submit;
  at_bound.push_back("2147483647");
  EXPECT_EQ(run_cli(at_bound).exit_code, svc::kInfraExitCode);
}

TEST(SvcServer, UnknownOpIsAUsageError) {
  obs::Metrics::instance().reset();
  svc::ServerConfig config;
  config.socket_path = socket_path("svc_unknown.sock");
  config.workers = 1;
  svc::Server server(config);
  server.start();
  svc::Message request;
  request.set("op", "frobnicate");
  const svc::Message response = rpc(config.socket_path, request);
  EXPECT_EQ(response.get_or("ok", ""), "0");
  EXPECT_EQ(response.get_or("exit", ""), "2");
  EXPECT_NE(response.get_or("error", "").find("frobnicate"), std::string::npos);
  server.request_shutdown();
  server.wait();
}

}  // namespace
