// Measurement plumbing shared by the benchmark's workloads and layer
// probes: clocks and order statistics, a seeded generator, a digest, an
// in-memory span tracer, the check tally and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);

double median(std::vector<double> values);
/// Nearest-rank percentile, `p` in (0, 100].
double percentile(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// splitmix64: the benchmark's own seeded stream, independent of the
/// generators inside the code under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 over a stream of integers and strings.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(std::string_view text);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Spans recorded around the calls into each layer. Kept in memory and
/// written out as a Chrome trace when the run ends; a disabled tracer
/// records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  /// Self time per span name (duration minus the time covered by child
  /// spans), in seconds, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  struct Record {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::size_t parent;
  };
  bool enabled_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// Tally of correctness checks; each failure is reported on stderr.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what);
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Checks& checks, const std::vector<Metric>& metrics);

}  // namespace perfbench
