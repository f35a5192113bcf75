#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * values.size()));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = tracer_.records_.size();
  const std::size_t parent = tracer_.open_.empty() ? kNoParent : tracer_.open_.back();
  tracer_.records_.push_back(Record{name, now_ns(), 0, parent});
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (!tracer_.enabled_) return;
  tracer_.records_[index_].end_ns = now_ns();
  tracer_.open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<std::uint64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += records_[i].end_ns - records_[i].begin_ns;
    if (records_[i].parent != kNoParent) {
      self[records_[i].parent] -= records_[i].end_ns - records_[i].begin_ns;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    by_name[records_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  const std::uint64_t origin = records_.empty() ? 0 : records_.front().begin_ns;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld}}",
                  i == 0 ? "" : ",", r.name, static_cast<double>(r.begin_ns - origin) / 1e3,
                  static_cast<double>(r.end_ns - r.begin_ns) / 1e3, i,
                  r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent));
    out << line;
  }
  out << "\n]}\n";
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string result_json(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
