// Shared helpers for the perfbench subcommands: argument map, seeded
// RNG, one-line JSON results, telemetry readouts.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) key = key.substr(2);
      values_[key] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  double f64(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// splitmix64: small, seedable, identical on every platform.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// `v` as a JSON string literal (names here never need more than
/// quote and backslash escapes).
inline std::string json_quote(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted.push_back('\\');
    quoted.push_back(c);
  }
  return quoted + "\"";
}

/// Builds one flat JSON object; values are numbers, strings or
/// preformatted JSON.
class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& v) { raw(key, json_quote(v)); }
  void raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
  }
  std::string done() const { return (body_.empty() ? "{" : body_) + "}"; }

 private:
  std::string body_;
};

/// JSON array of numbers.
inline std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[48];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

/// JSON array of strings.
inline std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_quote(values[i]);
  }
  return out + "]";
}

/// {"name": {"count":..,"total_s":..,"self_s":..}, ...}
inline std::string json_span_totals(const Tracer& tracer) {
  JsonLine out;
  for (const auto& [name, t] : tracer.totals()) {
    JsonLine one;
    one.num("count", static_cast<double>(t.count));
    one.num("total_s", t.total_s);
    one.num("self_s", t.self_s);
    out.raw(name, one.done());
  }
  return out.done();
}

/// Upper bound of the bucket holding the median (the bucket's bound is
/// all a fixed-bucket histogram knows). 0 when empty.
inline double histogram_p50(const tempest::telemetry::HistogramSnapshot& h,
                            tempest::telemetry::Histogram id) {
  if (h.count == 0) return 0.0;
  const double* bounds = tempest::telemetry::histogram_bounds(id);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i + 1 < tempest::telemetry::kHistogramBuckets; ++i) {
    seen += h.buckets[i];
    if (2 * seen >= h.count) return bounds[i];
  }
  return static_cast<double>(h.max);
}

/// CPUs this process may run on (what Python's os.sched_getaffinity
/// counts); the load caps are derived from it.
inline unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

inline double peak_rss_mib_self() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Write `text` to `path`; false on failure.
bool write_file(const std::string& path, const std::string& text);

// Subcommands (one translation unit each).
int run_record(const Args& args);
int run_gen_analyze(const Args& args);
int run_analyze(const Args& args);
int run_collect(const Args& args);

}  // namespace perfbench
