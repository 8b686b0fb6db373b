#include "core/config.hpp"

#include <csignal>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "telemetry/log.hpp"

namespace tempest::core {
namespace {

/// Warn once per (variable, complaint) per process: from_env runs on
/// every session start, and a constructor-started session in a test
/// loop must not spam stderr with the same rejection hundreds of times.
void warn_limited(const std::string& name, const std::string& what) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  const std::string key = name + "\x1f" + what;
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!warned->insert(key).second) return;
  }
  telemetry::log_warn("config", name + ": " + what);
}

/// Checked numeric parse with the rejection policy the satellites ask
/// for: malformed values warn (once) and keep the default; values below
/// `min_ok` warn and keep the default.
long env_long_or(const char* name, long fallback, long min_ok) {
  long v = fallback;
  switch (env_long_checked(name, &v)) {
    case EnvParse::kAbsent:
      return fallback;
    case EnvParse::kMalformed:
      warn_limited(name, "malformed numeric value; using default " +
                             std::to_string(fallback));
      return fallback;
    case EnvParse::kOk:
      break;
  }
  if (v < min_ok) {
    warn_limited(name, "value " + std::to_string(v) + " out of range (min " +
                           std::to_string(min_ok) + "); using default " +
                           std::to_string(fallback));
    return fallback;
  }
  return v;
}

std::string shown(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// SessionConfig::check, one field at a time, so that from_env can keep
// the default of just the field that fails.
bool period_in_range(double seconds) {
  return seconds >= kMinPeriodSeconds && seconds <= cli::kMaxSeconds;
}
Status check_sample_hz(double hz) {
  if (period_in_range(1.0 / hz)) return Status::ok();
  return Status::error("sample_hz " + shown(hz) +
                       ": the tick period must be within [1 ms, 1e9 s]");
}
Status check_heartbeat_period(double seconds) {
  if (seconds == 0.0 || period_in_range(seconds)) return Status::ok();
  return Status::error("heartbeat_period_s " + shown(seconds) +
                       ": must be 0 (off) or within [1 ms, 1e9 s]");
}
Status check_ring_seconds(double seconds) {
  if (seconds == 0.0 || cli::check_seconds(seconds)) return Status::ok();
  return Status::error("ring_seconds " + shown(seconds) +
                       ": must be 0 (off) or within (0, 1e9] s");
}
Status check_watchdog_budget(double budget) {
  if (std::isfinite(budget) && budget > 0.0) return Status::ok();
  return Status::error("watchdog_budget " + shown(budget) +
                       ": must be a finite share above 0");
}

/// Checked parse of a double field: malformed values and values `check`
/// rejects warn (once) and keep the default.
double env_double_or(const char* name, double fallback, Status (*check)(double)) {
  double v = fallback;
  switch (env_double_checked(name, &v)) {
    case EnvParse::kAbsent:
      return fallback;
    case EnvParse::kMalformed:
      warn_limited(name, "malformed numeric value; using default");
      return fallback;
    case EnvParse::kOk:
      break;
  }
  const Status in_range = check(v);
  if (!in_range) {
    warn_limited(name, in_range.message() + "; using default");
    return fallback;
  }
  return v;
}

/// "USR1", "SIGUSR2", or a raw signal number. -1 when unset/unknown.
int parse_signal(const std::string& spec) {
  if (spec.empty()) return -1;
  std::string name = spec;
  if (name.rfind("SIG", 0) == 0) name = name.substr(3);
  if (name == "USR1") return SIGUSR1;
  if (name == "USR2") return SIGUSR2;
  if (name == "HUP") return SIGHUP;
  try {
    std::size_t pos = 0;
    const int n = std::stoi(spec, &pos);
    if (pos == spec.size() && n > 0 && n < 64) return n;
  } catch (...) {
  }
  warn_limited("TEMPEST_SNAPSHOT_SIGNAL",
               "unrecognised signal '" + spec + "'; snapshots disabled");
  return -1;
}

}  // namespace

SessionConfig SessionConfig::from_env() {
  SessionConfig c;
  c.sample_hz = env_double_or("TEMPEST_HZ", c.sample_hz, check_sample_hz);
  c.output_path = env_string("TEMPEST_OUT", c.output_path);
  TempUnit unit = c.unit;
  if (parse_temp_unit(env_string("TEMPEST_UNIT", "F"), &unit)) c.unit = unit;
  c.bind_affinity = env_bool("TEMPEST_BIND", c.bind_affinity);
  c.bind_cpu = static_cast<int>(env_long("TEMPEST_CPU", c.bind_cpu));
  c.auto_report = env_bool("TEMPEST_REPORT", c.auto_report);
  c.min_samples_significant =
      static_cast<std::size_t>(env_long_or("TEMPEST_MIN_SAMPLES", 2, 0));
  c.heartbeat_period_s =
      env_double_or("TEMPEST_HEARTBEAT", c.heartbeat_period_s, check_heartbeat_period);
  c.collect_spec = env_string("TEMPEST_COLLECT", c.collect_spec);
  // An explicit cap of 0 is never what anyone meant (it reads as
  // "record nothing"); reject it — and negatives, and garbage — with a
  // warning and stay on the default (unbounded).
  c.max_events_per_thread =
      static_cast<std::size_t>(env_long_or("TEMPEST_MAX_EVENTS", 0, 1));
  c.watchdog = env_bool("TEMPEST_WATCHDOG", c.watchdog);
  c.watchdog_budget =
      env_double_or("TEMPEST_WATCHDOG_BUDGET", c.watchdog_budget, check_watchdog_budget);

  c.filter_path = env_string("TEMPEST_FILTER", c.filter_path);
  c.min_duration_ns = env_long_or("TEMPEST_MIN_DURATION_NS", 0, 0);
  c.rate_cap = env_long_or("TEMPEST_RATE_CAP", 0, 0);
  c.adaptive = env_bool("TEMPEST_ADAPTIVE", c.adaptive);
  c.ring_events =
      static_cast<std::size_t>(env_long_or("TEMPEST_RING_EVENTS", 0, 0));
  c.ring_seconds = env_double_or("TEMPEST_RING_SECONDS", 0.0, check_ring_seconds);
  c.snapshot_signal =
      parse_signal(env_string("TEMPEST_SNAPSHOT_SIGNAL", ""));
  return c;
}

Status SessionConfig::check() const {
  for (const Status& in_range :
       {check_sample_hz(sample_hz), check_heartbeat_period(heartbeat_period_s),
        check_ring_seconds(ring_seconds), check_watchdog_budget(watchdog_budget)}) {
    if (!in_range) return in_range;
  }
  return Status::ok();
}

}  // namespace tempest::core
