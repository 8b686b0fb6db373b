#include "telemetry/log.hpp"

#include <chrono>
#include <iostream>
#include <mutex>
#include <ostream>

#include "common/env.hpp"

namespace tempest::telemetry {
namespace {

using clock = std::chrono::steady_clock;

LogLevel threshold_from_env() {
  const std::string v = env_string("TEMPEST_LOG", "warn");
  if (v == "off" || v == "none") return static_cast<LogLevel>(-1);
  if (v == "error") return LogLevel::kError;
  if (v == "info") return LogLevel::kInfo;
  if (v == "debug") return LogLevel::kDebug;
  return LogLevel::kWarn;
}

void write_logfmt(std::ostream& out, const LogEntry& e) {
  out << "tempest t=" << e.t_seconds << " level=" << log_level_name(e.level)
      << " comp=" << e.component << " msg=\"";
  for (const char c : e.message) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << "\"\n";
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

struct Logger::Impl {
  /// std::cerr constructed, however early the first message comes: a
  /// recorder started from a constructor function (auto_session) may
  /// log before any translation unit's own stream initialiser has run.
  std::ios_base::Init streams;
  /// The `t=` epoch, set when the logger is first used. A namespace-
  /// scope clock would read zero for a message logged before its own
  /// initialiser ran, stamping it with the host's uptime.
  const clock::time_point start = clock::now();
  mutable std::mutex mu;
  LogEntry ring[kRingCapacity];
  std::uint64_t next = 0;  ///< total entries ever logged
  LogLevel threshold = LogLevel::kWarn;
  std::ostream* sink = nullptr;  ///< nullptr = stderr
};

Logger::Logger() : impl_(new Impl()) {
  impl_->threshold = threshold_from_env();
}

Logger& Logger::instance() {
  static Logger* logger = new Logger();  // leaked: usable in static dtors
  return *logger;
}

bool Logger::should_emit(LogLevel level) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<int>(level) <= static_cast<int>(impl_->threshold);
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message) {
  LogEntry entry;
  entry.t_seconds = std::chrono::duration<double>(clock::now() - impl_->start).count();
  entry.level = level;
  entry.component.assign(component);
  entry.message.assign(message);

  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->ring[impl_->next % kRingCapacity] = entry;
  ++impl_->next;
  if (static_cast<int>(level) <= static_cast<int>(impl_->threshold)) {
    std::ostream& out = impl_->sink != nullptr ? *impl_->sink : std::cerr;
    write_logfmt(out, entry);
  }
}

std::vector<LogEntry> Logger::ring() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<LogEntry> out;
  const std::uint64_t total = impl_->next;
  const std::uint64_t kept = total < kRingCapacity ? total : kRingCapacity;
  out.reserve(kept);
  for (std::uint64_t i = total - kept; i < total; ++i) {
    out.push_back(impl_->ring[i % kRingCapacity]);
  }
  return out;
}

void Logger::dump_ring(std::ostream& out) const {
  for (const LogEntry& e : ring()) write_logfmt(out, e);
}

std::uint64_t Logger::total_logged() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->next;
}

void Logger::set_threshold(LogLevel level) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->threshold = level;
}

void Logger::set_sink(std::ostream* sink) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sink = sink;
}

}  // namespace tempest::telemetry
