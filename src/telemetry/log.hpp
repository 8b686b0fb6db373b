// Leveled structured logger with a bounded in-memory ring.
//
// The profiled process must never be chatty (it is someone else's
// program), so logging is opt-in by level: TEMPEST_LOG=error|warn|info|
// debug|off picks the stderr threshold (default warn). Every message —
// emitted or not — also lands in a fixed 256-entry ring, so a
// post-mortem (test, watchdog trip, debugger) can dump the recent
// history without the run having paid for stderr I/O.
//
// This is cold-path infrastructure: one mutex guards the ring and the
// stderr write. The instrumentation hot path never logs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tempest::telemetry {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

const char* log_level_name(LogLevel level);

struct LogEntry {
  double t_seconds = 0.0;  ///< since the logger's first use (steady clock)
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
};

class Logger {
 public:
  /// Process-wide logger (leaked; threshold read from TEMPEST_LOG once).
  static Logger& instance();

  /// True when `level` passes the stderr threshold. Callers building
  /// expensive messages should gate on this — the ring still only keeps
  /// what is actually logged.
  bool should_emit(LogLevel level) const;

  void log(LogLevel level, std::string_view component, std::string_view message);

  /// Oldest-first copy of the ring (bounded at kRingCapacity).
  std::vector<LogEntry> ring() const;

  /// Dump the ring to a stream, one logfmt line per entry.
  void dump_ring(std::ostream& out) const;

  /// Messages ever logged (ring keeps only the last kRingCapacity).
  std::uint64_t total_logged() const;

  void set_threshold(LogLevel level);      ///< tests / tools
  void set_sink(std::ostream* sink);       ///< tests; nullptr = stderr

  static constexpr std::size_t kRingCapacity = 256;

 private:
  Logger();
  struct Impl;
  Impl* impl_;  ///< leaked with the singleton
};

inline void log_error(std::string_view component, std::string_view message) {
  Logger::instance().log(LogLevel::kError, component, message);
}
inline void log_warn(std::string_view component, std::string_view message) {
  Logger::instance().log(LogLevel::kWarn, component, message);
}
inline void log_info(std::string_view component, std::string_view message) {
  Logger::instance().log(LogLevel::kInfo, component, message);
}
inline void log_debug(std::string_view component, std::string_view message) {
  Logger::instance().log(LogLevel::kDebug, component, message);
}

}  // namespace tempest::telemetry
