// Declarative command-line option parsing shared by the Tempest tools.
//
// Replaces each tool's hand-rolled argv loop, which silently treated
// unknown flags as trace paths and parsed "--top banana" as 0. Options
// register a handler; parse() walks argv once, rejects unknown options
// and missing/invalid values with an actionable Status (tools print it
// plus usage and exit 2), and collects the rest as positionals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace tempest::cli {

class ArgParser {
 public:
  /// `usage` is the option synopsis printed after "usage: <argv0> ".
  explicit ArgParser(std::string usage) : usage_(std::move(usage)) {}

  /// --name (no value).
  void add_flag(const std::string& name, std::function<void()> fn);

  /// --name VALUE; the handler may reject the value with an error
  /// Status, which parse() returns verbatim.
  void add_value(const std::string& name,
                 std::function<Status(const std::string&)> fn);

  /// --name [VALUE]: the next argv entry is consumed as the value only
  /// when present and not itself an option. The handler receives
  /// nullptr when the value was omitted.
  void add_optional_value(const std::string& name,
                          std::function<void(const std::string*)> fn);

  /// Walk argv. -h/--help set help_requested() and stop parsing (tools
  /// print usage and exit 2, the historical contract). Anything not
  /// starting with '-' is collected as a positional argument. Values
  /// attach either as the next argv entry or inline as --name=value;
  /// the inline form is an error for plain flags.
  Status parse(int argc, char** argv);

  const std::vector<std::string>& positional() const { return positional_; }
  bool help_requested() const { return help_; }

  void print_usage(std::ostream& os, const char* argv0) const;

 private:
  enum class Kind { kFlag, kValue, kOptionalValue };
  struct Option {
    std::string name;
    Kind kind = Kind::kFlag;
    std::function<void()> on_flag;
    std::function<Status(const std::string&)> on_value;
    std::function<void(const std::string*)> on_optional;
  };

  std::string usage_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

/// Strict non-negative integer parse: rejects empty, trailing garbage,
/// and overflow ("--top banana" must be an error, not 0).
Status parse_size(const std::string& value, std::size_t* out);

/// Strict finite-double parse with the same rejection rules; negative
/// values are accepted (callers range-check their own options).
Status parse_double(const std::string& value, double* out);

/// Longest duration a seconds-valued option takes (~31.7 years): clocks
/// and sleeps count int64 nanoseconds, which overflow past ~9.2e9 s.
inline constexpr double kMaxSeconds = 1e9;

/// The range of every seconds-valued option, from a command line or
/// code: finite, positive and at most kMaxSeconds.
Status check_seconds(double seconds);
/// parse_double, then check_seconds.
Status parse_seconds(const std::string& value, double* out);

/// Most workers a --threads option asks for; larger counts clamp to it.
inline constexpr std::size_t kMaxThreads = 1024;

/// A --threads value: parse_size, at least 1, clamped to kMaxThreads.
Status parse_threads(const std::string& value, unsigned* out);

/// Default worker count for --threads: TEMPEST_ANALYSIS_THREADS when
/// set to a positive value, else the hardware concurrency (minimum 1,
/// also the floor when the runtime cannot report a count). Shared by
/// every CLI that drives the parallel analysis pipeline so the env
/// override means the same thing everywhere.
unsigned default_analysis_threads();

/// Shared --version output: one line naming the tool, the trace format
/// version it reads/writes, and the build type it was compiled as.
/// Every Tempest CLI routes --version here so the fields stay aligned
/// across tools (scripts parse the "trace format v<N>" token to check
/// recorder/analyzer compatibility).
void print_version(std::ostream& os, const std::string& tool,
                   std::uint32_t trace_format_version);

}  // namespace tempest::cli
