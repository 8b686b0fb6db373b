// Trend mode: per-function time series across many runs.
//
// tempest-collectd makes runs plentiful; the question shifts from "what
// changed between A and B" to "what is drifting". Trend mode walks an
// ordered list of trace files (or polls a live collector's /profile at
// an interval) and emits one JSONL series entry per run per surviving
// function — a shape `tempest-top`-style tailers and offline plotters
// consume without holding more than one line in memory.
//
// Schema (version 1): the first line is a header object
//   {"schema":"tempest-diff-trend","schema_version":1,"mode":...,"runs":N}
// and every following line one observation
//   {"run":i,"source":...,"function":...,"calls":...,"total_time_s":...,
//    "activations":...,"time_mean_s":...,"time_sdv_s":...}
// (poll mode adds "sessions" and omits activation stats the endpoint
// does not aggregate).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "diff/diff.hpp"

namespace tempest::diff {

struct TrendOptions {
  LoadOptions load;
  /// Keep only the top-N functions per run by total time (0 = all).
  std::size_t top = 0;
};

/// Analyze each trace in order and stream the series to `out`.
Status write_trend(const std::vector<std::string>& paths, std::ostream& out,
                   const TrendOptions& options);

struct PollOptions {
  std::string endpoint;    ///< collector spec ("uds:/path" | "host:port")
  double interval_s = 1.0; ///< in cli::check_seconds's range
  std::size_t count = 3;   ///< number of polls (runs in the series)
  std::size_t top = 0;     ///< /profile?top=N (0 = server default)
  double timeout_s = 5.0;
};

/// Poll a live collector's /profile `count` times, `interval_s` apart,
/// emitting the same series schema with mode "poll".
Status write_trend_poll(const PollOptions& options, std::ostream& out);

}  // namespace tempest::diff
