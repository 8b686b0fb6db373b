// Client-side view of the collector's /profile endpoint.
//
// tempest-diff's --trend poll mode samples a live fleet rollup at an
// interval; rather than teach the diff layer HTTP and JSON, this small
// client owns both: fetch over the shared net plumbing, parse the
// /profile body into plain structs. The parser is tolerant of extra
// fields so older clients keep working as the endpoint grows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace tempest::collectd {

struct FleetProfileEntry {
  std::string name;
  std::uint64_t calls = 0;
  double total_time_s = 0.0;
  std::uint64_t sessions = 0;
  double time_mean_s = 0.0;  ///< 0 when the daemon predates time stats
  double time_var_s2 = 0.0;
};

struct FleetProfileView {
  std::uint64_t sessions_folded = 0;
  std::vector<FleetProfileEntry> functions;  ///< server order (time desc)
};

/// Parse a /profile response body.
Result<FleetProfileView> parse_fleet_profile(const std::string& body);

/// GET /profile?top=N from `endpoint` ("uds:/path" | "tcp:host:port" |
/// "host:port") and parse it. `top` 0 uses the server default.
Result<FleetProfileView> fetch_fleet_profile(const std::string& endpoint,
                                             std::size_t top,
                                             double timeout_s);

}  // namespace tempest::collectd
