#include "collectd/profile_client.hpp"

#include "collectd/net.hpp"
#include "common/json.hpp"

namespace tempest::collectd {

Result<FleetProfileView> parse_fleet_profile(const std::string& body) {
  FleetProfileView view;
  bool have_functions = false;
  json::Reader in(body);
  const bool ok = in.object([&](std::string_view key) {
    if (key == "sessions_folded") return in.number(&view.sessions_folded);
    if (key != "functions") return in.skip();
    have_functions = true;
    return in.array([&] {
      FleetProfileEntry& e = view.functions.emplace_back();
      return in.object([&](std::string_view field) {
        if (field == "name") return in.string(&e.name);
        if (field == "calls") return in.number(&e.calls);
        if (field == "total_time_s") return in.number(&e.total_time_s);
        if (field == "sessions") return in.number(&e.sessions);
        if (field == "time_mean_s") return in.number(&e.time_mean_s);
        if (field == "time_var_s2") return in.number(&e.time_var_s2);
        return in.skip();
      });
    });
  });
  if (!ok) return Result<FleetProfileView>::error("/profile body is malformed JSON");
  if (!have_functions) {
    return Result<FleetProfileView>::error("/profile body has no functions array");
  }
  return view;
}

Result<FleetProfileView> fetch_fleet_profile(const std::string& endpoint,
                                             std::size_t top,
                                             double timeout_s) {
  std::string target = "/profile";
  if (top > 0) target += "?top=" + std::to_string(top);
  auto body = http_get(endpoint, target, timeout_s);
  if (!body.is_ok()) return Result<FleetProfileView>::error(body.message());
  return parse_fleet_profile(body.value());
}

}  // namespace tempest::collectd
