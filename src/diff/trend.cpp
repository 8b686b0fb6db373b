#include "diff/trend.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <thread>

#include "collectd/profile_client.hpp"
#include "common/cli.hpp"
#include "common/fastwrite.hpp"
#include "common/json.hpp"

namespace tempest::diff {
namespace {

void append_time(std::string& out, double v) {
  fastwrite::append_fixed(out, v, 9);
}

void write_header(std::ostream& out, const char* mode, std::size_t runs) {
  std::string buf = "{\"schema\":\"tempest-diff-trend\",\"schema_version\":1,";
  buf += "\"mode\":\"";
  buf += mode;
  buf += "\",\"runs\":";
  fastwrite::append_u64(buf, runs);
  buf += "}\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_entry(std::ostream& out, std::size_t run, const std::string& source,
                 const std::string& function, std::uint64_t calls,
                 double total_time_s, const parser::TimeStats* time,
                 const std::uint64_t* sessions) {
  std::string buf = "{\"run\":";
  fastwrite::append_u64(buf, run);
  buf += ",\"source\":";
  json::append_json_string(&buf, source);
  buf += ",\"function\":";
  json::append_json_string(&buf, function);
  buf += ",\"calls\":";
  fastwrite::append_u64(buf, calls);
  buf += ",\"total_time_s\":";
  append_time(buf, total_time_s);
  if (time != nullptr) {
    buf += ",\"activations\":";
    fastwrite::append_u64(buf, time->count);
    buf += ",\"time_mean_s\":";
    append_time(buf, time->mean_s);
    buf += ",\"time_sdv_s\":";
    append_time(buf, time->sdv_s);
  }
  if (sessions != nullptr) {
    buf += ",\"sessions\":";
    fastwrite::append_u64(buf, *sessions);
  }
  buf += "}\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace

Status write_trend(const std::vector<std::string>& paths, std::ostream& out,
                   const TrendOptions& options) {
  if (paths.size() < 2) {
    return Status::error("trend mode needs at least 2 runs");
  }
  write_header(out, "files", paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto run = load_run(paths[i], options.load);
    if (!run.is_ok()) return Status::error(run.message());
    // Pooled across nodes the way the diff aligns a run, so the series
    // keys match `tempest-diff` output keys.
    const Pool pool = pool_profile(run.value().profile, false);
    std::vector<std::pair<const std::string*, FunctionSide>> ordered;
    ordered.reserve(pool.size());
    for (const auto& [key, pooled] : pool) {
      ordered.emplace_back(&key.second, side_from(pooled));
    }
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      if (a.second.total_time_s != b.second.total_time_s) {
        return a.second.total_time_s > b.second.total_time_s;
      }
      return *a.first < *b.first;
    });
    if (options.top > 0 && ordered.size() > options.top) {
      ordered.resize(options.top);
    }
    for (const auto& [key, side] : ordered) {
      write_entry(out, i, paths[i], *key, side.calls, side.total_time_s,
                  &side.time, nullptr);
    }
  }
  return Status::ok();
}

Status write_trend_poll(const PollOptions& options, std::ostream& out) {
  if (options.count < 1) return Status::error("poll count must be at least 1");
  const Status interval = cli::check_seconds(options.interval_s);
  if (!interval) return Status::error("poll interval: " + interval.message());
  write_header(out, "poll", options.count);
  for (std::size_t i = 0; i < options.count; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.interval_s));
    }
    auto view = collectd::fetch_fleet_profile(options.endpoint, options.top,
                                              options.timeout_s);
    if (!view.is_ok()) return Status::error(view.message());
    for (const auto& fn : view.value().functions) {
      write_entry(out, i, options.endpoint, fn.name, fn.calls, fn.total_time_s,
                  nullptr, &fn.sessions);
    }
    out.flush();  // tailers read poll mode live
  }
  return Status::ok();
}

}  // namespace tempest::diff
