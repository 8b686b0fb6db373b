// tempest-top: live view of a recording session's self-telemetry.
//
//   tempest-top [options] <trace file or .telemetry.jsonl>
//   tempest-top --connect HOST:PORT|uds:PATH [options]
//     --once                 render the latest snapshot and exit
//     --interval SECS        refresh period (default 1.0; a duration
//                            in seconds, 0 < SECS <= 1e9)
//     --no-clear             append frames instead of redrawing in place
//     --connect ENDPOINT     read snapshots from a tempest-collectd
//                            query plane (/top — the fleet aggregate of
//                            every session's latest heartbeat) instead
//                            of a local heartbeat file
//     --assert-tempd-below PCT
//                            exit 1 unless tempd CPU share of wall time
//                            in the latest snapshot is below PCT (CI
//                            uses this to enforce the paper's < 1%)
//     --version              print tool and trace-format version
//
// Reads the flat-JSON heartbeat lines a recording session appends to
// `<trace>.telemetry.jsonl` (TEMPEST_HEARTBEAT=SECS) and renders a
// refreshing terminal summary: event throughput, drops, probe cost,
// tempd cadence health, and the first sensors' latest readings. A bare
// trace path is resolved to its conventional heartbeat file.
//
// Exit codes: 0 ok, 1 assertion failed, 2 usage error or unreadable /
// empty heartbeat file.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "collectd/net.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/status.hpp"
#include "trace/writer.hpp"

namespace {

constexpr const char* kUsage =
    "[--once] [--interval SECS] [--no-clear] [--assert-tempd-below PCT] "
    "[--connect ENDPOINT] [--version] <trace file or .telemetry.jsonl>\n"
    "       SECS is a duration in seconds, 0 < SECS <= 1e9";

/// Last two complete snapshot lines of the heartbeat file (previous may
/// be empty when only one snapshot exists yet). Re-reads the whole
/// file: heartbeat files are one small line per period, so even a long
/// run is a few hundred KB — simplicity over seek bookkeeping.
///
/// The recorder appends while we read, so the final line is routinely
/// mid-write. Only lines that look like a whole flat JSON object
/// ('{'..'}') count; a truncated tail is skipped, not an error — the
/// next refresh will see it completed.
tempest::Status read_tail(const std::string& path, std::string* last,
                          std::string* previous) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return tempest::Status::error("cannot open heartbeat file '" + path +
                                  "' (record with TEMPEST_HEARTBEAT=SECS)");
  }
  last->clear();
  previous->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() != '{' || line.back() != '}') continue;
    *previous = *last;
    *last = line;
  }
  if (last->empty()) {
    return tempest::Status::error("heartbeat file '" + path +
                                  "' has no snapshots yet");
  }
  return tempest::Status::ok();
}

void render(const std::string& last_line, const std::string& previous_line,
            std::ostream& out) {
  const tempest::json::NumberFields last =
      tempest::json::read_numbers(last_line);
  const double t = last.get("t");
  const double events = last.get("events_recorded");
  const double dropped = last.get("events_dropped");
  const double threads = last.get("active_threads");
  const double tempd_cpu_s = last.get("tempd_cpu_us") / 1e6;
  const double cpu_share = t > 0.0 ? 100.0 * tempd_cpu_s / t : 0.0;

  // Throughput from the delta to the previous snapshot when one exists;
  // from the run average otherwise.
  double rate = t > 0.0 ? events / t : 0.0;
  if (!previous_line.empty()) {
    const tempest::json::NumberFields previous =
        tempest::json::read_numbers(previous_line);
    const double dt = t - previous.get("t");
    if (dt > 0.0) rate = (events - previous.get("events_recorded")) / dt;
  }

  char buf[256];
  std::snprintf(buf, sizeof(buf), "tempest-top  t=%.1fs  threads=%.0f", t,
                threads);
  out << buf << "\n";
  std::snprintf(buf, sizeof(buf),
                "  events   %12.0f   (%.0f/s)   dropped %.0f%s", events, rate,
                dropped, dropped > 0.0 ? "  <-- profile under-counts" : "");
  out << buf << "\n";
  // Admission pipeline counters (suppression filter / throttle / ring);
  // only rendered when the session actually rejected or recycled
  // something — a plain record-everything run keeps the old layout.
  const double suppressed = last.get("events_suppressed");
  const double throttled = last.get("events_throttled");
  const double overwritten = last.get("events_overwritten");
  const double snapshots = last.get("ring_snapshots");
  if (suppressed > 0.0 || throttled > 0.0 || overwritten > 0.0 ||
      snapshots > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  admission  suppressed %.0f   throttled %.0f   "
                  "ring-overwritten %.0f   snapshots %.0f",
                  suppressed, throttled, overwritten, snapshots);
    out << buf << "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "  probes   mean %.0f ns   max %.0f ns   (n=%.0f sampled)",
                last.get("probe_cost_ns_mean"),
                last.get("probe_cost_ns_max"),
                last.get("probe_cost_ns_count"));
  out << buf << "\n";
  std::snprintf(buf, sizeof(buf),
                "  tempd    %.0f ticks (%.0f missed)   %.0f samples   "
                "%.0f read errors   cpu %.2f%% of wall",
                last.get("tempd_ticks"),
                last.get("tempd_missed_ticks"),
                last.get("tempd_samples"),
                last.get("sensor_read_failures"), cpu_share);
  out << buf << "\n";
  std::snprintf(buf, sizeof(buf),
                "  cadence  jitter mean %.0f us  max %.0f us   sensor read "
                "mean %.0f us",
                last.get("cadence_jitter_us_mean"),
                last.get("cadence_jitter_us_max"),
                last.get("sensor_read_us_mean"));
  out << buf << "\n";

  std::string temps = "  temps   ";
  bool any = false;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "sensor_temp_" + std::to_string(i) + "_mc";
    const double mc = last.get(key, -1e9);
    if (mc <= -1e9 || mc == 0.0) continue;
    std::snprintf(buf, sizeof(buf), " s%d=%.1fC", i, mc / 1000.0);
    temps += buf;
    any = true;
  }
  if (any) out << temps << "\n";
  std::snprintf(buf, sizeof(buf),
                "  memory   peak rss %.0f KiB   buffer chunks %.0f   "
                "heartbeats %.0f",
                last.get("peak_rss_kb"),
                last.get("buffer_flushes"),
                last.get("heartbeats"));
  out << buf << "\n";

  // Export runs (tempest-export / tempest_parse --export) publish their
  // accounting through the same registry; show it when one happened.
  const double exported = last.get("export_events_exported");
  if (exported > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  export   %.0f events   %.0f spans dropped   %.0f bytes",
                  exported, last.get("export_spans_dropped"),
                  last.get("export_bytes_written"));
    out << buf << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using tempest::Status;

  bool once = false, no_clear = false;
  double interval_s = 1.0;
  double assert_below_pct = -1.0;

  tempest::cli::ArgParser args(kUsage);
  args.add_flag("--once", [&] { once = true; });
  args.add_flag("--no-clear", [&] { no_clear = true; });
  args.add_value("--interval", [&](const std::string& v) {
    return tempest::cli::parse_seconds(v, &interval_s);
  });
  args.add_value("--assert-tempd-below", [&](const std::string& v) {
    const Status st = tempest::cli::parse_double(v, &assert_below_pct);
    if (!st.is_ok()) return st;
    if (assert_below_pct < 0.0) {
      return Status::error("--assert-tempd-below must not be negative");
    }
    return Status::ok();
  });

  std::string connect;
  args.add_value("--connect", [&](const std::string& v) {
    if (v.empty()) return Status::error("--connect needs an endpoint");
    connect = v;
    return Status::ok();
  });

  bool version = false;
  args.add_flag("--version", [&] { version = true; });

  const Status parsed = args.parse(argc, argv);
  if (parsed.is_ok() && version) {
    tempest::cli::print_version(std::cout, "tempest-top",
                                tempest::trace::kTraceVersion);
    return 0;
  }
  const std::size_t want_positional = connect.empty() ? 1 : 0;
  if (!parsed.is_ok() || args.help_requested() ||
      args.positional().size() != want_positional) {
    if (!parsed.is_ok()) std::cerr << "error: " << parsed.message() << "\n";
    args.print_usage(std::cerr, argv[0]);
    return 2;
  }

  std::string path;
  if (connect.empty()) {
    path = args.positional()[0];
    const std::string suffix = ".telemetry.jsonl";
    if (path.size() < suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
      path += suffix;  // a trace path: resolve its conventional sidecar
    }
  }

  std::string last, previous;
  while (true) {
    if (connect.empty()) {
      const Status st = read_tail(path, &last, &previous);
      if (!st.is_ok()) {
        std::cerr << "error: " << st.message() << "\n";
        return 2;
      }
    } else {
      // Remote mode: /top is the collector's fleet aggregate in the
      // heartbeat line schema, so the render below is shared verbatim.
      // Rates come from the delta between successive fetches.
      auto fetched = tempest::collectd::http_get(connect, "/top", 2.0);
      if (!fetched.is_ok()) {
        // One actionable line naming the endpoint: CI wrappers grep
        // this and scripts branch on the nonzero exit.
        std::cerr << "error: collector at " << connect
                  << " unreachable or unhealthy: " << fetched.message() << "\n";
        return 2;
      }
      if (fetched.value() == "{}") {
        std::cerr << "error: collector at " << connect
                  << " has no session heartbeats yet\n";
        return 2;
      }
      previous = last;
      last = fetched.value();
    }
    if (!once && !no_clear) std::cout << "\x1b[2J\x1b[H";
    render(last, previous, std::cout);
    std::cout.flush();
    if (once) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }

  if (assert_below_pct >= 0.0) {
    const tempest::json::NumberFields snapshot =
        tempest::json::read_numbers(last);
    const double t = snapshot.get("t");
    const double share =
        t > 0.0 ? 100.0 * (snapshot.get("tempd_cpu_us") / 1e6) / t : 0.0;
    if (share >= assert_below_pct) {
      std::fprintf(stderr,
                   "ASSERT FAILED: tempd used %.3f%% of wall time "
                   "(budget %.3f%%)\n",
                   share, assert_below_pct);
      return 1;
    }
    std::fprintf(stdout, "tempd cpu share %.3f%% < %.3f%% budget: ok\n", share,
                 assert_below_pct);
  }
  return 0;
}
