// Collector daemon ingest throughput and memory bound.
//
//   bench_collectd [--sessions N] [--pairs P] [--reps R] [--out PATH]
//                  [--allow-debug]
//
// Spins up an in-process Collector on a Unix-domain socket, then
// streams N concurrent synthetic sessions (default 48, the fleet gate
// is >= 32) of 2*P function events each through CollectClient — the
// exact recording-side stop() sequence: HELLO, HEARTBEAT, META, EVENTS,
// SAMPLES, BYE. Reports the aggregate fold rate (events/s from first
// send to the last session folded, best of R reps) and gates peak RSS:
// the collector folds incrementally through AnalysisPipeline, so
// process memory growth must stay well below the total bytes streamed
// (no full-trace buffering). Results land in BENCH_collectd.json;
// SHAPE CHECK lines and the exit code assert the claims.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_provenance.hpp"
#include "collectd/client.hpp"
#include "collectd/collector.hpp"
#include "common/cli.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace.hpp"

namespace {

using namespace tempest;
namespace collectd = tempest::collectd;

void shape_check(const std::string& claim, bool ok) {
  std::cout << "SHAPE CHECK [" << (ok ? "ok" : "MISMATCH") << "] " << claim
            << "\n";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One synthetic sealed session, shared read-only by every sender so
/// the bench's own buffers stay ~one session, not N — the RSS gate
/// then measures collector-side state, not the load generator.
trace::Trace session_trace(std::size_t pairs) {
  trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "fleet_bench";
  t.nodes = {{0, "bench_host"}};
  t.sensors = {{0, 0, "cpu", 0.0}};
  t.threads = {{0, 0, 0}};
  const std::uint64_t kA = trace::kSyntheticAddrBase + 1;
  const std::uint64_t kB = trace::kSyntheticAddrBase + 2;
  t.synthetic_symbols = {{kA, "bench_hot"}, {kB, "bench_warm"}};
  t.fn_events.reserve(pairs * 2);
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::uint64_t at = 1000 + p * 1000;
    const std::uint64_t fn = (p % 2 == 0) ? kA : kB;
    t.fn_events.push_back({at, fn, 0, 0, trace::FnEventKind::kEnter});
    t.fn_events.push_back({at + 400, fn, 0, 0, trace::FnEventKind::kExit});
  }
  for (std::size_t s = 0; s < pairs / 16 + 1; ++s) {
    t.temp_samples.push_back({1000 + s * 16000, 42.0 + s * 0.01, 0, 0});
  }
  t.run_stats.present = true;
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.calls_observed = t.fn_events.size();
  t.run_stats.tempd_samples = t.temp_samples.size();
  t.run_stats.threads_registered = 1;
  t.run_stats.wall_seconds = 0.5;
  return t;
}

/// Streams the shared trace as one session, in Session::stop's order
/// (samples ahead of events); returns false if any send failed (a dead
/// client would silently undercount the fold).
bool stream_one(const std::string& uds, const trace::Trace& t,
                std::uint64_t pid) {
  collectd::CollectClient client;
  if (!client.connect("uds:" + uds, 10.0).is_ok()) return false;
  client.send_hello(pid, t.executable);
  client.send_heartbeat(
      "{\"t\":0.1,\"schema_version\":1,\"seq\":1,\"events_recorded\":1}");
  client.send_meta(t);
  client.send_temp_samples(t.temp_samples.data(), t.temp_samples.size());
  client.send_fn_events(t.fn_events.data(), t.fn_events.size());
  client.send_bye(t.fn_events.size(), t.temp_samples.size());
  const bool ok = client.alive();
  client.close();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 48;
  std::size_t pairs = 200'000;
  int reps = 3;
  std::string out_path = "BENCH_collectd.json";
  bool allow_debug = false;

  cli::ArgParser args(
      "[--sessions N] [--pairs P] [--reps R] [--out PATH] [--allow-debug]");
  args.add_value("--sessions", [&](const std::string& v) {
    return cli::parse_size(v, &sessions);
  });
  args.add_value("--pairs", [&](const std::string& v) {
    return cli::parse_size(v, &pairs);
  });
  args.add_value("--reps", [&](const std::string& v) {
    std::size_t r = 0;
    auto st = cli::parse_size(v, &r);
    if (st.is_ok()) reps = static_cast<int>(r == 0 ? 1 : r);
    return st;
  });
  args.add_value("--out", [&](const std::string& v) {
    out_path = v;
    return Status::ok();
  });
  args.add_flag("--allow-debug", [&] { allow_debug = true; });
  const auto parsed = args.parse(argc, argv);
  if (!parsed.is_ok() || args.help_requested()) {
    if (!parsed.is_ok()) std::cerr << "error: " << parsed.message() << "\n";
    args.print_usage(std::cerr, argv[0]);
    return 2;
  }
  if (!bench_prov::check_build("bench_collectd", allow_debug)) return 2;

  // The hammer would log one warn per backpressure pause; not news here.
  telemetry::Logger::instance().set_threshold(telemetry::LogLevel::kError);

  const trace::Trace t = session_trace(pairs);
  const std::uint64_t events_per_session = t.fn_events.size();
  const std::uint64_t total_events =
      events_per_session * static_cast<std::uint64_t>(sessions);

  telemetry::metrics().reset();
  const std::int64_t rss_before_kb = telemetry::read_peak_rss_kb();

  double best_wall = 1e300;
  std::uint64_t folded = 0, aborted = 0, send_failures = 0;
  for (int r = 0; r < reps; ++r) {
    collectd::CollectorOptions options;
    options.ingest_uds =
        "/tmp/tempest_bench_" + std::to_string(::getpid()) + ".sock";
    collectd::Collector collector(options);
    const Status started = collector.start();
    if (!started.is_ok()) {
      std::cerr << "error: " << started.message() << "\n";
      return 2;
    }

    const double t0 = now_s();
    std::vector<std::thread> senders;
    std::atomic<std::uint64_t> failed{0};
    senders.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      senders.emplace_back([&, i] {
        if (!stream_one(options.ingest_uds, t, 1000 + i)) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& s : senders) s.join();
    // Fold completion, not just send completion: the shards may still
    // be draining queued frames after the last sender exits.
    const double deadline = now_s() + 120.0;
    while (now_s() < deadline) {
      const auto fleet = collector.fleet();
      if (fleet.sessions_folded + fleet.sessions_aborted >= sessions) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double wall = now_s() - t0;
    const auto fleet = collector.fleet();
    folded = fleet.sessions_folded;
    aborted = fleet.sessions_aborted;
    send_failures += failed.load(std::memory_order_relaxed);
    collector.stop();
    if (folded == sessions) best_wall = std::min(best_wall, wall);
  }

  const std::int64_t rss_after_kb = telemetry::read_peak_rss_kb();
  const std::int64_t rss_delta_kb = rss_after_kb - rss_before_kb;
  const std::uint64_t stream_bytes = telemetry::metrics().snapshot().counter(
      telemetry::Counter::kStreamBytesSent);
  const double events_per_s =
      best_wall < 1e300 ? static_cast<double>(total_events) / best_wall : 0.0;

  std::printf("sessions             %zu concurrent\n", sessions);
  std::printf("events/session       %llu\n",
              static_cast<unsigned long long>(events_per_session));
  std::printf("folded / aborted     %llu / %llu (last rep)\n",
              static_cast<unsigned long long>(folded),
              static_cast<unsigned long long>(aborted));
  std::printf("best wall            %8.3f s\n",
              best_wall < 1e300 ? best_wall : -1.0);
  std::printf("aggregate ingest     %8.2f Mevents/s\n", events_per_s / 1e6);
  std::printf("bytes streamed       %8.1f MiB (all reps)\n",
              static_cast<double>(stream_bytes) / (1 << 20));
  std::printf("peak RSS growth      %8.1f MiB\n",
              static_cast<double>(rss_delta_kb) / 1024.0);

  // The memory claim: the collector never buffers raw traces. Live
  // per-session state is the analysis fold itself — timeline intervals
  // are O(calls), inherent to sample attribution, and this synthetic
  // workload is its worst case (alternating functions, nothing
  // coalesces) — plus bounded shard queues and parse buffers. So peak
  // RSS growth must stay under HALF the bytes streamed across all reps
  // (with a fixed 256 MiB floor for small runs): cumulative buffering
  // across reps, or raw-trace buffering within one, lands well above.
  const double rss_budget_bytes =
      std::max(256.0 * (1 << 20), 0.5 * static_cast<double>(stream_bytes));
  const bool fleet_ok = sessions >= 32 && folded == sessions &&
                        send_failures == 0;
  const bool rss_ok =
      static_cast<double>(rss_delta_kb) * 1024.0 < rss_budget_bytes;
  shape_check("collector folds >= 32 concurrent sessions without loss",
              fleet_ok);
  shape_check("peak RSS growth stays under half the streamed volume",
              rss_ok);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"build_type\": \"" << bench_prov::kBuildType << "\",\n"
      << "  \"sessions\": " << sessions << ",\n"
      << "  \"event_pairs\": " << pairs << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"events_per_session\": " << events_per_session << ",\n"
      << "  \"total_events\": " << total_events << ",\n"
      << "  \"sessions_folded\": " << folded << ",\n"
      << "  \"sessions_aborted\": " << aborted << ",\n"
      << "  \"best_wall_s\": " << (best_wall < 1e300 ? best_wall : -1.0)
      << ",\n"
      << "  \"aggregate_events_per_s\": " << events_per_s << ",\n"
      << "  \"stream_bytes_all_reps\": " << stream_bytes << ",\n"
      << "  \"peak_rss_before_kb\": " << rss_before_kb << ",\n"
      << "  \"peak_rss_after_kb\": " << rss_after_kb << ",\n"
      << "  \"peak_rss_delta_kb\": " << rss_delta_kb << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  return (fleet_ok && rss_ok) ? 0 : 1;
}
