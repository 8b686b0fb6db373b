// Collector daemon ingest throughput and per-session memory bound.
//
//   bench_collectd [--sessions N] [--pairs P] [--reps R] [--out PATH]
//                  [--allow-debug]
//
// Spins up an in-process Collector on a Unix-domain socket, then
// streams N concurrent synthetic sessions (default 48, the fleet gate
// is >= 32) through CollectClient: HELLO, HEARTBEAT, META, the records,
// BYE. Even sessions send SAMPLES ahead of EVENTS, as Session::stop
// does; odd ones send EVENTS first, as perfbench's collect senders do.
// The fleet runs at two session lengths, P and 4P call pairs (2P and 8P
// events per session), R reps each; each size reports its aggregate fold
// rate (events/s from first send to the last session folded, best of R
// reps).
//
// The memory gate is per session and does not grow with the session's
// length. The collector folds calls and time per function, so a
// session's fold is O(functions + open activations); everything else it
// holds is bounded by configuration: a connection's read buffer, the
// frame each sender is packing, and its share of the shard queues' byte
// cap. Peak RSS growth (VmHWM), divided by the session count, must stay
// under kPerSessionBudgetKb at both lengths. A fold that kept per-event
// state, such as activations parked for samples or raw frames, grows 4x
// from the first length to the second. Results land in
// BENCH_collectd.json with their provenance; SHAPE CHECK lines and the
// exit code assert the claims.
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

/// Peak RSS growth allowed per session: a 1 MiB read batch plus one
/// 1.5 MiB frame assembling on its connection, the 1.5 MiB frame its
/// sender is packing, and 2.7 MiB, its share of four shards' 32 MiB
/// queue caps at 48 sessions, rounded up.
constexpr std::int64_t kPerSessionBudgetKb = 8 * 1024;

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

/// Streams the shared trace as one session, samples ahead of events
/// (Session::stop's order) or behind them; returns false if any send
/// failed (a dead client would silently undercount the fold).
bool stream_one(const std::string& uds, const trace::Trace& t,
                std::uint64_t pid, bool samples_first) {
  collectd::CollectClient client;
  if (!client.connect("uds:" + uds, 10.0).is_ok()) return false;
  client.send_hello(pid, t.executable);
  client.send_heartbeat(
      "{\"t\":0.1,\"schema_version\":1,\"seq\":1,\"events_recorded\":1}");
  client.send_meta(t);
  if (samples_first) client.send_temp_samples(t.temp_samples.data(), t.temp_samples.size());
  client.send_fn_events(t.fn_events.data(), t.fn_events.size());
  if (!samples_first) client.send_temp_samples(t.temp_samples.data(), t.temp_samples.size());
  client.send_bye(t.fn_events.size(), t.temp_samples.size());
  const bool ok = client.alive();
  client.close();
  return ok;
}

/// One session length's outcome over every rep.
struct SizeResult {
  std::size_t pairs = 0;
  std::uint64_t events_per_session = 0;
  std::uint64_t total_events = 0;
  std::uint64_t folded = 0;  ///< last rep
  std::uint64_t aborted = 0;
  std::uint64_t send_failures = 0;  ///< all reps
  double best_wall = 1e300;
  std::int64_t rss_growth_kb = 0;  ///< peak since the baseline, after this size
  std::int64_t rss_per_session_kb = 0;

  double events_per_s() const {
    return best_wall < 1e300 ? static_cast<double>(total_events) / best_wall : 0.0;
  }
};

/// Stream `sessions` copies of `t` into a fresh collector, `reps` times.
/// Returns false when the collector cannot start.
bool run_fleet(const trace::Trace& t, std::size_t sessions, int reps,
               SizeResult* r) {
  r->events_per_session = t.fn_events.size();
  r->total_events = r->events_per_session * static_cast<std::uint64_t>(sessions);
  for (int rep = 0; rep < reps; ++rep) {
    collectd::CollectorOptions options;
    options.ingest_uds =
        "/tmp/tempest_bench_" + std::to_string(::getpid()) + ".sock";
    collectd::Collector collector(options);
    const Status started = collector.start();
    if (!started.is_ok()) {
      std::cerr << "error: " << started.message() << "\n";
      return false;
    }

    const double t0 = now_s();
    std::vector<std::thread> senders;
    std::atomic<std::uint64_t> failed{0};
    senders.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      senders.emplace_back([&, i] {
        if (!stream_one(options.ingest_uds, t, 1000 + i, i % 2 == 0)) {
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
    r->folded = fleet.sessions_folded;
    r->aborted = fleet.sessions_aborted;
    r->send_failures += failed.load(std::memory_order_relaxed);
    collector.stop();
    if (r->folded == sessions) r->best_wall = std::min(r->best_wall, wall);
  }
  return true;
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

  // Both lengths' traces exist before the baseline, so the growth is
  // the collector's and the senders', not the load generator's inputs.
  // Shorter sessions run first: VmHWM only rises, so the second reading
  // covers both lengths.
  std::vector<SizeResult> results(2);
  results[0].pairs = pairs;
  results[1].pairs = pairs * 4;
  const std::vector<trace::Trace> traces = {session_trace(results[0].pairs),
                                            session_trace(results[1].pairs)};
  const std::int64_t rss_before_kb = telemetry::read_peak_rss_kb();
  for (std::size_t i = 0; i < results.size(); ++i) {
    SizeResult& r = results[i];
    if (!run_fleet(traces[i], sessions, reps, &r)) return 2;
    r.rss_growth_kb = telemetry::read_peak_rss_kb() - rss_before_kb;
    r.rss_per_session_kb = r.rss_growth_kb / static_cast<std::int64_t>(sessions);
  }

  bool fleet_ok = sessions >= 32;
  bool rss_ok = true;
  std::printf("sessions             %zu concurrent, half of them events first\n",
              sessions);
  for (const SizeResult& r : results) {
    fleet_ok = fleet_ok && r.folded == sessions && r.send_failures == 0;
    rss_ok = rss_ok && r.rss_per_session_kb < kPerSessionBudgetKb;
    std::printf("events/session       %llu\n",
                static_cast<unsigned long long>(r.events_per_session));
    std::printf("  folded / aborted   %llu / %llu (last rep)\n",
                static_cast<unsigned long long>(r.folded),
                static_cast<unsigned long long>(r.aborted));
    std::printf("  best wall          %8.3f s\n",
                r.best_wall < 1e300 ? r.best_wall : -1.0);
    std::printf("  aggregate ingest   %8.2f Mevents/s\n", r.events_per_s() / 1e6);
    std::printf("  peak RSS growth    %8.1f MiB, %.2f MiB per session\n",
                static_cast<double>(r.rss_growth_kb) / 1024.0,
                static_cast<double>(r.rss_per_session_kb) / 1024.0);
  }
  shape_check("collector folds >= 32 concurrent sessions without loss, "
              "in both wire orders",
              fleet_ok);
  shape_check("peak RSS growth per session stays under " +
                  std::to_string(kPerSessionBudgetKb / 1024) +
                  " MiB at both session lengths",
              rss_ok);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"bench_collectd\",\n"
      << "  \"build_type\": \"" << bench_prov::kBuildType << "\",\n"
      << "  \"cores\": " << bench_prov::cores() << ",\n"
      << "  \"git_sha\": \"" << bench_prov::git_sha() << "\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"sessions\": " << sessions << ",\n"
      << "  \"events_first_sessions\": " << sessions / 2 << ",\n"
      << "  \"per_session_budget_kb\": " << kPerSessionBudgetKb << ",\n"
      << "  \"peak_rss_before_kb\": " << rss_before_kb << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    out << "    {\"event_pairs\": " << r.pairs
        << ", \"events_per_session\": " << r.events_per_session
        << ", \"total_events\": " << r.total_events
        << ", \"sessions_folded\": " << r.folded
        << ", \"sessions_aborted\": " << r.aborted
        << ", \"best_wall_s\": " << (r.best_wall < 1e300 ? r.best_wall : -1.0)
        << ", \"aggregate_events_per_s\": " << r.events_per_s()
        << ", \"peak_rss_growth_kb\": " << r.rss_growth_kb
        << ", \"peak_rss_growth_per_session_kb\": " << r.rss_per_session_kb << "}"
        << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  return (fleet_ok && rss_ok) ? 0 : 1;
}
