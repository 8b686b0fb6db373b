// `record` workload: the profiled application, in-process.
//
// minimpi with 2 ranks runs NPB BT with per-cell kernel regions on (the
// paper's §3.3 "short life spans" case) on a simulated node sampled by
// tempd at 4 Hz. Each pair runs the same problem uninstrumented and
// under a Session, back to back; --first picks which goes first. One
// process runs one pair after a verified warm-up run, so its peak RSS
// covers a fixed amount of work. The session leg is timed from
// Session::start until write_trace_file has put take_trace() on disk.
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/session.hpp"
#include "minimpi/runtime.hpp"
#include "npb/bt.hpp"
#include "simnode/cluster.hpp"
#include "trace/writer.hpp"

namespace perfbench {

namespace {

// BT 24^3 for 16 steps with kernel events records ~4M events per
// session (~100 MB in memory at 24 bytes per FnEvent).
constexpr int kGrid = 24;
constexpr int kIters = 16;
constexpr int kRanks = 2;
constexpr double kSampleHz = 4.0;

bool same_result(const npb::BtResult& got, const npb::BtResult& want) {
  if (got.rhs_norms.size() != want.rhs_norms.size()) return false;
  for (std::size_t i = 0; i < got.rhs_norms.size(); ++i) {
    if (!npb::close_rel(got.rhs_norms[i], want.rhs_norms[i], 1e-8)) return false;
  }
  return npb::close_rel(got.final_error, want.final_error, 1e-8);
}

}  // namespace

int run_record(const Args& args) {
  namespace core = tempest::core;
  namespace telemetry = tempest::telemetry;
  const std::uint64_t seed = args.u64("seed", 1);
  const bool base_first = args.str("first", "base") == "base";
  const bool traced = args.u64("trace", 0) != 0;
  const std::string work = args.str("work", ".");
  const double hz = kSampleHz;

  Tracer tracer(traced, seed);

  tempest::simnode::ClusterConfig cc;
  cc.nodes = 1;
  cc.kind = tempest::simnode::NodeKind::kX86Basic;
  cc.seed = seed;
  cc.time_scale = 25.0;
  tempest::simnode::Cluster cluster(cc);
  core::Session& session = core::Session::instance();
  session.clear_nodes();
  session.register_sim_node(&cluster.node(0));
  minimpi::RunOptions options;
  options.cluster = &cluster;

  const npb::BtConfig bt{kGrid, kGrid, kGrid, kIters, 0.006, true};
  auto run_bt = [&] {
    npb::BtResult result;
    minimpi::run(
        kRanks,
        [&](minimpi::Comm& comm) {
          npb::BtResult r = npb::bt_run(comm, bt);
          if (comm.rank() == 0) result = std::move(r);
        },
        options);
    return result;
  };

  std::uint64_t app_runs = 0, app_failed = 0, checks = 0, checks_failed = 0;
  std::vector<std::string> failures;
  auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++checks_failed;
      failures.push_back(what);
    }
  };

  // Warm-up run, verified against the serial solver once; every later
  // run must reproduce it.
  const npb::BtResult reference = run_bt();
  const npb::VerifyResult verified = npb::bt_verify(reference, bt);
  check(verified.passed, "BT self-verification: " + verified.detail);

  const std::string trace_path = work + "/record.trace";

  double base = 0.0;
  auto base_leg = [&] {
    const double t0 = now_s();
    const npb::BtResult r = run_bt();
    base = now_s() - t0;
    ++app_runs;
    if (!same_result(r, reference)) ++app_failed;
  };

  double t_start = 0.0, t_app = 0.0, t_stop = 0.0, t_write = 0.0, wall = 0.0;
  tempest::trace::Trace trace;
  bool leg_ok = true;
  auto session_leg = [&] {
    core::SessionConfig config;
    config.sample_hz = hz;
    config.bind_affinity = false;
    config.auto_report = false;
    const auto pair_span = tracer.span("record.session");
    const double t0 = now_s();
    {
      const auto span = tracer.span("core.start");
      leg_ok = session.start(config).is_ok();
    }
    const double t1 = now_s();
    npb::BtResult r;
    {
      const auto span = tracer.span("app.bt");
      r = run_bt();
    }
    const double t2 = now_s();
    {
      const auto span = tracer.span("core.stop");
      leg_ok = session.stop().is_ok() && leg_ok;
    }
    const double t3 = now_s();
    {
      const auto span = tracer.span("trace.write");
      trace = session.take_trace();
      leg_ok = tempest::trace::write_trace_file(trace_path, trace).is_ok() &&
               leg_ok;
    }
    const double t4 = now_s();
    t_start = t1 - t0;
    t_app = t2 - t1;
    t_stop = t3 - t2;
    t_write = t4 - t3;
    wall = t4 - t0;
    ++app_runs;
    if (!leg_ok || !same_result(r, reference)) ++app_failed;
  };

  if (base_first) {
    base_leg();
    session_leg();
  } else {
    session_leg();
    base_leg();
  }

  const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
  const tempest::trace::RunStats& rs = trace.run_stats;
  check(rs.present && rs.events_recorded == trace.fn_events.size(),
        "RUNSTATS events_recorded matches the trace's events");
  check(rs.calls_observed == rs.events_recorded + rs.events_dropped +
                                 rs.events_suppressed + rs.events_throttled +
                                 rs.events_overwritten,
        "RUNSTATS calls_observed = recorded + counted drops");
  const double expected_ticks = rs.wall_seconds * hz;
  check(std::abs(static_cast<double>(rs.tempd_ticks + rs.tempd_missed_ticks) -
                 expected_ticks) <= 2.0 &&
            rs.tempd_samples <= rs.tempd_ticks * trace.sensors.size(),
        "tempd ticks + misses conserved over the session wall time");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(trace_path, ec);
  std::filesystem::remove(trace_path, ec);
  tracer.counter("core.events_recorded", static_cast<double>(rs.events_recorded));
  tracer.counter("core.buffer_flushes",
                 static_cast<double>(snap.counter(telemetry::Counter::kBufferFlushes)));

  session.clear_nodes();

  const double n_events = static_cast<double>(rs.events_recorded);
  JsonLine sizes;
  sizes.num("bt_grid", kGrid);
  sizes.num("bt_iters", kIters);
  sizes.num("ranks", kRanks);
  sizes.num("sample_hz", kSampleHz);
  JsonLine out;
  out.raw("sizes", sizes.done());
  out.num("app_runs", static_cast<double>(app_runs));
  out.num("app_failed", static_cast<double>(app_failed));
  out.num("checks", static_cast<double>(checks));
  out.num("checks_failed", static_cast<double>(checks_failed));
  out.num("base_s", base);
  out.num("app_s", t_app);
  out.num("wall_s", wall);
  out.num("start_s", t_start);
  out.num("stop_s", t_stop);
  out.num("write_s", t_write);
  out.num("write_bytes", static_cast<double>(bytes));
  out.num("events", n_events);
  out.num("hook_ns_per_event", n_events > 0 ? (t_app - base) / n_events * 1e9 : 0.0);
  out.num("overhead_pct", 100.0 * (wall - base) / base);
  out.num("probe_cost_ns_p50",
          histogram_p50(snap.histogram(telemetry::Histogram::kProbeCostNs),
                        telemetry::Histogram::kProbeCostNs));
  out.num("buffer_flushes",
          static_cast<double>(snap.counter(telemetry::Counter::kBufferFlushes)));
  out.num("tempd_cpu_s", rs.tempd_cpu_seconds);
  out.num("tempd_ticks", static_cast<double>(rs.tempd_ticks));
  out.num("tempd_missed_ticks", static_cast<double>(rs.tempd_missed_ticks));
  out.num("peak_rss_mib", peak_rss_mib_self());
  out.raw("failures", json_strings(failures));
  if (traced) {
    out.raw("spans", json_span_totals(tracer));
    const std::string spans_path = args.str("spans");
    if (!spans_path.empty()) write_file(spans_path, tracer.chrome_events_json());
  }
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace perfbench
