// §1 Q4 / §5 reproduction: using Tempest to profile and analyze the
// effect of a thermal optimization on a parallel application.
//
// The optimization is DVFS thermal throttling (hysteresis governor on
// the die temperature). Tempest answers the paper's question 4 — "what
// and where are the performance effects of thermal optimizations?" —
// by profiling the same BT run with the governor off (paper's pinned
// performance mode) and on, and comparing per-function times and
// per-sensor temperatures.
#include "bench_util.hpp"
#include "minimpi/runtime.hpp"
#include "npb/bt.hpp"

namespace {

struct RunOutcome {
  double elapsed_s = 0.0;
  double hottest_f = -1e300;   ///< max die-sensor reading, any node
  double adi_time_s = 0.0;     ///< inclusive adi time on node 1
  std::size_t throttle_events = 0;
};

RunOutcome run_bt(bool throttling) {
  auto cc = bench_util::paper_cluster(4, /*time_scale=*/50.0);
  if (throttling) {
    cc.governor.mode = tempest::thermal::GovernorMode::kThreshold;
    cc.governor.high_water_c = 43.0;
    cc.governor.low_water_c = 40.0;
  }
  tempest::simnode::Cluster cluster(cc);
  bench_util::register_cluster(cluster);
  bench_util::start_session(/*hz=*/8.0);

  npb::BtConfig config{24, 24, 24, 70, 0.005, /*kernel_events=*/false};
  npb::BtResult result;
  minimpi::RunOptions options;
  options.cluster = &cluster;
  options.net = minimpi::gige_network();
  minimpi::run(4, [&](minimpi::Comm& comm) { result = npb::bt_run(comm, config); },
               options);

  const auto analyzed = bench_util::stop_and_analyze();
  const auto& profile = analyzed.profile;
  const auto& series = analyzed.series;

  RunOutcome out;
  out.elapsed_s = result.elapsed_s;
  // sensor4 is the diode of the loaded core (ranks bind to core 0);
  // sensor5 sits on an idle core with a +5 C calibration offset and
  // would mask the governor's effect.
  for (std::uint16_t n = 0; n < 4; ++n) {
    out.hottest_f = std::max(out.hottest_f, bench_util::series_max(series, n, "sensor4"));
  }
  const auto* adi = profile.find(0, "adi");
  if (adi != nullptr) out.adi_time_s = adi->total_time_s;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    out.throttle_events += cluster.node(n).package().governor().throttle_events();
  }
  tempest::core::Session::instance().clear_nodes();
  return out;
}

}  // namespace

int main() {
  bench_util::banner(
      "Thermal-optimization analysis: BT with DVFS throttling, profiled by Tempest");

  const RunOutcome baseline = run_bt(false);
  const RunOutcome throttled = run_bt(true);

  std::printf("\n%-26s %12s %12s\n", "", "pinned-fmax", "dvfs-throttle");
  std::printf("%-26s %10.2f s %10.2f s\n", "BT elapsed", baseline.elapsed_s,
              throttled.elapsed_s);
  std::printf("%-26s %10.2f s %10.2f s\n", "adi inclusive (node 1)",
              baseline.adi_time_s, throttled.adi_time_s);
  std::printf("%-26s %11.1f F %11.1f F\n", "hottest die reading",
              baseline.hottest_f, throttled.hottest_f);
  std::printf("%-26s %12zu %12zu\n", "throttle events", baseline.throttle_events,
              throttled.throttle_events);
  std::printf("\npeak reduction: %.1f F; slowdown: %.0f%%\n",
              baseline.hottest_f - throttled.hottest_f,
              100.0 * (throttled.elapsed_s - baseline.elapsed_s) / baseline.elapsed_s);

  bench_util::shape_check("throttling engages (governor steps down under load)",
                          throttled.throttle_events > 0 &&
                              baseline.throttle_events == 0);
  bench_util::shape_check("the optimization reduces the peak temperature",
                          throttled.hottest_f < baseline.hottest_f - 1.0);
  bench_util::shape_check(
      "and Tempest localises the cost: the application (and its hot adi "
      "phase) runs measurably longer",
      throttled.elapsed_s > baseline.elapsed_s * 1.03 &&
          throttled.adi_time_s > baseline.adi_time_s * 1.03);
  return 0;
}
