// Figure 4: thermal profile of the NAS BT benchmark, NP=4, per node.
//
// The paper's findings: BT "performs several tasks followed by a
// synchronization event" about 1.5 s into the run; at the event all
// nodes see a dramatic temperature rise (increased computation), and
// the nodes spread: 1 and 4 jump above 105 F, node 2 stays below, node
// 3 runs above 110 F.
#include "bench_util.hpp"
#include "minimpi/runtime.hpp"
#include "npb/bt.hpp"

int main() {
  bench_util::banner("Figure 4 reproduction: BT thermal profile (NP=4)");

  auto cc = bench_util::paper_cluster(4, /*time_scale=*/35.0);
  tempest::simnode::Cluster cluster(cc);
  bench_util::register_cluster(cluster);
  bench_util::start_session(/*hz=*/4.0);

  // "Several tasks" before the synchronisation event: a setup phase of
  // mostly idle staging (input distribution, mesh setup) for ~1.5 s,
  // then the barrier inside bt_run releases all ranks into the
  // compute-heavy ADI iterations together.
  npb::BtConfig config{32, 32, 32, 26, 0.004, /*kernel_events=*/false};
  npb::BtResult result;
  minimpi::RunOptions options;
  options.cluster = &cluster;
  options.net = minimpi::gige_network();
  double sync_event_s = 0.0;
  minimpi::run(4, [&](minimpi::Comm& comm) {
    {
      tempest::ScopedRegion setup("setup_phase");
      auto& placement = comm.world().placement(comm.rank());
      // Staggered light staging: short compute bursts between waits.
      for (int burst = 0; burst < 5; ++burst) {
        tempest::core::Workbench bench(placement.node, placement.node_id,
                                       placement.core);
        bench.burn(0.05);
        bench.idle(0.20 + 0.02 * comm.rank());
      }
    }
    if (comm.rank() == 0) sync_event_s = comm.wtime();
    result = bt_run(comm, config);
  }, options);

  const auto series = bench_util::stop_and_analyze({"adi"}).series;

  std::cout << "BT " << config.nx << "^3, " << config.niter
            << " iterations, elapsed " << result.elapsed_s
            << " s; synchronization event at ~" << sync_event_s
            << " s; final error " << result.final_error << "\n\n";

  tempest::report::PlotOptions plot;
  plot.sensor_filter = "sensor4";
  plot.height = 9;
  tempest::report::plot_series(std::cout, series, plot);

  // Per-node pre/post-sync averages and maxima of the die sensor.
  std::cout << "Per-node die sensor, before vs after the sync event (F):\n";
  std::vector<double> pre(4, 0.0), post(4, 0.0), peak(4, -1e300);
  for (const auto& s : series.sensors) {
    if (s.sensor_name != "sensor4" || s.node_id >= 4) continue;
    tempest::SampleSet before, after;
    for (const auto& p : s.points) {
      (p.time_s < sync_event_s ? before : after).add(p.temp);
      peak[s.node_id] = std::max(peak[s.node_id], p.temp);
    }
    pre[s.node_id] = before.empty() ? 0.0 : before.summarize().avg;
    post[s.node_id] = after.empty() ? 0.0 : after.summarize().avg;
    std::printf("  node%u: pre-sync avg %.1f   post-sync avg %.1f   peak %.1f\n",
                s.node_id + 1, pre[s.node_id], post[s.node_id], peak[s.node_id]);
  }

  bool all_rise = true;
  for (int n = 0; n < 4; ++n) all_rise &= post[n] > pre[n] + 2.0;
  bench_util::shape_check(
      "at the synchronization event ALL nodes see a dramatic rise", all_rise);

  const double hottest = *std::max_element(peak.begin(), peak.end());
  const double coolest = *std::min_element(peak.begin(), peak.end());
  bench_util::shape_check(
      "some nodes run hotter than others (peak spread > 2 F)",
      hottest > coolest + 2.0);
  bench_util::shape_check("the hottest node exceeds 105 F under BT compute",
                          hottest > 105.0);

  // BT is compute-bound: unlike FT, dies approach the busy ceiling.
  bench_util::shape_check("BT runs hot relative to FT's communication-bound profile",
                          hottest > 112.0);

  tempest::core::Session::instance().clear_nodes();
  return 0;
}
