// Figure 3: thermal profile of the NAS FT benchmark, NP=4, per node.
//
// The paper's findings: FT spends ~50% of its time in all-to-all
// communication and was expected to run cool; the thermal profiles show
// no clear system-wide trend — some nodes warm steadily, others sit
// volatile around a lower average — despite regular power behaviour.
#include "bench_util.hpp"
#include "minimpi/runtime.hpp"
#include "npb/ft.hpp"

int main() {
  bench_util::banner("Figure 3 reproduction: FT thermal profile (NP=4)");

  auto cc = bench_util::paper_cluster(4, /*time_scale=*/30.0);
  tempest::simnode::Cluster cluster(cc);
  bench_util::register_cluster(cluster);
  bench_util::start_session(/*hz=*/4.0);

  // FT sized so the run takes several seconds of wall time: the
  // communication/computation duty cycle, not the class size, is what
  // shapes the thermals.
  npb::FtConfig config{64, 64, 64, 180};
  npb::FtResult result;
  minimpi::RunOptions options;
  options.cluster = &cluster;
  options.net = minimpi::gige_network();  // the all-to-all crosses real wires
  minimpi::run(4, [&](minimpi::Comm& comm) { result = npb::ft_run(comm, config); },
               options);

  const auto analyzed = bench_util::stop_and_analyze();
  const auto& profile = analyzed.profile;
  const auto& series = analyzed.series;

  std::cout << "FT " << config.nx << "x" << config.ny << "x" << config.nz << ", "
            << config.niter << " iterations, elapsed " << result.elapsed_s
            << " s, final checksum " << result.checksums.back().real() << "+"
            << result.checksums.back().imag() << "i\n\n";

  // The stacked per-node charts of Figure 3 (CPU die sensor).
  tempest::report::PlotOptions plot;
  plot.sensor_filter = "sensor4";  // core 0 diode in the Opteron layout
  plot.height = 9;
  tempest::report::plot_series(std::cout, series, plot);

  // Per-node summary: average and spread of the die sensor.
  std::cout << "Per-node die-sensor summary (F):\n";
  std::vector<double> node_avg(4, 0.0), node_max(4, -1e300), node_min(4, 1e300);
  std::vector<double> node_sdv(4, 0.0);
  for (const auto& s : series.sensors) {
    if (s.sensor_name != "sensor4" || s.node_id >= 4) continue;
    tempest::SampleSet set;
    for (const auto& p : s.points) set.add(p.temp);
    const auto sum = set.summarize();
    node_avg[s.node_id] = sum.avg;
    node_max[s.node_id] = sum.max;
    node_min[s.node_id] = sum.min;
    node_sdv[s.node_id] = sum.sdv;
    std::printf("  node%u: min %.1f avg %.1f max %.1f sdv %.2f\n", s.node_id + 1,
                sum.min, sum.avg, sum.max, sum.sdv);
  }

  // Shape checks against the paper's qualitative Figure 3 claims.
  double spread = 0.0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) spread = std::max(spread, node_avg[a] - node_avg[b]);
  }
  bench_util::shape_check(
      "thermals vary between nodes under the same load (avg spread > 1.5 F)",
      spread > 1.5);

  // Communication-bound: FT's die temperatures stay well below the
  // fully-busy saturation point (~124 F at these package parameters).
  double hottest = *std::max_element(node_max.begin(), node_max.end());
  bench_util::shape_check(
      "FT runs cool: hottest die stays below the compute-bound ceiling",
      hottest < 122.0);

  // "No clear system-wide trends": per-node variability differs — the
  // most volatile node swings more than the calmest (the paper's
  // volatile-around-a-lower-average vs steadily-warming split).
  const double max_sdv = *std::max_element(node_sdv.begin(), node_sdv.end());
  const double min_sdv = *std::min_element(node_sdv.begin(), node_sdv.end());
  bench_util::shape_check("node behaviours differ (volatile vs steady)",
                          max_sdv > 1.08 * min_sdv);

  // Communication fraction: transpose (the all-to-all) is a first-order
  // share of the run, as in "FT spends 50% of its time in all-to-all".
  double transpose_s = 0.0, ft_s = 0.0;
  for (const auto& node : profile.nodes) {
    for (const auto& fn : node.functions) {
      if (fn.name == "transpose") transpose_s += fn.total_time_s;
      if (fn.name == "ft_run") ft_s += fn.total_time_s;
    }
  }
  std::printf("\ntranspose/ft_run inclusive time: %.0f%%\n",
              100.0 * transpose_s / ft_s);
  bench_util::shape_check("all-to-all transpose is a major share (> 25%)",
                          transpose_s > 0.25 * ft_s);

  tempest::core::Session::instance().clear_nodes();
  return 0;
}
