// Table 3: partial Tempest functional profile of the BT benchmark,
// NP=4 — the paper prints adi_, matvec_sub and matmul_sub with
// six-sensor statistics. This run keeps the per-cell kernel
// instrumentation ON so those short-lived functions appear with real
// accumulated time (the paper's adi 6.32 s / matvec_sub 4.08 s /
// matmul_sub 3.80 s ordering).
#include "bench_util.hpp"
#include "minimpi/runtime.hpp"
#include "npb/bt.hpp"

int main() {
  bench_util::banner(
      "Table 3 reproduction: partial BT functional profile (NP=4, one node)");

  auto cc = bench_util::paper_cluster(4, /*time_scale=*/30.0);
  tempest::simnode::Cluster cluster(cc);
  bench_util::register_cluster(cluster);
  // Denser than the paper's 4 Hz: the run is time-compressed, and the
  // scattered micro-intervals of the per-cell kernels need enough
  // samples to clear the significance rule as they do over 6+ s runs.
  bench_util::start_session(/*hz=*/16.0);

  npb::BtConfig config{24, 24, 24, 70, 0.005, /*kernel_events=*/true};
  npb::BtResult result;
  minimpi::RunOptions options;
  options.cluster = &cluster;
  options.net = minimpi::gige_network();
  minimpi::run(4, [&](minimpi::Comm& comm) { result = npb::bt_run(comm, config); },
               options);

  const auto profile = bench_util::stop_and_analyze().profile;
  const auto& node = profile.nodes.front();

  std::cout << "Node " << node.node_id + 1 << " (" << node.hostname << "), run "
            << node.duration_s << " s, final error " << result.final_error << "\n\n";

  // The paper's Table 3 rows: adi_, matvec_sub, matmul_sub.
  for (const char* name : {"adi", "matvec_sub", "matmul_sub", "binvcrhs",
                           "x_solve", "z_solve"}) {
    const auto* fn = profile.find(node.node_id, name);
    if (fn != nullptr) {
      tempest::report::print_function(std::cout, *fn, profile.unit);
      std::cout << "\n";
    }
  }

  const auto* adi = profile.find(node.node_id, "adi");
  const auto* matvec = profile.find(node.node_id, "matvec_sub");
  const auto* matmul = profile.find(node.node_id, "matmul_sub");
  const auto* binvcrhs = profile.find(node.node_id, "binvcrhs");
  bench_util::shape_check("adi, matvec_sub, matmul_sub present in the profile",
                          adi != nullptr && matvec != nullptr && matmul != nullptr);
  // The paper's ordering: adi > matvec_sub > matmul_sub (inclusive).
  bench_util::shape_check(
      "adi > matvec_sub inclusive time (adi contains the sweeps)",
      adi != nullptr && matvec != nullptr && adi->total_time_s > matvec->total_time_s);
  // Note vs the paper: its matvec_sub carries ~65% of adi's time; our
  // 5x5 kernels compile to far fewer cycles per call relative to block
  // construction, so the kernels' share is smaller here. The structural
  // claim that survives is: per-cell kernels accumulate measurable
  // inclusive time purely from call volume.
  bench_util::shape_check(
      "matvec_sub + matmul_sub + binvcrhs accumulate > 10% of adi",
      adi != nullptr && matvec != nullptr && matmul != nullptr &&
          binvcrhs != nullptr &&
          (matvec->total_time_s + matmul->total_time_s + binvcrhs->total_time_s) >
              0.1 * adi->total_time_s);
  bench_util::shape_check(
      "kernels called per cell: matvec_sub calls in the hundreds of thousands",
      matvec != nullptr && matvec->calls > 100'000);
  bench_util::shape_check(
      "binvcrhs also visible (forward elimination kernel)", binvcrhs != nullptr);

  // Six sensors with flat + oscillating rows, as in the printed table.
  bool six_sensors = adi != nullptr && adi->sensors.size() == 6;
  bench_util::shape_check("six sensors reported per function", six_sensors);
  bool any_flat = false;
  for (const auto& fn : node.functions) {
    for (const auto& sp : fn.sensors) {
      any_flat |= (sp.stats.sdv == 0.0 && sp.sample_count >= 4);
    }
  }
  bench_util::shape_check("at least one sensor row is flat (Sdv=Var=0.00)", any_flat);

  tempest::core::Session::instance().clear_nodes();
  return 0;
}
