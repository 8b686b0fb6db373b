// Table 2: partial Tempest functional profile of the FT benchmark,
// NP=4, printed for one node in the paper's standard-output format:
// per function, per sensor, Min/Avg/Max/Sdv/Var/Med/Mod in Fahrenheit
// with the function's total inclusive time.
#include "bench_util.hpp"
#include "minimpi/runtime.hpp"
#include "npb/ft.hpp"

int main() {
  bench_util::banner(
      "Table 2 reproduction: partial FT functional profile (NP=4, one node)");

  auto cc = bench_util::paper_cluster(4, /*time_scale=*/30.0);
  tempest::simnode::Cluster cluster(cc);
  bench_util::register_cluster(cluster);
  bench_util::start_session(/*hz=*/4.0);

  npb::FtConfig config{64, 64, 64, 140};
  npb::FtResult result;
  minimpi::RunOptions options;
  options.cluster = &cluster;
  options.net = minimpi::gige_network();
  minimpi::run(4, [&](minimpi::Comm& comm) { result = npb::ft_run(comm, config); },
               options);

  const auto profile = bench_util::stop_and_analyze().profile;

  // The paper prints a subset of functions for one node.
  const auto& node = profile.nodes.front();
  std::cout << "Node " << node.node_id + 1 << " (" << node.hostname << "), run "
            << node.duration_s << " s\n\n";
  std::size_t printed = 0;
  for (const auto& fn : node.functions) {
    if (fn.name == "ft_run") continue;  // the paper lists the phase functions
    tempest::report::print_function(std::cout, fn, profile.unit);
    std::cout << "\n";
    if (++printed == 6) break;
  }

  // Shape checks: the Table 2 signatures.
  const auto* transpose = profile.find(node.node_id, "transpose");
  const auto* evolve = profile.find(node.node_id, "evolve");
  const auto* cffts1 = profile.find(node.node_id, "cffts1");
  bench_util::shape_check("transpose / evolve / cffts* all present with thermal stats",
                          transpose != nullptr && evolve != nullptr &&
                              cffts1 != nullptr && !transpose->sensors.empty());

  // Quantised sensors yield flat rows (Sdv = Var = 0) on the board
  // sensors, exactly like sensor1/sensor3/sensor6 in the paper's table.
  bool any_flat = false, any_varying = false;
  for (const auto& fn : node.functions) {
    for (const auto& sp : fn.sensors) {
      if (sp.sample_count < 4) continue;
      if (sp.stats.sdv == 0.0 && sp.stats.min == sp.stats.max) any_flat = true;
      if (sp.stats.sdv > 0.0) any_varying = true;
    }
  }
  bench_util::shape_check("some sensors flat (Sdv=Var=0), some varying", any_flat && any_varying);

  // Every reported temperature sits on the 1 C quantisation ladder: in
  // Fahrenheit, min/max values are multiples of 1.8 offset by 32.
  bool on_ladder = true;
  for (const auto& fn : node.functions) {
    for (const auto& sp : fn.sensors) {
      const double celsius = (sp.stats.min - 32.0) / 1.8;
      on_ladder &= std::abs(celsius - std::round(celsius)) < 1e-6;
    }
  }
  bench_util::shape_check("temperatures land on the 1.8 F (1 C) ladder of Tables 2/3",
                          on_ladder);

  bench_util::shape_check("six sensors per Opteron node, as printed in the paper",
                          !node.functions.empty() &&
                              node.functions.front().sensors.size() == 6);

  tempest::core::Session::instance().clear_nodes();
  return 0;
}
