// Figure 2: Tempest output for micro-benchmark D.
//
// Part (a): the standard-output profile — main/foo1/foo2 listed by
// inclusive time with per-sensor Min/Avg/Max/Sdv/Var/Med/Mod in
// Fahrenheit; foo2's thermal data flagged not significant (its life is
// shorter than the 4 Hz sampling interval).
// Part (b): the temperature-vs-time profile — foo1's CPU burn heats the
// die steadily; the temperature drops abruptly when foo2's timer wait
// begins. Fan and frequency are pinned throughout (paper methodology).
#include "bench_util.hpp"
#include "micro/micro.hpp"

namespace {

const tempest::parser::FunctionProfile* find(
    const tempest::parser::RunProfile& profile, const std::string& substring) {
  for (const auto& node : profile.nodes) {
    for (const auto& fn : node.functions) {
      if (fn.name.find(substring) != std::string::npos) return &fn;
    }
  }
  return nullptr;
}

}  // namespace

int main() {
  bench_util::banner("Figure 2 reproduction: micro-benchmark D profile");
  std::cout << "(paper: foo1 runs a CPU burn ~60 s heating the die from ~114 F\n"
               " to ~124 F; foo2 exits after a short timer; thermal constants\n"
               " here are time-compressed so the same dynamics fit a short run)\n";

  auto node_config =
      tempest::simnode::make_node_config(tempest::simnode::NodeKind::kX86Basic);
  node_config.package.time_scale = 20.0;  // 8 s run ~ 160 thermal seconds
  tempest::simnode::SimNode node(node_config);
  auto& session = tempest::core::Session::instance();
  session.clear_nodes();
  const auto node_id = session.register_sim_node(&node);
  tempest::core::Workbench bench(&node, node_id);

  bench_util::start_session(/*hz=*/4.0);  // the paper's sampling rate
  bench.attach();
  micro::run_micro_d(micro::MicroParams{&bench, 0.12});  // ~7.5 s wall
  bench.detach();

  const auto analyzed = bench_util::stop_and_analyze(
      {"micro::(anonymous namespace)::foo1(micro::MicroParams const&)",
       "micro::(anonymous namespace)::foo2(micro::MicroParams const&)"});
  const auto& profile = analyzed.profile;

  std::cout << "\n--- Part (a): Tempest standard output ---\n\n";
  tempest::report::StdoutOptions options;
  options.max_functions = 6;
  tempest::report::print_profile(std::cout, profile, options);

  std::cout << "--- Part (b): temperature profile ---\n\n";
  const auto& series = analyzed.series;
  tempest::report::PlotOptions plot;
  plot.sensor_filter = "CPU";
  tempest::report::plot_series(std::cout, series, plot);

  // Shape checks against the paper's Figure 2 claims.
  const auto* foo1 = find(profile, "foo1");
  const auto* foo2 = find(profile, "foo2");
  bench_util::shape_check("foo1 accounts for most of total execution time",
                          foo1 != nullptr && foo1->total_time_s >
                                                 0.6 * profile.duration_s);
  bool foo1_heats = false;
  if (foo1 != nullptr && !foo1->sensors.empty()) {
    const auto& cpu = foo1->sensors.front().stats;
    foo1_heats = cpu.max >= cpu.min + 5.0;  // clear heating ramp (F)
  }
  bench_util::shape_check("foo1 heats the CPU (max >> min on the die sensor)",
                          foo1_heats);
  bench_util::shape_check(
      "foo2 is short relative to the sampling interval -> not significant",
      foo2 != nullptr && !foo2->significant);

  // Abrupt drop after the burn: die temperature at the end of the run
  // is below its peak.
  double peak = -1e300, last = -1e300;
  for (const auto& s : series.sensors) {
    if (s.sensor_name != "CPU") continue;
    for (const auto& p : s.points) peak = std::max(peak, p.temp);
    if (!s.points.empty()) last = s.points.back().temp;
  }
  bench_util::shape_check("temperature drops abruptly once foo2's timer runs",
                          peak > -1e300 && last < peak - 1.0);

  session.clear_nodes();
  return 0;
}
