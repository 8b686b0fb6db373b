// Cluster thermal profiling: the paper's headline scenario.
//
// Runs a NAS-like parallel benchmark on a simulated 4-node Opteron
// cluster under Tempest and answers the intro's questions: which nodes
// run hot, which functions are the hot spots, and how the thermal
// profile lines up with the code's phases.
//
//   $ ./examples/cluster_profile [ft|bt|cg|mg|ep|is|sp] [nranks] [csv-path]
#include <cstring>
#include <fstream>
#include <iostream>

#include "core/api.hpp"
#include "minimpi/runtime.hpp"
#include "npb/bt.hpp"
#include "npb/cg.hpp"
#include "npb/ep.hpp"
#include "npb/ft.hpp"
#include "npb/is.hpp"
#include "npb/mg.hpp"
#include "npb/sp.hpp"
#include "pipeline/analysis.hpp"
#include "report/ascii_plot.hpp"
#include "report/json.hpp"
#include "report/series.hpp"
#include "report/stdout_format.hpp"
#include "simnode/cluster.hpp"

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "ft";
  const int nranks = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string csv_path = argc > 3 ? argv[3] : "";

  // The paper's four-node cluster, heterogeneity and TSC skew included.
  tempest::simnode::ClusterConfig cc;
  cc.nodes = static_cast<std::size_t>(nranks);
  cc.kind = tempest::simnode::NodeKind::kOpteron;
  cc.time_scale = 30.0;
  cc.max_tsc_offset_s = 0.005;
  cc.max_tsc_drift_ppm = 40.0;
  tempest::simnode::Cluster cluster(cc);

  auto& session = tempest::core::Session::instance();
  session.clear_nodes();
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    session.register_sim_node(&cluster.node(n));
  }
  // from_env so TEMPEST_OUT can persist the 4-node trace for the
  // export tools (the README's multi-rank Perfetto walkthrough).
  auto config = tempest::core::SessionConfig::from_env();
  config.sample_hz = 8.0;
  config.bind_affinity = false;
  if (auto status = session.start(config); !status) {
    std::cerr << "start failed: " << status.message() << "\n";
    return 1;
  }

  minimpi::RunOptions options;
  options.cluster = &cluster;
  options.net = minimpi::gige_network();
  std::string verdict;
  minimpi::run(nranks, [&](minimpi::Comm& comm) {
    using namespace npb;
    if (which == "ft") {
      auto r = ft_run(comm, FtConfig{64, 64, 64, 120});
      if (comm.rank() == 0) verdict = ft_verify(r, FtConfig{64, 64, 64, 120}).detail;
    } else if (which == "bt") {
      auto r = bt_run(comm, BtConfig{24, 24, 24, 40, 0.005, false});
      if (comm.rank() == 0) verdict = "final error " + std::to_string(r.final_error);
    } else if (which == "cg") {
      auto r = cg_run(comm, CgConfig::for_class(ProblemClass::W));
      if (comm.rank() == 0) verdict = "zeta " + std::to_string(r.zeta);
    } else if (which == "mg") {
      auto r = mg_run(comm, MgConfig::for_class(ProblemClass::W));
      if (comm.rank() == 0) {
        verdict = "rnorm " + std::to_string(r.rnorms.back());
      }
    } else if (which == "ep") {
      auto r = ep_run(comm, EpConfig::for_class(ProblemClass::W));
      if (comm.rank() == 0) verdict = "sums " + std::to_string(r.sx);
    } else if (which == "sp") {
      auto r = sp_run(comm, SpConfig::for_class(ProblemClass::A));
      if (comm.rank() == 0) verdict = "final error " + std::to_string(r.final_error);
    } else if (which == "is") {
      auto r = is_run(comm, IsConfig::for_class(ProblemClass::W));
      if (comm.rank() == 0) {
        verdict = std::string("sorted=") + (r.globally_sorted ? "yes" : "NO");
      }
    } else if (comm.rank() == 0) {
      std::cerr << "unknown benchmark '" << which << "'\n";
    }
  }, options);

  (void)session.stop();
  tempest::pipeline::AnalysisOptions analysis;
  analysis.want_series = true;  // the profile and the series in one pass
  auto analyzed = tempest::pipeline::analyze_trace(session.take_trace(), analysis);
  if (!analyzed.is_ok()) {
    std::cerr << "parse failed: " << analyzed.message() << "\n";
    return 1;
  }
  const auto& profile = analyzed.value().profile;
  const auto& series = analyzed.value().series;

  std::cout << "benchmark " << which << " NP=" << nranks << " — " << verdict
            << "\n\n";

  // Question 3: are the thermal properties similar across machines?
  tempest::report::PlotOptions plot;
  plot.sensor_filter = "sensor4";
  plot.height = 8;
  tempest::report::plot_series(std::cout, series, plot);

  // Questions 1 & 2: where are the hot spots? Rank functions by a
  // simple heat index: inclusive time weighted by average die excess
  // over the node's coolest reading.
  std::cout << "Hot-spot ranking (node 1):\n";
  const auto& node = profile.nodes.front();
  double cool_floor = 1e300;
  for (const auto& fn : node.functions) {
    for (const auto& sp : fn.sensors) {
      if (sp.sensor_id == 3) cool_floor = std::min(cool_floor, sp.stats.min);
    }
  }
  struct Ranked {
    double index;
    const tempest::parser::FunctionProfile* fn;
    double avg;
  };
  std::vector<Ranked> ranked;
  for (const auto& fn : node.functions) {
    for (const auto& sp : fn.sensors) {
      if (sp.sensor_id != 3 || !fn.significant) continue;
      ranked.push_back({fn.total_time_s * (sp.stats.avg - cool_floor), &fn,
                        sp.stats.avg});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.index > b.index; });
  for (std::size_t i = 0; i < std::min<std::size_t>(6, ranked.size()); ++i) {
    std::printf("  %zu. %-28s %7.3f s at avg %6.1f F (heat index %.2f)\n", i + 1,
                ranked[i].fn->name.c_str(), ranked[i].fn->total_time_s,
                ranked[i].avg, ranked[i].index);
  }

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    tempest::report::write_series_csv(csv, series);
    std::cout << "\nwrote thermal series CSV to " << csv_path << "\n";
  }
  return 0;
}
