// Shared scaffolding for the per-experiment reproduction benches.
//
// Each bench binary reproduces one table or figure from the paper (see
// DESIGN.md's per-experiment index): it builds a simulated cluster,
// runs the workload under a Tempest session, parses the trace, and
// prints the same rows/series the paper reports, followed by SHAPE
// CHECK lines that assert the qualitative claims (who is hotter, where
// the jump is, what the overhead bound is).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/session.hpp"
#include "core/workbench.hpp"
#include "parser/parse.hpp"
#include "pipeline/analysis.hpp"
#include "report/ascii_plot.hpp"
#include "report/series.hpp"
#include "report/stdout_format.hpp"
#include "simnode/cluster.hpp"

namespace bench_util {

inline void banner(const std::string& title) {
  std::cout << "\n==========================================================\n"
            << title << "\n"
            << "==========================================================\n";
}

inline void shape_check(const std::string& claim, bool ok) {
  std::cout << "SHAPE CHECK [" << (ok ? "ok" : "MISMATCH") << "] " << claim << "\n";
}

/// Default experiment cluster: the paper's 4-node Opteron machine with
/// realistic node-to-node spread and cross-node TSC skew.
inline tempest::simnode::ClusterConfig paper_cluster(std::size_t nodes = 4,
                                                     double time_scale = 25.0) {
  tempest::simnode::ClusterConfig cc;
  cc.nodes = nodes;
  cc.kind = tempest::simnode::NodeKind::kOpteron;
  cc.seed = 42;
  cc.heterogeneity = 1.0;
  cc.time_scale = time_scale;
  cc.max_tsc_offset_s = 0.005;
  cc.max_tsc_drift_ppm = 40.0;
  return cc;
}

/// Register every cluster node with the (cleared) global session.
inline void register_cluster(tempest::simnode::Cluster& cluster) {
  auto& session = tempest::core::Session::instance();
  session.clear_nodes();
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    session.register_sim_node(&cluster.node(n));
  }
}

/// Start a session at the paper's 4 Hz unless the run is short enough
/// to need denser sampling.
inline void start_session(double hz = 4.0) {
  tempest::core::SessionConfig config;
  config.sample_hz = hz;
  config.bind_affinity = false;  // bench containers restrict CPU masks
  auto status = tempest::core::Session::instance().start(config);
  if (!status) {
    std::cerr << "session start failed: " << status.message() << "\n";
    std::exit(1);
  }
}

/// Stop and analyze in one pass: the profile plus the thermal series
/// in Fahrenheit, with `span_functions`' execution spans marked (exits
/// on failure).
inline tempest::pipeline::AnalysisResult stop_and_analyze(
    const std::vector<std::string>& span_functions = {}) {
  auto& session = tempest::core::Session::instance();
  (void)session.stop();
  tempest::pipeline::AnalysisOptions options;
  options.want_series = true;
  options.span_functions = span_functions;
  auto analyzed = tempest::pipeline::analyze_trace(session.take_trace(), options);
  if (!analyzed.is_ok()) {
    std::cerr << "parse failed: " << analyzed.message() << "\n";
    std::exit(1);
  }
  return std::move(analyzed).value();
}

/// Max temperature seen by a node's given sensor across the series.
inline double series_max(const tempest::report::ThermalSeries& series,
                         std::uint16_t node_id, const std::string& sensor) {
  double best = -1e300;
  for (const auto& s : series.sensors) {
    if (s.node_id != node_id || s.sensor_name != sensor) continue;
    for (const auto& p : s.points) best = std::max(best, p.temp);
  }
  return best;
}

}  // namespace bench_util
