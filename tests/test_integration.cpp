// End-to-end integration: instrumented workloads -> session/tempd ->
// trace -> parser -> profile, on simulated cluster nodes.
#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "core/api.hpp"
#include "core/workbench.hpp"
#include "micro/micro.hpp"
#include "minimpi/runtime.hpp"
#include "npb/ft.hpp"
#include "parser/parse.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "report/series.hpp"
#include "report/stdout_format.hpp"
#include "trace/reader.hpp"
#include "simnode/cluster.hpp"

namespace {

using tempest::core::Session;
using tempest::core::SessionConfig;
using tempest::core::Workbench;
using tempest::simnode::Cluster;
using tempest::simnode::ClusterConfig;

SessionConfig fast_config(double hz = 40.0) {
  SessionConfig config;
  config.sample_hz = hz;  // dense sampling keeps short test runs significant
  config.bind_affinity = false;
  config.unit = tempest::TempUnit::kFahrenheit;
  return config;
}

// Every trace a session emits must satisfy the tempest-lint invariants
// (monotonic timestamps, resolvable ids, conserved inclusive time).
// Warnings (frames open across session edges, cadence jitter) are fine.
void expect_lint_clean(const tempest::trace::Trace& trace, double hz) {
  tempest::analysis::LintOptions options;
  options.expected_hz = hz;
  const auto report = tempest::analysis::lint_trace(trace, options);
  EXPECT_TRUE(report.clean()) << tempest::analysis::to_json(report);
}

ClusterConfig one_node_cluster() {
  ClusterConfig cc;
  cc.nodes = 1;
  cc.kind = tempest::simnode::NodeKind::kX86Basic;
  cc.time_scale = 30.0;  // compress thermal time so a ~1 s run shows dynamics
  return cc;
}

TEST(Integration, MicroDProducesHotFoo1AndInsignificantFoo2) {
  Cluster cluster(one_node_cluster());
  auto& session = Session::instance();
  session.clear_nodes();
  const std::uint16_t node_id = session.register_sim_node(&cluster.node(0));

  ASSERT_TRUE(session.start(fast_config()));
  Workbench bench(&cluster.node(0), node_id);
  bench.attach();

  micro::MicroParams params{&bench, 0.02};
  micro::run_micro_d(params);

  bench.detach();
  ASSERT_TRUE(session.stop());
  expect_lint_clean(session.last_trace(), fast_config().sample_hz);

  auto parsed = tempest::parser::parse_trace(session.take_trace());
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto& profile = parsed.value();

  ASSERT_EQ(profile.nodes.size(), 1u);
  const auto* foo1 = profile.find(node_id, "micro::(anonymous namespace)::foo1(micro::MicroParams const&)");
  const auto* foo2 = profile.find(node_id, "micro::(anonymous namespace)::foo2(micro::MicroParams const&)");
  // Fallback: symbol naming may differ with compiler versions; find by substring.
  if (foo1 == nullptr || foo2 == nullptr) {
    for (const auto& fn : profile.nodes[0].functions) {
      if (fn.name.find("foo1") != std::string::npos) foo1 = &fn;
      if (fn.name.find("foo2") != std::string::npos) foo2 = &fn;
    }
  }
  ASSERT_NE(foo1, nullptr);
  ASSERT_NE(foo2, nullptr);

  // foo1 dominates execution (burn); foo2 is the short timer.
  EXPECT_GT(foo1->total_time_s, 0.5);
  EXPECT_GT(foo1->total_time_s, foo2->total_time_s);
  // foo1 called once; foo2 called twice (from foo1 and from the driver).
  EXPECT_EQ(foo1->calls, 1u);
  EXPECT_EQ(foo2->calls, 2u);

  // foo1 heats the die: its CPU-sensor max exceeds its min.
  ASSERT_FALSE(foo1->sensors.empty());
  const auto& cpu = foo1->sensors.front();
  EXPECT_GT(cpu.stats.max, cpu.stats.min);
  EXPECT_GE(cpu.sample_count, 2u);
}

TEST(Integration, TraceRoundTripsThroughFileAndSeries) {
  Cluster cluster(one_node_cluster());
  auto& session = Session::instance();
  session.clear_nodes();
  const std::uint16_t node_id = session.register_sim_node(&cluster.node(0));

  SessionConfig config = fast_config();
  config.output_path = ::testing::TempDir() + "/integration.trace";
  ASSERT_TRUE(session.start(config));
  Workbench bench(&cluster.node(0), node_id);
  bench.attach();
  {
    tempest::ScopedRegion region("hot_phase");
    bench.burn(0.3);
  }
  {
    tempest::ScopedRegion region("cool_phase");
    bench.idle(0.2);
  }
  bench.detach();
  ASSERT_TRUE(session.stop());
  expect_lint_clean(session.last_trace(), config.sample_hz);

  // One streaming pass over the file builds the profile and, beside
  // it, the series: 3 sensors (x86 basic layout) with points.
  tempest::pipeline::TraceInput input;
  ASSERT_TRUE(input.open({config.output_path}));
  tempest::pipeline::AnalysisOptions options;
  options.want_series = true;
  options.span_functions = {"hot_phase"};
  tempest::pipeline::AnalysisSink sink(options);
  ASSERT_TRUE(input.run({&sink}));
  EXPECT_NE(sink.result().profile.find(node_id, "hot_phase"), nullptr);
  EXPECT_NE(sink.result().profile.find(node_id, "cool_phase"), nullptr);
  const tempest::report::ThermalSeries& series = sink.result().series;
  EXPECT_EQ(series.sensors.size(), 3u);
  ASSERT_FALSE(series.sensors.empty());
  EXPECT_GT(series.sensors[0].points.size(), 5u);
  EXPECT_FALSE(series.spans.empty());
}

TEST(Integration, ClusterFtRunProfilesAllNodes) {
  ClusterConfig cc;
  cc.nodes = 4;
  cc.kind = tempest::simnode::NodeKind::kOpteron;
  cc.time_scale = 30.0;
  cc.max_tsc_offset_s = 0.01;
  cc.max_tsc_drift_ppm = 50.0;
  Cluster cluster(cc);

  auto& session = Session::instance();
  session.clear_nodes();
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    session.register_sim_node(&cluster.node(n));
  }
  ASSERT_TRUE(session.start(fast_config()));

  npb::FtConfig ft = npb::FtConfig::for_class(npb::ProblemClass::S);
  npb::FtResult result;
  minimpi::RunOptions options;
  options.cluster = &cluster;
  minimpi::run(
      4,
      [&](minimpi::Comm& comm) {
        npb::FtResult mine = npb::ft_run(comm, ft);
        if (comm.rank() == 0) result = std::move(mine);  // one writer
      },
      options);

  ASSERT_TRUE(session.stop());
  EXPECT_EQ(result.checksums.size(), static_cast<std::size_t>(ft.niter));
  expect_lint_clean(session.last_trace(), fast_config().sample_hz);

  auto parsed = tempest::parser::parse_trace(session.take_trace());
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto& profile = parsed.value();
  ASSERT_EQ(profile.nodes.size(), 4u);
  for (const auto& node : profile.nodes) {
    EXPECT_NE(profile.find(node.node_id, "ft_run"), nullptr)
        << "node " << node.node_id;
    EXPECT_NE(profile.find(node.node_id, "transpose"), nullptr);
    EXPECT_NE(profile.find(node.node_id, "evolve"), nullptr);
  }
}

}  // namespace
