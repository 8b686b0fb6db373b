// tempest-lint: invariant checker over hand-crafted good/bad traces,
// plus the CLI binary driven over real and corrupted trace files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <unistd.h>

#include "analysis/lint.hpp"
#include "core/api.hpp"
#include "core/session.hpp"
#include "core/workbench.hpp"
#include "simnode/cluster.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

#ifndef TEMPEST_LINT_BIN
#define TEMPEST_LINT_BIN "tools/tempest-lint"
#endif

namespace {

using tempest::analysis::Finding;
using tempest::analysis::lint_trace;
using tempest::analysis::LintOptions;
using tempest::analysis::LintReport;
using tempest::analysis::Severity;
using tempest::trace::FnEvent;
using tempest::trace::FnEventKind;
using tempest::trace::Trace;

bool has_finding(const LintReport& report, const std::string& check,
                 Severity severity) {
  for (const Finding& f : report.findings) {
    if (f.check == check && f.severity == severity) return true;
  }
  return false;
}

/// A minimal, invariant-satisfying trace: one node, one sensor, one
/// thread running main(0x1000) -> child(0x2000), sampled at 4 Hz.
Trace good_trace() {
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.nodes.push_back({0, "node0"});
  t.sensors.push_back({0, 0, "cpu_temp", 1.0});
  t.threads.push_back({0, 0, 0});
  const std::uint64_t q = 250'000'000;  // 4 Hz in ticks
  t.fn_events = {
      {1 * q, 0x1000, 0, 0, FnEventKind::kEnter},
      {2 * q, 0x2000, 0, 0, FnEventKind::kEnter},
      {6 * q, 0x2000, 0, 0, FnEventKind::kExit},
      {11 * q, 0x1000, 0, 0, FnEventKind::kExit},
  };
  for (std::uint64_t i = 1; i <= 12; ++i) {
    t.temp_samples.push_back({i * q, 45.0 + static_cast<double>(i), 0, 0});
  }
  return t;
}

TEST(Lint, GoodTraceIsClean) {
  LintOptions options;
  options.expected_hz = 4.0;
  const LintReport report = lint_trace(good_trace(), options);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.error_count, 0u);
  EXPECT_EQ(report.warning_count, 0u) << tempest::analysis::to_json(report);
  EXPECT_EQ(report.fn_events, 4u);
  EXPECT_EQ(report.temp_samples, 12u);
}

TEST(Lint, BackwardsThreadTimestampIsAnError) {
  Trace t = good_trace();
  t.fn_events[2].tsc = 1;  // exit stamped before its enter
  const LintReport report = lint_trace(t);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_finding(report, "monotonic-timestamps", Severity::kError));
}

TEST(Lint, BackwardsSampleTimestampIsAnError) {
  Trace t = good_trace();
  std::swap(t.temp_samples[3].tsc, t.temp_samples[7].tsc);
  const LintReport report = lint_trace(t);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_finding(report, "monotonic-timestamps", Severity::kError));
}

TEST(Lint, UnknownSensorIdIsAnError) {
  Trace t = good_trace();
  t.temp_samples[5].sensor_id = 42;
  const LintReport report = lint_trace(t);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_finding(report, "sensor-unresolved", Severity::kError));
}

TEST(Lint, UnknownNodeAndThreadAreErrors) {
  Trace t = good_trace();
  t.fn_events[1].node_id = 9;
  t.fn_events[1].thread_id = 77;
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(has_finding(report, "node-unresolved", Severity::kError));
  EXPECT_TRUE(has_finding(report, "thread-unresolved", Severity::kError));
}

TEST(Lint, UnnamedSyntheticAddressIsAnError) {
  Trace t = good_trace();
  t.fn_events.push_back(
      {12 * 250'000'000ULL, tempest::trace::kSyntheticAddrBase + 5, 0, 0,
       FnEventKind::kEnter});
  t.fn_events.push_back(
      {13 * 250'000'000ULL, tempest::trace::kSyntheticAddrBase + 5, 0, 0,
       FnEventKind::kExit});
  EXPECT_TRUE(has_finding(lint_trace(t), "synthetic-unresolved", Severity::kError));

  // Naming it in the synthetic table resolves the finding.
  t.synthetic_symbols.push_back({tempest::trace::kSyntheticAddrBase + 5, "region"});
  EXPECT_TRUE(lint_trace(t).clean());
}

TEST(Lint, MissingTscRateIsAnError) {
  Trace t = good_trace();
  t.tsc_ticks_per_second = 0.0;
  EXPECT_TRUE(has_finding(lint_trace(t), "tsc-rate", Severity::kError));
}

TEST(Lint, DuplicateMetadataIsAnError) {
  Trace t = good_trace();
  t.nodes.push_back({0, "imposter"});
  t.sensors.push_back({0, 0, "cpu_temp_again", 1.0});
  t.threads.push_back({0, 0, 1});
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(has_finding(report, "duplicate-node", Severity::kError));
  EXPECT_TRUE(has_finding(report, "duplicate-sensor", Severity::kError));
  EXPECT_TRUE(has_finding(report, "duplicate-thread", Severity::kError));
}

TEST(Lint, FramesOpenAcrossSessionEdgesAreWarningsNotErrors) {
  Trace t = good_trace();
  // An exit whose enter predates the session, and an enter never closed:
  // routine for frames alive at start/stop (e.g. main).
  t.fn_events.insert(t.fn_events.begin(),
                     {250'000'000ULL / 2, 0x3000, 0, 0, FnEventKind::kExit});
  t.fn_events.push_back(
      {12 * 250'000'000ULL, 0x4000, 0, 0, FnEventKind::kEnter});
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(has_finding(report, "balanced-nesting", Severity::kWarning));
}

TEST(Lint, InterleavedRegionsAreLegal) {
  // A begin, B begin, A end, B end — legal under the parser's
  // per-(thread,addr) depth model (per-block API allows it).
  Trace t = good_trace();
  t.fn_events = {
      {100, 0xA, 0, 0, FnEventKind::kEnter},
      {200, 0xB, 0, 0, FnEventKind::kEnter},
      {300, 0xA, 0, 0, FnEventKind::kExit},
      {400, 0xB, 0, 0, FnEventKind::kExit},
  };
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(has_finding(report, "balanced-nesting", Severity::kWarning));
}

TEST(Lint, InclusiveTimeBeyondThreadSpanIsAnError) {
  // Overlapping outermost activations of the same addr — e.g. an event
  // buffer replayed with skewed timestamps — accumulate more inclusive
  // time than the thread's whole span can hold.
  Trace t = good_trace();
  t.fn_events = {
      {100, 0x5000, 0, 0, FnEventKind::kEnter},
      {200, 0x5000, 0, 0, FnEventKind::kExit},
      {150, 0x5000, 0, 0, FnEventKind::kEnter},
      {250, 0x5000, 0, 0, FnEventKind::kExit},
  };
  // Inclusive(0x5000) = 100 + 100 = 200 ticks against a span of 150.
  const LintReport report = lint_trace(t);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_finding(report, "time-conservation", Severity::kError));
}

TEST(Lint, BackToBackActivationsConserveTime) {
  // Sequential activations that exactly tile the span are legal.
  Trace t = good_trace();
  t.fn_events = {
      {0, 0x5000, 0, 0, FnEventKind::kEnter},
      {10'000, 0x5000, 0, 0, FnEventKind::kExit},
      {10'000, 0x5000, 0, 0, FnEventKind::kEnter},
      {30'000, 0x5000, 0, 0, FnEventKind::kExit},
  };
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(has_finding(report, "time-conservation", Severity::kError));
}

TEST(Lint, IrregularCadenceWarns) {
  Trace t = good_trace();
  // Bunch most samples together, then a few far apart.
  t.temp_samples.clear();
  std::uint64_t tsc = 1'000;
  for (int i = 0; i < 30; ++i) {
    tsc += (i % 3 == 0) ? 1'000'000'000ULL : 1'000;  // wild gap mix
    t.temp_samples.push_back({tsc, 50.0, 0, 0});
  }
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(has_finding(report, "sample-cadence", Severity::kWarning));
  EXPECT_TRUE(report.clean());  // cadence never hard-fails
}

TEST(Lint, WrongAbsoluteCadenceWarnsWhenRateGiven) {
  Trace t = good_trace();  // 4 Hz samples
  LintOptions options;
  options.expected_hz = 100.0;  // claim 100 Hz
  const LintReport report = lint_trace(t, options);
  EXPECT_TRUE(has_finding(report, "sample-cadence", Severity::kWarning));
}

TEST(Lint, EmptyTraceWarns) {
  Trace t;
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(has_finding(report, "empty-trace", Severity::kWarning));
}

TEST(Lint, FindingsAreCappedButCountsExact) {
  Trace t = good_trace();
  for (int i = 0; i < 100; ++i) {
    t.temp_samples.push_back({20 * 250'000'000ULL, 50.0, 0, 99});
  }
  LintOptions options;
  options.max_findings_per_check = 4;
  const LintReport report = lint_trace(t, options);
  EXPECT_EQ(report.error_count, 100u);
  std::size_t recorded = 0;
  for (const Finding& f : report.findings) {
    if (f.check == "sensor-unresolved") ++recorded;
  }
  EXPECT_EQ(recorded, 5u);  // cap + one suppression marker
}

TEST(Lint, FileLongerThanOneBatchLintsLikeTheTrace) {
  // More events than lint_trace_file's 64 Ki-record batch: the file's
  // events stream in several batches and lint as the in-memory trace.
  Trace t = good_trace();
  t.fn_events.clear();
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    t.fn_events.push_back({250'000'000 + 2 * i, 0x2000, 0, 0, FnEventKind::kEnter});
    t.fn_events.push_back({250'000'001 + 2 * i, 0x2000, 0, 0, FnEventKind::kExit});
  }
  const std::string path = ::testing::TempDir() + "/lint_long.trace";
  ASSERT_TRUE(tempest::trace::write_trace_file(path, t));
  const auto report = tempest::analysis::lint_trace_file(path);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().fn_events, t.fn_events.size());
  EXPECT_EQ(tempest::analysis::to_json(report.value()),
            tempest::analysis::to_json(lint_trace(t)));
  std::remove(path.c_str());
}

TEST(Lint, JsonOutputCarriesVerdictAndFindings) {
  Trace t = good_trace();
  t.temp_samples[5].sensor_id = 42;
  const std::string json = tempest::analysis::to_json(lint_trace(t));
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"sensor-unresolved\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);

  const std::string clean_json = tempest::analysis::to_json(
      lint_trace(good_trace(), LintOptions{4.0, 2.0, 8, 8}));
  EXPECT_NE(clean_json.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(clean_json.find("\"findings\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------
// CLI: the tempest-lint binary over real session traces, corrupted
// variants, and junk files.

class LintCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process path: ctest runs each case as its own process, and
    // every one records this trace in SetUpTestSuite.
    trace_path_ = new std::string(::testing::TempDir() + "/lint_cli." +
                                  std::to_string(getpid()) + ".trace");
    tempest::simnode::ClusterConfig cc;
    cc.nodes = 1;
    cc.kind = tempest::simnode::NodeKind::kX86Basic;
    cc.time_scale = 30.0;
    static tempest::simnode::Cluster cluster(cc);
    auto& session = tempest::core::Session::instance();
    session.clear_nodes();
    const auto node_id = session.register_sim_node(&cluster.node(0));
    tempest::core::SessionConfig config;
    config.sample_hz = 30.0;
    config.bind_affinity = false;
    config.output_path = *trace_path_;
    ASSERT_TRUE(session.start(config).is_ok());
    tempest::core::Workbench bench(&cluster.node(0), node_id);
    bench.attach();
    {
      tempest::ScopedRegion region("lint_hot");
      bench.burn(0.3);
    }
    bench.detach();
    ASSERT_TRUE(session.stop().is_ok());
    session.clear_nodes();
  }

  static int run_lint(const std::string& args, const std::string& path) {
    const std::string cmd = std::string(TEMPEST_LINT_BIN) + " " + args + " \"" +
                            path + "\" > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  static std::string* trace_path_;
};

std::string* LintCliTest::trace_path_ = nullptr;

TEST_F(LintCliTest, SessionTraceIsClean) {
  EXPECT_EQ(run_lint("--hz 30", *trace_path_), 0);
  EXPECT_EQ(run_lint("--hz 30 --json", *trace_path_), 0);
}

TEST_F(LintCliTest, CorruptedTraceFailsLint) {
  auto trace = tempest::trace::read_trace_file(*trace_path_);
  ASSERT_TRUE(trace.is_ok());
  auto corrupted = std::move(trace).value();
  ASSERT_GE(corrupted.temp_samples.size(), 2u);
  // Point a sample at a sensor that does not exist and drag another
  // backwards in time.
  corrupted.temp_samples[0].sensor_id = 999;
  corrupted.temp_samples.back().tsc = 1;
  const std::string bad_path = ::testing::TempDir() + "/lint_cli_bad.trace";
  ASSERT_TRUE(tempest::trace::write_trace_file(bad_path, corrupted));
  EXPECT_EQ(run_lint("--hz 30", bad_path), 1);
}

TEST_F(LintCliTest, TruncatedFileIsAReadError) {
  std::ifstream in(*trace_path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);
  const std::string trunc_path = ::testing::TempDir() + "/lint_cli_trunc.trace";
  std::ofstream out(trunc_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  out.close();
  EXPECT_EQ(run_lint("", trunc_path), 2);
}

TEST_F(LintCliTest, TrailingBytesAfterTheTraceFailLint) {
  // A concatenated or partially-overwritten file parses as the leading
  // trace but must not lint clean.
  std::ifstream in(*trace_path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::string doubled_path =
      ::testing::TempDir() + "/lint_cli_doubled.trace";
  std::ofstream out(doubled_path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_EQ(run_lint("--hz 30", doubled_path), 1);

  auto report = tempest::analysis::lint_trace_file(doubled_path);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(has_finding(report.value(), "file-trailing-bytes",
                          tempest::analysis::Severity::kError));
}

TEST_F(LintCliTest, UsageErrors) {
  EXPECT_EQ(run_lint("--no-such-flag", *trace_path_), 2);
  const int rc = std::system((std::string(TEMPEST_LINT_BIN) +
                              " > /dev/null 2>&1").c_str());
  EXPECT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 2);
}

TEST_F(LintCliTest, VersionFlagPrintsTraceFormatVersion) {
  const std::string out_path = ::testing::TempDir() + "/lint_version.out";
  const int rc = std::system((std::string(TEMPEST_LINT_BIN) + " --version > " +
                              out_path + " 2>&1").c_str());
  ASSERT_EQ(WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, 0);
  std::ifstream in(out_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("tempest-lint"), std::string::npos) << line;
  EXPECT_NE(line.find("trace format v"), std::string::npos) << line;
}

// -- RUNSTATS cross-checks ---------------------------------------------

/// good_trace() plus a RUNSTATS trailer that exactly matches it.
Trace good_trace_with_run_stats() {
  Trace t = good_trace();
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.tempd_samples = t.temp_samples.size();
  t.run_stats.tempd_ticks = t.temp_samples.size();  // one sensor
  t.run_stats.threads_registered = 1;
  t.run_stats.wall_seconds = 3.0;
  t.run_stats.present = true;
  return t;
}

TEST(Lint, ConsistentRunStatsStayClean) {
  const LintReport report = lint_trace(good_trace_with_run_stats());
  EXPECT_TRUE(report.clean()) << tempest::analysis::to_json(report);
}

TEST(Lint, RunStatsEventCountMismatchIsAnError) {
  Trace t = good_trace_with_run_stats();
  t.run_stats.events_recorded += 5;  // recorder claims more than the trace holds
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(has_finding(report, "runstats-consistency", Severity::kError));
}

TEST(Lint, RunStatsSampleCountMismatchIsAnError) {
  Trace t = good_trace_with_run_stats();
  t.run_stats.tempd_samples -= 1;
  EXPECT_TRUE(has_finding(lint_trace(t), "runstats-consistency",
                          Severity::kError));
}

TEST(Lint, RunStatsMoreSamplesThanReadsIsAnError) {
  Trace t = good_trace_with_run_stats();
  t.run_stats.tempd_ticks = 2;  // 12 samples from 2 ticks x 1 sensor
  EXPECT_TRUE(has_finding(lint_trace(t), "runstats-consistency",
                          Severity::kError));
}

TEST(Lint, DeclaredDropsWarnButStayConsistent) {
  Trace t = good_trace_with_run_stats();
  t.run_stats.events_dropped = 100;  // loud, declared data loss
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(has_finding(report, "events-dropped", Severity::kWarning));
  EXPECT_FALSE(has_finding(report, "runstats-consistency", Severity::kError));
}

TEST(Lint, AbsentRunStatsSkipAllCrossChecks) {
  // Pre-RUNSTATS traces must not suddenly fail lint.
  const LintReport report = lint_trace(good_trace());
  EXPECT_FALSE(has_finding(report, "runstats-consistency", Severity::kError));
  EXPECT_FALSE(has_finding(report, "events-dropped", Severity::kWarning));
}

/// Coverage inventory matching good_trace()'s two functions, plus one
/// hookless function and one instrumented-but-never-called function.
tempest::analysis::CoverageInventory demo_inventory() {
  tempest::analysis::CoverageInventory inv;
  inv.functions.push_back({0x1000, 0x100, "main", true});
  inv.functions.push_back({0x2000, 0x100, "child", true});
  inv.functions.push_back({0x3000, 0x100, "hookless", false});
  inv.functions.push_back({0x4000, 0x100, "unused_fn", true});
  return inv;
}

TEST(LintCoverage, CoveredEventsAreCleanButIdleProbesWarn) {
  const auto inv = demo_inventory();
  const LintReport report = lint_trace(good_trace(), {}, &inv);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(
      has_finding(report, "instrumentation-coverage", Severity::kError));
  // unused_fn carries probes but recorded nothing: warn, don't fail.
  EXPECT_TRUE(
      has_finding(report, "instrumentation-unused", Severity::kWarning));
  EXPECT_EQ(report.warning_count, 1u);  // hookless stays silent: no probes
}

TEST(LintCoverage, EventOutsideInventoryIsAnError) {
  Trace t = good_trace();
  t.fn_events[1].addr = 0x9000;  // no function there
  t.fn_events[2].addr = 0x9000;
  const auto inv = demo_inventory();
  const LintReport report = lint_trace(t, {}, &inv);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(
      has_finding(report, "instrumentation-coverage", Severity::kError));
}

TEST(LintCoverage, EventFromHooklessFunctionIsAnError) {
  Trace t = good_trace();
  t.fn_events[1].addr = 0x3010;  // inside "hookless"
  t.fn_events[2].addr = 0x3010;
  const auto inv = demo_inventory();
  const LintReport report = lint_trace(t, {}, &inv);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(
      has_finding(report, "instrumentation-coverage", Severity::kError));
}

TEST(LintCoverage, RuntimeAddressesUnbiasThroughHeader) {
  Trace t = good_trace();
  t.load_bias = 0x7f0000000000;  // PIE: runtime = link + bias
  for (FnEvent& e : t.fn_events) e.addr += t.load_bias;
  const auto inv = demo_inventory();  // link-time addresses
  const LintReport report = lint_trace(t, {}, &inv);
  EXPECT_TRUE(report.clean()) << tempest::analysis::to_json(report);
  EXPECT_FALSE(
      has_finding(report, "instrumentation-coverage", Severity::kError));
}

TEST(LintCoverage, SyntheticRegionAddressesAreExempt) {
  Trace t = good_trace();
  t.synthetic_symbols.push_back(
      {tempest::trace::kSyntheticAddrBase, "region"});
  t.fn_events.push_back({12 * 250'000'000ULL, tempest::trace::kSyntheticAddrBase,
                         0, 0, FnEventKind::kEnter});
  t.fn_events.push_back({13 * 250'000'000ULL, tempest::trace::kSyntheticAddrBase,
                         0, 0, FnEventKind::kExit});
  const auto inv = demo_inventory();
  const LintReport report = lint_trace(t, {}, &inv);
  EXPECT_FALSE(
      has_finding(report, "instrumentation-coverage", Severity::kError));
}

TEST(LintCoverage, FileStreamingPathAppliesCoverageChecks) {
  Trace t = good_trace();
  t.fn_events[1].addr = 0x9000;
  t.fn_events[2].addr = 0x9000;
  const std::string path = ::testing::TempDir() + "/lint_coverage.trace";
  ASSERT_TRUE(tempest::trace::write_trace_file(path, t));
  const auto inv = demo_inventory();
  auto report = tempest::analysis::lint_trace_file(path, {}, &inv);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(has_finding(report.value(), "instrumentation-coverage",
                          Severity::kError));
  std::remove(path.c_str());
}

TEST(Lint, FileStreamingPathAppliesRunStatsChecks) {
  // The same cross-checks must fire on the bounded-batch file path the
  // CLI uses, where run stats come from the reader's header.
  Trace t = good_trace_with_run_stats();
  t.run_stats.events_recorded += 3;
  const std::string path = ::testing::TempDir() + "/lint_runstats.trace";
  ASSERT_TRUE(tempest::trace::write_trace_file(path, t));
  auto report = tempest::analysis::lint_trace_file(path);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(has_finding(report.value(), "runstats-consistency",
                          Severity::kError));
  std::remove(path.c_str());
}

}  // namespace
