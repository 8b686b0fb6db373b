// End-to-end CLI test: produce a trace in-process, then drive the
// tempest_parse binary over it in every output mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hpp"
#include "core/api.hpp"
#include "core/workbench.hpp"
#include "simnode/cluster.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

#ifndef TEMPEST_PARSE_BIN
#define TEMPEST_PARSE_BIN "tools/tempest_parse"
#endif
#ifndef TEMPEST_EXPORT_BIN
#define TEMPEST_EXPORT_BIN "tools/tempest-export"
#endif
#ifndef TEMPEST_TOP_BIN
#define TEMPEST_TOP_BIN "tools/tempest-top"
#endif
#ifndef TEMPEST_LINT_BIN
#define TEMPEST_LINT_BIN "tools/tempest-lint"
#endif
#ifndef TEMPEST_AUDIT_BIN
#define TEMPEST_AUDIT_BIN "tools/tempest-audit"
#endif
#ifndef TEMPEST_DIFF_BIN
#define TEMPEST_DIFF_BIN "tools/tempest-diff"
#endif
#ifndef TEMPEST_COLLECTD_BIN
#define TEMPEST_COLLECTD_BIN "tools/tempest-collectd"
#endif

extern char** environ;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process paths: ctest runs each discovered test case as its
    // own process, concurrently under -jN, and every process records
    // its own copy of the trace in SetUpTestSuite. Shared fixed names
    // would race.
    trace_path_ = new std::string(::testing::TempDir() + "/cli." +
                                  std::to_string(getpid()) + ".trace");
    auto node_config =
        tempest::simnode::make_node_config(tempest::simnode::NodeKind::kX86Basic);
    node_config.package.time_scale = 30.0;
    static tempest::simnode::SimNode node(node_config);
    auto& session = tempest::core::Session::instance();
    session.clear_nodes();
    const auto node_id = session.register_sim_node(&node);
    tempest::core::SessionConfig config;
    config.sample_hz = 30.0;
    config.bind_affinity = false;
    config.output_path = *trace_path_;
    ASSERT_TRUE(session.start(config));
    tempest::core::Workbench bench(&node, node_id);
    bench.attach();
    {
      tempest::ScopedRegion region("cli_hot");
      bench.burn(0.4);
    }
    {
      tempest::ScopedRegion region("cli_cool");
      bench.idle(0.2);
    }
    bench.detach();
    ASSERT_TRUE(session.stop());
    session.clear_nodes();
  }

  /// Run the CLI; returns exit code, captures stdout to a file.
  int run_cli(const std::string& args, std::string* output) {
    const std::string out_path =
        ::testing::TempDir() + "/cli." + std::to_string(getpid()) + ".out";
    const std::string cmd = std::string(TEMPEST_PARSE_BIN) + " " + args + " \"" +
                            *trace_path_ + "\" > " + out_path + " 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    *output = slurp(out_path);
    return rc;
  }

  static std::string* trace_path_;
};

std::string* CliTest::trace_path_ = nullptr;

TEST_F(CliTest, DefaultTextOutput) {
  std::string out;
  ASSERT_EQ(run_cli("", &out), 0);
  EXPECT_NE(out.find("Function: cli_hot"), std::string::npos);
  EXPECT_NE(out.find("Total Time(sec)"), std::string::npos);
  EXPECT_NE(out.find("(F)"), std::string::npos);
}

TEST_F(CliTest, CelsiusUnit) {
  std::string out;
  ASSERT_EQ(run_cli("--unit C", &out), 0);
  EXPECT_NE(out.find("(C)"), std::string::npos);
}

TEST_F(CliTest, CsvFormat) {
  std::string out;
  ASSERT_EQ(run_cli("--format csv --span cli_hot", &out), 0);
  EXPECT_NE(out.find("time_s,node,sensor,temp_F"), std::string::npos);
  EXPECT_NE(out.find("# span,0,cli_hot"), std::string::npos);
}

TEST_F(CliTest, JsonFormat) {
  std::string out;
  ASSERT_EQ(run_cli("--format json", &out), 0);
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"cli_hot\""), std::string::npos);
}

TEST_F(CliTest, AsciiPlot) {
  std::string out;
  ASSERT_EQ(run_cli("--plot CPU", &out), 0);
  EXPECT_NE(out.find("legend: *=CPU"), std::string::npos);
}

TEST_F(CliTest, GnuplotOutputs) {
  const std::string prefix = ::testing::TempDir() + "/cli_gp";
  std::string out;
  ASSERT_EQ(run_cli("--gnuplot " + prefix, &out), 0);
  const std::string dat = slurp(prefix + ".dat");
  const std::string gp = slurp(prefix + ".gp");
  EXPECT_NE(dat.find("# node=node1 sensor=CPU"), std::string::npos);
  EXPECT_NE(gp.find("set multiplot"), std::string::npos);
  EXPECT_NE(gp.find(prefix + ".dat"), std::string::npos);
}

TEST_F(CliTest, TopLimitsFunctions) {
  std::string out;
  ASSERT_EQ(run_cli("--top 1", &out), 0);
  EXPECT_NE(out.find("Function: cli_hot"), std::string::npos);
  EXPECT_EQ(out.find("Function: cli_cool"), std::string::npos);
}

/// Run the CLI with a raw argument string (no trace path appended) and
/// return its actual exit code.
int run_exit_code(const std::string& args) {
  const std::string cmd =
      std::string(TEMPEST_PARSE_BIN) + " " + args + " >/dev/null 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Run an arbitrary tool binary; returns the exit code, captures stdout.
int run_tool(const char* bin, const std::string& args, std::string* output) {
  const std::string out_path = ::testing::TempDir() + "/cli_tool." +
                               std::to_string(getpid()) + ".out";
  const std::string cmd =
      std::string(bin) + " " + args + " > " + out_path + " 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  if (output != nullptr) *output = slurp(out_path);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Run `args` by posix_spawn from this process with its output
/// discarded; its exit code, or -1.
int spawn_quietly(const std::vector<std::string>& args) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(CliTest, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_exit_code("--bogus \"" + *trace_path_ + "\""), 2);
}

TEST_F(CliTest, BadUnitIsUsageError) {
  EXPECT_EQ(run_exit_code("--unit K \"" + *trace_path_ + "\""), 2);
}

TEST_F(CliTest, BadFormatIsUsageError) {
  EXPECT_EQ(run_exit_code("--format yaml \"" + *trace_path_ + "\""), 2);
}

TEST_F(CliTest, NonNumericTopIsUsageError) {
  EXPECT_EQ(run_exit_code("--top banana \"" + *trace_path_ + "\""), 2);
  // --threads takes a strict count of at least 1, in every tool.
  const std::string trace = " \"" + *trace_path_ + "\"";
  for (const char* value : {"0", "x"}) {
    SCOPED_TRACE(value);
    const std::string threads = std::string("--threads ") + value;
    EXPECT_EQ(run_tool(TEMPEST_PARSE_BIN, threads + trace, nullptr), 2);
    EXPECT_EQ(run_tool(TEMPEST_EXPORT_BIN, threads + trace, nullptr), 2);
    EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN, threads + trace + trace, nullptr), 2);
  }
}

TEST_F(CliTest, MissingOptionValueIsUsageError) {
  EXPECT_EQ(run_exit_code("--format"), 2);
}

TEST_F(CliTest, NoTraceFileIsUsageError) { EXPECT_EQ(run_exit_code(""), 2); }

TEST_F(CliTest, NonexistentTraceIsReadError) {
  EXPECT_EQ(run_exit_code("/nonexistent.trace"), 1);
  EXPECT_EQ(run_exit_code("--stream /nonexistent.trace"), 1);
}

TEST_F(CliTest, StreamedOutputMatchesBatch) {
  std::string batch, streamed;
  ASSERT_EQ(run_cli("", &batch), 0);
  ASSERT_EQ(run_cli("--stream", &streamed), 0);
  EXPECT_EQ(streamed, batch);
  ASSERT_EQ(run_cli("--format json", &batch), 0);
  ASSERT_EQ(run_cli("--stream --format json", &streamed), 0);
  EXPECT_EQ(streamed, batch);
  ASSERT_EQ(run_cli("--format csv --span cli_hot", &batch), 0);
  ASSERT_EQ(run_cli("--stream --format csv --span cli_hot", &streamed), 0);
  EXPECT_EQ(streamed, batch);
}

TEST_F(CliTest, ExportedTimelineStreamMatchesBatch) {
  std::string batch, streamed;
  ASSERT_EQ(run_cli("--export perfetto", &batch), 0);
  ASSERT_EQ(run_cli("--export perfetto --stream", &streamed), 0);
  EXPECT_FALSE(batch.empty());
  EXPECT_EQ(streamed, batch);
  EXPECT_NE(batch.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(batch.find("\"name\":\"cli_hot\""), std::string::npos);

  ASSERT_EQ(run_cli("--export speedscope", &batch), 0);
  ASSERT_EQ(run_cli("--export speedscope --stream", &streamed), 0);
  EXPECT_EQ(streamed, batch);
  EXPECT_NE(batch.find("speedscope.app/file-format-schema.json"),
            std::string::npos);
}

TEST_F(CliTest, ExportToolMatchesParseExport) {
  std::string via_parse;
  ASSERT_EQ(run_cli("--export perfetto", &via_parse), 0);

  const std::string out_path = ::testing::TempDir() + "/cli_export.json";
  const std::string cmd = std::string(TEMPEST_EXPORT_BIN) +
                          " --format perfetto --out \"" + out_path + "\" \"" +
                          *trace_path_ + "\" >/dev/null 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(slurp(out_path), via_parse);
  // The sidecar snapshot lets tempest-top show what the export did.
  EXPECT_NE(slurp(out_path + ".telemetry.jsonl").find("export_events_exported"),
            std::string::npos);
}

TEST_F(CliTest, ToolReportsItsOwnPeakRssNotItsParents) {
  // Linux carries getrusage's ru_maxrss across posix_spawn and
  // fork+exec, so a tool started by a large process would report that
  // process's peak as its own. Hold 192 MiB, every page touched, and
  // spawn tempest-export straight from this process (no shell between):
  // the peak its telemetry sidecar reports must be the tool's.
  constexpr std::size_t kHeld = std::size_t{192} << 20;
  const std::vector<char> held(kHeld, 1);
  const std::string out_path =
      ::testing::TempDir() + "/cli_rss." + std::to_string(getpid()) + ".json";
  ASSERT_EQ(spawn_quietly({TEMPEST_EXPORT_BIN, "--format", "perfetto", "--out",
                           out_path, *trace_path_}),
            0);
  const std::string sidecar = slurp(out_path + ".telemetry.jsonl");
  std::remove(out_path.c_str());
  std::remove((out_path + ".telemetry.jsonl").c_str());
  const double peak_kb = tempest::json::read_numbers(sidecar).get("peak_rss_kb");
  EXPECT_GT(peak_kb, 0.0) << sidecar;
  EXPECT_LT(peak_kb, static_cast<double>(kHeld / 1024 / 2)) << sidecar;
  EXPECT_EQ(held[kHeld / 2], 1);
}

TEST_F(CliTest, FanInReportsEveryRanksRunStats) {
  // The recorded trace as rank 0, declaring drops, and a copy moved to
  // the next node id (thread ids + 100), declaring fewer; each declares
  // a filter naming a different function. Both tools fold the two
  // RUNSTATS trailers.
  auto loaded = tempest::trace::read_trace_file(*trace_path_);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  tempest::trace::Trace rank0 = loaded.value();
  ASSERT_TRUE(rank0.run_stats.present);
  ASSERT_EQ(rank0.nodes.size(), 1u);
  rank0.run_stats.events_dropped = 5;
  rank0.filter.present = true;
  rank0.filter.suppressed = {"alpha_fn"};
  tempest::trace::Trace rank1 = loaded.value();
  rank1.run_stats.events_dropped = 2;
  rank1.filter.present = true;
  rank1.filter.suppressed = {"beta_fn"};
  const auto node = static_cast<std::uint16_t>(rank0.nodes[0].node_id + 1);
  for (auto& n : rank1.nodes) n.node_id = node;
  for (auto& s : rank1.sensors) s.node_id = node;
  for (auto& t : rank1.threads) {
    t.thread_id += 100;
    t.node_id = node;
  }
  for (auto& e : rank1.fn_events) {
    e.thread_id += 100;
    e.node_id = node;
  }
  for (auto& s : rank1.temp_samples) s.node_id = node;
  for (auto& c : rank1.clock_syncs) c.node_id = node;
  const std::string base =
      ::testing::TempDir() + "/cli_fanin." + std::to_string(getpid());
  ASSERT_TRUE(tempest::trace::write_trace_file(base + ".rank0.trace", rank0));
  ASSERT_TRUE(tempest::trace::write_trace_file(base + ".rank1.trace", rank1));
  const std::string ranks =
      " \"" + base + ".rank0.trace\" \"" + base + ".rank1.trace\"";

  std::string out;
  ASSERT_EQ(run_tool(TEMPEST_PARSE_BIN, "--format json" + ranks, &out), 0);
  EXPECT_NE(out.find("\"run_stats\":{"), std::string::npos) << out;
  EXPECT_NE(out.find("\"events_dropped\":7"), std::string::npos) << out;

  const std::string json = base + ".perfetto.json";
  ASSERT_EQ(run_tool(TEMPEST_EXPORT_BIN,
                     "--merge-ranks --format perfetto --out \"" + json + "\"" + ranks,
                     nullptr),
            0);
  EXPECT_NE(slurp(json).find(
                "\"name\":\"recorder: events dropped\",\"args\":{\"count\":7}"),
            std::string::npos);
}

TEST_F(CliTest, BadExportFormatIsUsageError) {
  EXPECT_EQ(run_exit_code("--export svg \"" + *trace_path_ + "\""), 2);
}

TEST_F(CliTest, VersionFlagPrintsTraceFormatVersion) {
  const std::string out_path = ::testing::TempDir() + "/cli_version.out";
  const struct {
    const char* bin;
    const char* name;
  } tools[] = {{TEMPEST_PARSE_BIN, "tempest_parse"},
               {TEMPEST_EXPORT_BIN, "tempest-export"},
               {TEMPEST_TOP_BIN, "tempest-top"}};
  for (const auto& tool : tools) {
    const std::string cmd = std::string(tool.bin) + " --version > " + out_path +
                            " 2>/dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << tool.name;
    const std::string out = slurp(out_path);
    EXPECT_NE(out.find(tool.name), std::string::npos) << out;
    EXPECT_NE(out.find("trace format v"), std::string::npos) << out;
  }
}

TEST_F(CliTest, TopToleratesTruncatedHeartbeatTail) {
  // The recorder appends heartbeat lines while tempest-top reads; a
  // partially written last line must be skipped, not parsed or fatal.
  const std::string jsonl = ::testing::TempDir() + "/truncated.telemetry.jsonl";
  {
    std::ofstream out(jsonl, std::ios::trunc);
    out << "{\"t\":2.0,\"events_recorded\":100,\"events_dropped\":0}\n";
    out << "{\"t\":3.0,\"events_recorded\":250,\"events_dro";  // mid-write
  }
  const std::string out_path = ::testing::TempDir() + "/top.out";
  const std::string cmd = std::string(TEMPEST_TOP_BIN) + " --once \"" + jsonl +
                          "\" > " + out_path + " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string out = slurp(out_path);
  // Rendered the last *complete* snapshot, not the torn one.
  EXPECT_NE(out.find("t=2.0s"), std::string::npos) << out;
  EXPECT_NE(out.find("100"), std::string::npos) << out;

  // A file holding only a torn line has no usable snapshot: exit 2.
  {
    std::ofstream out_trunc(jsonl, std::ios::trunc);
    out_trunc << "{\"t\":1.0,\"events_rec";
  }
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
}

TEST_F(CliTest, TopRefusesAFifoAndADirectoryAtOnce) {
  // A heartbeat path naming a FIFO nobody writes to must not block, nor
  // a directory read as an empty file: both fail at once, exit 2.
  const std::string base = ::testing::TempDir() + "/top_nonregular." +
                           std::to_string(getpid());
  const std::string fifo = base + ".fifo.telemetry.jsonl";
  const std::string dir = base + ".dir.telemetry.jsonl";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const std::string err_path = base + ".err";
  for (const std::string& path : {fifo, dir}) {
    const std::string cmd = "timeout 10 " + std::string(TEMPEST_TOP_BIN) + " --once \"" +
                            path + "\" > /dev/null 2> " + err_path;
    const int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 2) << path;
    EXPECT_EQ(slurp(err_path), "error: " + path + ": not a regular file\n");
  }
  std::remove(fifo.c_str());
  ::rmdir(dir.c_str());
  std::remove(err_path.c_str());
}

TEST_F(CliTest, LintSymtabMissingBinaryIsUsageError) {
  EXPECT_EQ(run_tool(TEMPEST_LINT_BIN,
                     "--symtab /nonexistent-binary \"" + *trace_path_ + "\"",
                     nullptr),
            2);
}

TEST_F(CliTest, LintSymtabWithoutValueIsUsageError) {
  EXPECT_EQ(run_tool(TEMPEST_LINT_BIN, "--symtab", nullptr), 2);
}

TEST_F(CliTest, LintSymtabCrossCheckPassesOnSyntheticTrace) {
  // The CLI trace holds only synthetic-region events, which the
  // coverage cross-check exempts; tempest_parse itself carries no
  // instrumentation, so there are no unused-probe warnings either.
  std::string out;
  EXPECT_EQ(run_tool(TEMPEST_LINT_BIN,
                     "--symtab " TEMPEST_PARSE_BIN " \"" + *trace_path_ + "\"",
                     &out),
            0);
  EXPECT_NE(out.find("clean"), std::string::npos) << out;
}

TEST_F(CliTest, AuditVersionFlagPrintsTraceFormatVersion) {
  std::string out;
  ASSERT_EQ(run_tool(TEMPEST_AUDIT_BIN, "--version", &out), 0);
  EXPECT_NE(out.find("tempest-audit"), std::string::npos) << out;
  EXPECT_NE(out.find("trace format v"), std::string::npos) << out;
}

TEST_F(CliTest, AuditUsageErrors) {
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN, "", nullptr), 2);  // no binary
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN, "--bogus " TEMPEST_PARSE_BIN, nullptr),
            2);
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN,
                     TEMPEST_PARSE_BIN " " TEMPEST_EXPORT_BIN, nullptr),
            2);  // exactly one binary
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN, "/nonexistent-binary", nullptr), 2);
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN,
                     "--trace /nonexistent.trace " TEMPEST_PARSE_BIN, nullptr),
            2);
}

TEST_F(CliTest, AuditUninstrumentedBinaryReportsNoHooks) {
  std::string out;
  // tempest_parse is built without -finstrument-functions: a valid
  // audit subject with zero instrumentation, not an error...
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN, "--json " TEMPEST_PARSE_BIN, &out), 0);
  EXPECT_NE(out.find("\"hooks_linked\":false"), std::string::npos) << out;
  // ...but --strict turns the blanket coverage gap into exit 1.
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN, "--strict -q " TEMPEST_PARSE_BIN, &out),
            1);
}

TEST_F(CliTest, AuditTraceJoinAndFilterOut) {
  const std::string filter_path = ::testing::TempDir() + "/cli.filter";
  std::string out;
  EXPECT_EQ(run_tool(TEMPEST_AUDIT_BIN,
                     "--json --trace \"" + *trace_path_ + "\" --filter-out \"" +
                         filter_path + "\" " TEMPEST_PARSE_BIN,
                     &out),
            0);
  EXPECT_NE(out.find("\"from_trace\":true"), std::string::npos) << out;
  EXPECT_NE(slurp(filter_path).find("# TEMPEST_FILTER v1"), std::string::npos);
}

TEST_F(CliTest, AuditFilterOutIsByteIdenticalAcrossInvocations) {
  // The suggestion ranking is a strict total order (overhead share
  // descending, function address ascending), so re-running the exact
  // same audit must reproduce the filter file byte for byte — filters
  // checked into a repo should diff clean across regenerations.
  const std::string a = ::testing::TempDir() + "/cli_repeat_a.filter";
  const std::string b = ::testing::TempDir() + "/cli_repeat_b.filter";
  const std::string args_tail = "--trace \"" + *trace_path_ +
                                "\" --filter-top 5 " TEMPEST_PARSE_BIN;
  ASSERT_EQ(run_tool(TEMPEST_AUDIT_BIN,
                     "-q --filter-out \"" + a + "\" " + args_tail, nullptr),
            0);
  ASSERT_EQ(run_tool(TEMPEST_AUDIT_BIN,
                     "-q --filter-out \"" + b + "\" " + args_tail, nullptr),
            0);
  const std::string first = slurp(a);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, slurp(b));
}

TEST_F(CliTest, BadInputsFailGracefully) {
  const std::string out_path = ::testing::TempDir() + "/cli.out";
  EXPECT_NE(std::system((std::string(TEMPEST_PARSE_BIN) + " /nonexistent.trace > " +
                         out_path + " 2>/dev/null")
                            .c_str()),
            0);
  EXPECT_NE(std::system((std::string(TEMPEST_PARSE_BIN) + " > " + out_path +
                         " 2>/dev/null")
                            .c_str()),
            0);
}

TEST_F(CliTest, DiffSelfHasNoSignificantDeltas) {
  std::string out;
  ASSERT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "\"" + *trace_path_ + "\" \"" + *trace_path_ + "\"", &out),
            0);
  EXPECT_NE(out.find("regressions (0)"), std::string::npos) << out;
  EXPECT_NE(out.find("improvements (0)"), std::string::npos) << out;

  // --fail-on-regression must stay exit 0 on a self-diff; the JSON
  // schema must declare itself.
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "--fail-on-regression \"" + *trace_path_ + "\" \"" +
                         *trace_path_ + "\"",
                     nullptr),
            0);
  ASSERT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "--format json \"" + *trace_path_ + "\" \"" + *trace_path_ +
                         "\"",
                     &out),
            0);
  EXPECT_NE(out.find("\"schema\":\"tempest-diff\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"regressions\":[]"), std::string::npos) << out;
}

TEST_F(CliTest, DiffUsageAndReadErrors) {
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN, "", nullptr), 2);  // needs 2 traces
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN, "\"" + *trace_path_ + "\"", nullptr), 2);
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "--bogus \"" + *trace_path_ + "\" \"" + *trace_path_ + "\"",
                     nullptr),
            2);
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "--confidence 1.5 \"" + *trace_path_ + "\" \"" +
                         *trace_path_ + "\"",
                     nullptr),
            2);
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "\"" + *trace_path_ + "\" /nonexistent.trace", nullptr),
            1);
}

TEST_F(CliTest, DiffVersionFlagPrintsTraceFormatVersion) {
  std::string out;
  ASSERT_EQ(run_tool(TEMPEST_DIFF_BIN, "--version", &out), 0);
  EXPECT_NE(out.find("tempest-diff"), std::string::npos) << out;
  EXPECT_NE(out.find("trace format v"), std::string::npos) << out;
}

TEST_F(CliTest, DiffTrendEmitsSchemaVersionedSeries) {
  std::string out;
  ASSERT_EQ(run_tool(TEMPEST_DIFF_BIN,
                     "--trend \"" + *trace_path_ + "\" \"" + *trace_path_ +
                         "\" \"" + *trace_path_ + "\"",
                     &out),
            0);
  EXPECT_NE(out.find("\"schema\":\"tempest-diff-trend\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"runs\":3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"run\":2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"function\":\"cli_hot\""), std::string::npos) << out;

  // Trend mode needs at least two runs.
  EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN, "--trend \"" + *trace_path_ + "\"",
                     nullptr),
            2);
}

TEST_F(CliTest, TopConnectUnreachableCollectorIsOneLineError) {
  // Nothing listens on this port; the tool must fail fast with exit 2
  // and a single actionable stderr line naming the endpoint.
  const std::string err_path = ::testing::TempDir() + "/top_connect.err";
  const std::string cmd = std::string(TEMPEST_TOP_BIN) +
                          " --connect 127.0.0.1:1 --once >/dev/null 2> " +
                          err_path;
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("collector at 127.0.0.1:1 unreachable"), std::string::npos)
      << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

TEST_F(CliTest, NonFiniteFloatOptionsAreUsageErrors) {
  // Every float option goes through one strict parser: nan and inf are
  // rejected, not compared (a NaN budget would skip its gate).
  const std::string jsonl = ::testing::TempDir() + "/nonfinite." +
                            std::to_string(getpid()) + ".telemetry.jsonl";
  {
    std::ofstream out(jsonl, std::ios::trunc);
    out << "{\"t\":2.0,\"tempd_cpu_us\":1000000}\n";  // tempd at 50% of wall
  }
  const std::string trace = " \"" + *trace_path_ + "\"";
  for (const char* value : {"nan", "inf"}) {
    SCOPED_TRACE(value);
    const std::string v = value;
    EXPECT_EQ(run_tool(TEMPEST_TOP_BIN,
                       "--once --assert-tempd-below " + v + " \"" + jsonl + "\"",
                       nullptr),
              2);
    EXPECT_EQ(run_tool(TEMPEST_LINT_BIN, "--hz " + v + trace, nullptr), 2);
    EXPECT_EQ(run_tool(TEMPEST_LINT_BIN, "--tolerance " + v + trace, nullptr), 2);
  }
  // Seconds-valued options also reject durations an int64 nanosecond
  // clock cannot hold (past ~9.2e9 s) and non-positive ones.
  for (const char* value : {"nan", "inf", "1e10", "1e300", "-5"}) {
    SCOPED_TRACE(value);
    const std::string v = value;
    EXPECT_EQ(run_tool(TEMPEST_TOP_BIN,
                       "--once --interval " + v + " \"" + jsonl + "\"", nullptr),
              2);
    // --version makes a tool that accepts the value exit at once
    // instead of starting the daemon or polling.
    EXPECT_EQ(run_tool(TEMPEST_COLLECTD_BIN,
                       "--idle-timeout " + v + " --uds /nonexistent --version",
                       nullptr),
              2);
    EXPECT_EQ(run_tool(TEMPEST_DIFF_BIN,
                       "--poll uds:/nonexistent --count 3 --interval " + v +
                           " --version",
                       nullptr),
              2);
  }
  EXPECT_EQ(run_tool(TEMPEST_COLLECTD_BIN,
                     "--idle-timeout 1e9 --uds /nonexistent --version", nullptr),
            0);
  // The range checks still hold for finite values.
  EXPECT_EQ(run_tool(TEMPEST_TOP_BIN,
                     "--once --assert-tempd-below -1 \"" + jsonl + "\"", nullptr),
            2);
  EXPECT_EQ(run_tool(TEMPEST_COLLECTD_BIN,
                     "--idle-timeout 0 --uds /nonexistent --version", nullptr),
            2);
  EXPECT_EQ(run_tool(TEMPEST_TOP_BIN,
                     "--once --assert-tempd-below 90 \"" + jsonl + "\"", nullptr),
            0);
  EXPECT_EQ(run_tool(TEMPEST_TOP_BIN,
                     "--once --assert-tempd-below 10 \"" + jsonl + "\"", nullptr),
            1);
}

}  // namespace
