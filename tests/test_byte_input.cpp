// common::ByteInput, and every entry point that reads a path through
// it: a path naming a FIFO or a directory fails at once with
// "<path>: not a regular file" (the recorder warns and records
// unfiltered instead). A reader that blocked on a FIFO would hang, so
// each call runs in a child process under a deadline: a hang fails the
// test instead of stalling the suite. The instrumented demo's warning,
// logged before main, also pins the log clock's epoch.
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "audit/audit.hpp"
#include "common/byte_input.hpp"
#include "core/session.hpp"
#include "pipeline/source.hpp"
#include "simnode/cluster.hpp"
#include "telemetry/log.hpp"
#include "trace/reader.hpp"

namespace {

using tempest::common::ByteInput;

constexpr auto kDeadline = std::chrono::seconds(10);

/// The string `call` returns, computed in a child process. A child
/// still running at the deadline is killed, and the test fails.
std::string within_deadline(const std::function<std::string()>& call) {
  int fds[2];
  if (::pipe(fds) != 0) return "pipe failed";
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const std::string out = call();
    for (std::size_t done = 0; done < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string out;
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  bool timed_out = false;
  for (char buf[4096];;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fds[0], POLLIN, 0};
    if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) == 0) {
      timed_out = true;
      break;
    }
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (timed_out) {
    ADD_FAILURE() << "no answer within " << kDeadline.count() << " s";
    return "<timed out>";
  }
  return out;
}

/// A FIFO nobody writes to and a directory, the two non-regular paths
/// every entry point is held to.
class NonRegularPaths : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base = ::testing::TempDir() + "byte_input." + std::to_string(::getpid());
    fifo_ = base + ".fifo";
    dir_ = base + ".dir";
    ASSERT_EQ(::mkfifo(fifo_.c_str(), 0600), 0);
    ASSERT_EQ(::mkdir(dir_.c_str(), 0700), 0);
  }
  void TearDown() override {
    std::remove(fifo_.c_str());
    ::rmdir(dir_.c_str());
  }

  /// `read(path)`'s error must be "<path>: not a regular file" for both.
  void expect_refused(const std::function<std::string(const std::string&)>& read) {
    for (const std::string& path : {fifo_, dir_}) {
      EXPECT_EQ(within_deadline([&] { return read(path); }), path + ": not a regular file");
    }
  }

  std::string fifo_;
  std::string dir_;
};

template <typename T>
std::string message_of(const tempest::Result<T>& result) {
  return result.is_ok() ? std::string("<opened>") : result.message();
}

TEST_F(NonRegularPaths, TraceStreamReaderOpenFile) {
  expect_refused([](const std::string& path) {
    return message_of(tempest::trace::TraceStreamReader::open_file(path));
  });
}

TEST_F(NonRegularPaths, ReadTraceFile) {
  expect_refused([](const std::string& path) {
    return message_of(tempest::trace::read_trace_file(path));
  });
}

TEST_F(NonRegularPaths, ChunkedTraceSourceOpen) {
  expect_refused([](const std::string& path) {
    return message_of(tempest::pipeline::ChunkedTraceSource::open(path));
  });
}

TEST_F(NonRegularPaths, LintTraceFile) {
  expect_refused([](const std::string& path) {
    return message_of(tempest::analysis::lint_trace_file(path));
  });
}

TEST_F(NonRegularPaths, AuditPredictOverhead) {
  expect_refused([](const std::string& path) {
    tempest::audit::Inventory inventory;
    return message_of(tempest::audit::predict_overhead(&inventory, path));
  });
}

TEST_F(NonRegularPaths, SessionStartWarnsAndRecordsUnfiltered) {
  for (const std::string& path : {fifo_, dir_}) {
    const std::string got = within_deadline([&] {
      auto& session = tempest::core::Session::instance();
      session.clear_nodes();
      auto node_config = tempest::simnode::make_node_config(tempest::simnode::NodeKind::kX86Basic);
      node_config.package.time_scale = 30.0;
      tempest::simnode::SimNode node(node_config);
      session.register_sim_node(&node);
      tempest::core::SessionConfig config;
      config.sample_hz = 50.0;
      config.bind_affinity = false;
      config.filter_path = path;
      if (!session.start(config)) return std::string("<start failed>");
      const tempest::Status stopped = session.stop();
      session.clear_nodes();
      if (!stopped) return "<stop failed> " + stopped.message();
      if (session.last_trace().filter.present) return std::string("<filtered>");
      for (const auto& entry : tempest::telemetry::Logger::instance().ring()) {
        if (entry.level == tempest::telemetry::LogLevel::kWarn &&
            entry.message.rfind("TEMPEST_FILTER", 0) == 0) {
          return entry.message;
        }
      }
      return std::string("<no warning>");
    });
    EXPECT_EQ(got, "TEMPEST_FILTER ignored: " + path + ": not a regular file");
  }
}

#ifdef TEMPEST_DEMO_BIN
/// The instrumented demo's stderr, run with TEMPEST_FILTER=`filter`;
/// the run must complete.
std::string demo_stderr(const std::string& filter) {
  const std::string err =
      ::testing::TempDir() + "byte_input_demo." + std::to_string(::getpid()) + ".err";
  const std::string cmd = "TEMPEST_FILTER=" + filter + " TEMPEST_REPORT=0 timeout 60 " +
                          TEMPEST_DEMO_BIN + " > /dev/null 2> " + err;
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << "status " << rc;
  std::ifstream in(err);
  std::string log((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(err.c_str());
  return log;
}

TEST_F(NonRegularPaths, InstrumentedRunWithAFifoFilterCompletes) {
  // An instrumented binary starts its session from a constructor
  // function, before main and before its streams are set up: it must
  // print the warning and run to completion, unfiltered.
  const std::string log = demo_stderr(fifo_);
  EXPECT_NE(log.find("TEMPEST_FILTER ignored: " + fifo_ + ": not a regular file"),
            std::string::npos)
      << log;
}

TEST(LogEpoch, WarningBeforeMainIsStampedFromTheLoggersFirstUse) {
  // The same warning, logged before main, must not carry the host's
  // uptime as its t=: the log clock starts when the logger is first
  // used, however early that is.
  const std::string missing =
      ::testing::TempDir() + "byte_input_missing." + std::to_string(::getpid()) + ".filter";
  const std::string log = demo_stderr(missing);
  const std::size_t warning = log.find("TEMPEST_FILTER ignored");
  ASSERT_NE(warning, std::string::npos) << log;
  const std::size_t line = log.rfind('\n', warning);
  double t = -1.0;
  ASSERT_EQ(std::sscanf(log.c_str() + (line == std::string::npos ? 0 : line + 1),
                        "tempest t=%lf", &t),
            1)
      << log;
  EXPECT_GE(t, 0.0);
  EXPECT_LT(t, 60.0) << log;
}
#endif

TEST(ByteInput, MemoryRangesAreCheckedBeforeTheyAreRead) {
  const ByteInput in(std::string_view("0123456789"));
  ASSERT_TRUE(in.opened());
  EXPECT_EQ(in.size(), 10u);
  char out[4] = {};
  ASSERT_TRUE(in.read(6, 4, out));
  EXPECT_EQ(std::string(out, 4), "6789");
  EXPECT_TRUE(in.read(10, 0, out));
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [offset, size] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {7, 4}, {11, 0}, {kMax, 2}, {2, kMax}}) {
    EXPECT_FALSE(in.contains(offset, size)) << offset << "+" << size;
    const tempest::Status read = in.read(offset, size, out);
    ASSERT_FALSE(read) << offset << "+" << size;
    EXPECT_EQ(read.message(), "read beyond end of file");
  }
}

TEST(ByteInput, FileReadsByOffsetAndReportsAFileThatShrank) {
  const std::string path =
      ::testing::TempDir() + "byte_input_file." + std::to_string(::getpid());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "abcdefghij";
  }
  ByteInput in(path, "cannot open " + path);
  ASSERT_TRUE(in.opened()) << in.opened().message();
  EXPECT_EQ(in.size(), 10u);
  char out[3] = {};
  ASSERT_TRUE(in.read(3, 3, out));
  EXPECT_EQ(std::string(out, 3), "def");

  // Moved, the input keeps its descriptor.
  ByteInput moved(std::move(in));
  ASSERT_TRUE(moved.read(7, 3, out));
  EXPECT_EQ(std::string(out, 3), "hij");

  ASSERT_EQ(::truncate(path.c_str(), 5), 0);
  const tempest::Status cut = moved.read(4, 3, out);
  ASSERT_FALSE(cut);
  EXPECT_EQ(cut.message(), "short read at offset 5");
  std::remove(path.c_str());

  const ByteInput missing(path, "cannot open " + path);
  ASSERT_FALSE(missing.opened());
  EXPECT_EQ(missing.opened().message(), "cannot open " + path);
  EXPECT_EQ(missing.size(), 0u);
}

TEST_F(NonRegularPaths, ByteInputRefusesUnread) {
  expect_refused([](const std::string& path) {
    const ByteInput in(path, "cannot open " + path);
    return in.opened() ? std::string("<opened>") : in.opened().message();
  });
}

}  // namespace
