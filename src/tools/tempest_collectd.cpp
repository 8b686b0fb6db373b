// tempest-collectd: fleet-scale live collector daemon.
//
//   tempest-collectd [options]
//     --uds PATH             Unix-domain ingest socket (what recording
//                            sessions point TEMPEST_COLLECT=uds:PATH at)
//     --tcp HOST:PORT        TCP ingest endpoint (multi-host fleets)
//     --http HOST:PORT       HTTP/JSON query plane (default
//                            127.0.0.1:0 — an ephemeral port)
//     --port-file PATH       write the bound HTTP port to PATH (scripts
//                            discover an ephemeral --http port here)
//     --shards N             fold shards (default min(4, cores))
//     --max-frame BYTES      reject larger ingest frames (default 8 MiB)
//     --queue-frames N       per-shard queue frame bound (default 256)
//     --queue-bytes BYTES    per-shard queue byte bound (default 32 MiB)
//     --idle-timeout SECS    reap silent connections (default 30; a
//                            duration in seconds, 0 < SECS <= 1e9)
//     --retain-sessions N    keep at most N finished sessions in the
//                            /sessions detail map (default 512); fleet
//                            rollups survive reaping
//     --unit C|F             temperature unit for folded profiles
//     --version              print tool and trace-format version
//
// At least one ingest endpoint (--uds or --tcp) is required. The
// daemon runs until SIGINT/SIGTERM, then drains its fold shards and
// exits 0. Query it with e.g.
//   curl http://127.0.0.1:$PORT/profile?top=10
// or point `tempest-top --connect 127.0.0.1:$PORT` at it for a live
// fleet view.
//
// Exit codes: 0 clean shutdown, 2 usage error or bind failure.
#include <csignal>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "collectd/collector.hpp"
#include "common/cli.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "trace/writer.hpp"

namespace {

std::atomic<bool> g_stop{false};

void stop_signal_handler(int /*signo*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

constexpr const char* kUsage =
    "[--uds PATH] [--tcp HOST:PORT] [--http HOST:PORT] [--port-file PATH] "
    "[--shards N] [--max-frame BYTES] [--queue-frames N] "
    "[--queue-bytes BYTES] [--idle-timeout SECS] [--retain-sessions N] "
    "[--unit C|F] [--version]\n"
    "       SECS is a duration in seconds, 0 < SECS <= 1e9";

}  // namespace

int main(int argc, char** argv) {
  using tempest::Status;
  using tempest::collectd::CollectorOptions;

  CollectorOptions options;
  std::string port_file;
  bool version = false;

  tempest::cli::ArgParser args(kUsage);
  args.add_value("--uds", [&](const std::string& v) {
    options.ingest_uds = v;
    return Status::ok();
  });
  args.add_value("--tcp", [&](const std::string& v) {
    options.ingest_tcp = v;
    return Status::ok();
  });
  args.add_value("--http", [&](const std::string& v) {
    options.http_tcp = v;
    return Status::ok();
  });
  args.add_value("--port-file", [&](const std::string& v) {
    port_file = v;
    return Status::ok();
  });
  args.add_value("--shards", [&](const std::string& v) {
    std::size_t n = 0;
    const Status st = tempest::cli::parse_size(v, &n);
    if (!st.is_ok()) return st;
    options.shards = static_cast<unsigned>(n);
    return Status::ok();
  });
  // --max-frame, --queue-frames and --queue-bytes take a positive size.
  const auto positive = [&args](const std::string& name, std::size_t* out) {
    args.add_value(name, [name, out](const std::string& v) {
      std::size_t n = 0;
      Status st = tempest::cli::parse_size(v, &n);
      if (st && n == 0) st = Status::error(name + " must be positive");
      if (st) *out = n;
      return st;
    });
  };
  positive("--max-frame", &options.max_frame_bytes);
  positive("--queue-frames", &options.max_queue_frames);
  positive("--queue-bytes", &options.max_queue_bytes);
  args.add_value("--idle-timeout", [&](const std::string& v) {
    return tempest::cli::parse_seconds(v, &options.idle_timeout_s);
  });
  args.add_value("--retain-sessions", [&](const std::string& v) {
    std::size_t n = 0;
    const Status st = tempest::cli::parse_size(v, &n);
    if (!st.is_ok()) return st;
    options.max_terminal_sessions = n;
    return Status::ok();
  });
  args.add_value("--unit", [&](const std::string& v) {
    if (!tempest::parse_temp_unit(v, &options.profile.unit)) {
      return Status::error("bad --unit value '" + v + "' (want C or F)");
    }
    return Status::ok();
  });
  args.add_flag("--version", [&] { version = true; });

  const Status parsed = args.parse(argc, argv);
  if (parsed.is_ok() && version) {
    tempest::cli::print_version(std::cout, "tempest-collectd",
                                tempest::trace::kTraceVersion);
    return 0;
  }
  if (!parsed.is_ok() || args.help_requested() || !args.positional().empty() ||
      (options.ingest_uds.empty() && options.ingest_tcp.empty())) {
    if (!parsed.is_ok()) std::cerr << "error: " << parsed.message() << "\n";
    if (parsed.is_ok() && !args.help_requested() &&
        options.ingest_uds.empty() && options.ingest_tcp.empty()) {
      std::cerr << "error: need an ingest endpoint (--uds or --tcp)\n";
    }
    args.print_usage(std::cerr, argv[0]);
    return 2;
  }

  tempest::collectd::Collector collector(options);
  const Status started = collector.start();
  if (!started.is_ok()) {
    std::cerr << "error: " << started.message() << "\n";
    return 2;
  }
  std::cout << "tempest-collectd: http port " << collector.http_port()
            << std::endl;
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << collector.http_port() << "\n";
    if (!out) {
      std::cerr << "error: cannot write --port-file " << port_file << "\n";
      collector.stop();
      return 2;
    }
  }

  struct sigaction sa {};
  sa.sa_handler = stop_signal_handler;
  sigemptyset(&sa.sa_mask);
  (void)::sigaction(SIGINT, &sa, nullptr);
  (void)::sigaction(SIGTERM, &sa, nullptr);

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  collector.stop();
  return 0;
}
