// In-memory vs streaming analysis bench: throughput and peak RSS.
//
// The streaming pipeline's claim is a memory bound, and ru_maxrss is a
// process-wide high-water mark — once a child has loaded a 1e7 event
// trace, the driver process can never "unsee" those pages. So this
// harness is a self-exec driver, not a google-benchmark suite: for each
// {mode x size} the driver forks and execs itself in child mode,
// measures wall time around wait4(), and reads the child's peak RSS
// from its rusage. Each measurement sees exactly one analysis.
//
//   batch   read_trace_file, then the in-memory entry point
//           analyze_trace: MemoryTraceSource -> ClockAlignStage ->
//           OrderCheckStage -> AnalysisSink
//   stream  ChunkedTraceSource -> ClockAlignStage -> OrderCheckStage
//           -> AnalysisSink
//
// Both children emit the text profile to a scratch file; the driver
// byte-compares batch vs stream per input, so the numbers below are for
// provably identical outputs. The inputs are the trace at 1e5, 1e6 and
// 1e7 events, then the 1e7 trace again with no samples. Results go to
// BENCH_pipeline.json; the committed copy and CI hold a full run.
//
// Gate (exit 1 on failure): the streaming child's peak RSS on both 1e7
// inputs stays under kStreamRssBoundMib — a fixed bound, because every
// sample reaches the fold before the first event and each activation
// is credited as it closes, so the fold keeps no per-activation state,
// with samples or without. Runs capped below 1e7 print SKIP instead of
// passing.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_provenance.hpp"
#include "common/cli.hpp"
#include "pipeline/analysis.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using tempest::Status;

constexpr std::size_t kThreads = 8;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kFuncs = 64;
constexpr std::uint64_t kFuncBase = 0x400000;
constexpr long kStreamRssBoundMib = 24;

/// Deterministic RNG so every run benches the same trace.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// Synthetic run in bench_parser's shape (8 threads, 4 nodes, 64
/// functions, samples ~= events/100), pre-sorted with identity clock
/// syncs: both children still run the sync fit, the rewrite and the
/// order stage, but see records already in global time order, as a
/// coherent single run records them.
tempest::trace::Trace make_trace(std::size_t n_events) {
  tempest::trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "bench_pipeline_synthetic";
  for (std::size_t n = 0; n < kNodes; ++n) {
    t.nodes.push_back({static_cast<std::uint16_t>(n), "node" + std::to_string(n)});
    for (std::uint16_t s = 0; s < 2; ++s) {
      t.sensors.push_back({static_cast<std::uint16_t>(n), s,
                           "Core " + std::to_string(s), 1.0});
    }
  }
  for (std::size_t th = 0; th < kThreads; ++th) {
    t.threads.push_back({static_cast<std::uint32_t>(th),
                         static_cast<std::uint16_t>(th % kNodes),
                         static_cast<std::uint16_t>(th)});
  }

  Lcg rng{0xb37cULL + n_events};
  const std::size_t per_thread = n_events / kThreads;
  t.fn_events.reserve(per_thread * kThreads);
  std::uint64_t max_tsc = 0;
  for (std::size_t th = 0; th < kThreads; ++th) {
    const auto tid = static_cast<std::uint32_t>(th);
    const auto node = static_cast<std::uint16_t>(th % kNodes);
    std::uint64_t tsc = 1000 + th * 7;
    std::vector<std::uint64_t> stack;
    for (std::size_t i = 0; i < per_thread; ++i) {
      tsc += rng.next() % 50 + 1;
      if (stack.empty() || (stack.size() < 8 && rng.next() % 2 == 0)) {
        const std::uint64_t addr = kFuncBase + (rng.next() % kFuncs) * 0x40;
        stack.push_back(addr);
        t.fn_events.push_back({tsc, addr, tid, node,
                               tempest::trace::FnEventKind::kEnter});
      } else {
        t.fn_events.push_back({tsc, stack.back(), tid, node,
                               tempest::trace::FnEventKind::kExit});
        stack.pop_back();
      }
    }
    max_tsc = std::max(max_tsc, tsc);
  }

  const std::size_t n_samples = std::max<std::size_t>(n_events / 100, 16);
  const std::size_t per_node = n_samples / kNodes;
  t.temp_samples.reserve(per_node * kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    const std::uint64_t step =
        std::max<std::uint64_t>(max_tsc / (per_node + 1), 1);
    for (std::size_t i = 0; i < per_node; ++i) {
      t.temp_samples.push_back({1000 + (i + 1) * step,
                                60.0 + static_cast<double>(rng.next() % 200) / 10.0,
                                static_cast<std::uint16_t>(n),
                                static_cast<std::uint16_t>(rng.next() % 2)});
    }
  }
  t.sort_by_time();
  // Identity syncs (node clock == global clock): the fit regression
  // recovers slope 1 / offset 0 exactly, so alignment preserves the
  // sorted order and OrderCheckStage takes its fast path.
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t at = (i + 1) * (max_tsc / 9);
      t.clock_syncs.push_back({at, at, static_cast<std::uint16_t>(n)});
    }
  }
  return t;
}

/// bench_parser's scratch-dir probe: /dev/shm keeps file I/O out of the
/// numbers where available.
std::string bench_path(const std::string& name) {
  static const std::string dir = [] {
    const std::string probe = "/dev/shm/tempest_bench_probe";
    std::ofstream f(probe);
    if (f) {
      f.close();
      std::remove(probe.c_str());
      return std::string("/dev/shm");
    }
    return std::string("/tmp");
  }();
  return dir + "/" + name;
}

// ---------------------------------------------------------------- child

int run_child_batch(const std::string& trace_path, std::ostream& out) {
  auto loaded = tempest::trace::read_trace_file(trace_path);
  if (!loaded.is_ok()) {
    std::cerr << "bench_pipeline: " << loaded.message() << "\n";
    return 1;
  }
  const auto analyzed = tempest::pipeline::analyze_trace(loaded.value());
  if (!analyzed.is_ok()) {
    std::cerr << "bench_pipeline: " << analyzed.message() << "\n";
    return 1;
  }
  tempest::pipeline::TextEmitter text(out);
  const Status emitted = text.emit(analyzed.value());
  if (!emitted) {
    std::cerr << "bench_pipeline: " << emitted.message() << "\n";
    return 1;
  }
  return 0;
}

int run_child_stream(const std::string& trace_path, std::ostream& out) {
  tempest::pipeline::TraceInput input;
  tempest::pipeline::TextEmitter text(out);
  tempest::pipeline::AnalysisSink sink({}, {&text});
  Status run = input.open({trace_path});
  if (run) run = input.run({&sink});
  if (!run) {
    std::cerr << "bench_pipeline: " << run.message() << "\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------- driver

struct Measurement {
  std::string mode;
  std::size_t events = 0;
  std::size_t samples = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  long max_rss_kib = 0;
};

/// Fork + exec self in child mode; wall time around wait4(), peak RSS
/// from the child's rusage.
bool run_measured(const char* self, const std::string& mode,
                  const std::string& trace_path, const std::string& emit_path,
                  std::size_t events, Measurement* out) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_pipeline: fork");
    return false;
  }
  if (pid == 0) {
    std::vector<std::string> args = {self,       "--child", mode,
                                     "--trace",  trace_path, "--emit",
                                     emit_path};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(self, argv.data());
    std::perror("bench_pipeline: execv");
    _exit(127);
  }
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("bench_pipeline: wait4");
    return false;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "bench_pipeline: child (" << mode << ", " << events
              << " events) failed\n";
    return false;
  }
  out->mode = mode;
  out->events = events;
  out->wall_s = std::chrono::duration<double>(t1 - t0).count();
  out->events_per_s =
      out->wall_s > 0.0 ? static_cast<double>(events) / out->wall_s : 0.0;
  out->max_rss_kib = ru.ru_maxrss;  // Linux reports KiB.
  return true;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run_driver(const char* self, std::size_t max_events,
               const std::string& out_path) {
  const std::vector<std::size_t> all_sizes = {100000, 1000000, 10000000};
  std::vector<std::size_t> sizes;
  for (std::size_t s : all_sizes) {
    if (s <= max_events) sizes.push_back(s);
  }
  if (sizes.empty()) {
    std::cerr << "bench_pipeline: --max-events below the smallest size ("
              << all_sizes.front() << ")\n";
    return 2;
  }

  // Every size with its samples; at full size, the same trace without.
  const bool full = sizes.back() == all_sizes.back();
  std::vector<std::pair<std::size_t, bool>> inputs;
  for (std::size_t n : sizes) inputs.emplace_back(n, true);
  if (full) inputs.emplace_back(all_sizes.back(), false);

  std::vector<Measurement> rows;
  std::vector<std::string> scratch;
  for (const auto& [n, sampled] : inputs) {
    const std::string trace_path = bench_path(
        "bench_pipeline_" + std::to_string(n) + (sampled ? "" : "_nosamples") + ".trace");
    scratch.push_back(trace_path);
    std::size_t n_samples = 0;
    {
      tempest::trace::Trace t = make_trace(n);
      if (!sampled) t.temp_samples.clear();
      n_samples = t.temp_samples.size();
      const Status written = tempest::trace::write_trace_file(trace_path, t);
      if (!written) {
        std::cerr << "bench_pipeline: " << written.message() << "\n";
        return 1;
      }
    }  // Trace freed before any child runs.

    std::string emits[2];
    const char* modes[2] = {"batch", "stream"};
    for (int m = 0; m < 2; ++m) {
      const std::string emit_path = bench_path(
          std::string("bench_pipeline_") + modes[m] + ".txt");
      scratch.push_back(emit_path);
      Measurement row;
      if (!run_measured(self, modes[m], trace_path, emit_path, n, &row)) {
        return 1;
      }
      row.samples = n_samples;
      rows.push_back(row);
      emits[m] = slurp(emit_path);
      std::fprintf(stderr,
                   "%-6s %9zu events %7zu samples  %7.3f s  %12.0f ev/s  %8ld KiB\n",
                   modes[m], n, n_samples, row.wall_s, row.events_per_s, row.max_rss_kib);
    }
    if (emits[0] != emits[1] || emits[0].empty()) {
      std::cerr << "bench_pipeline: batch and stream outputs differ at " << n
                << " events, " << n_samples
                << " samples — refusing to report numbers for divergent paths\n";
      return 1;
    }
  }
  for (const std::string& path : scratch) std::remove(path.c_str());

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "bench_pipeline: cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n  \"benchmark\": \"bench_pipeline\",\n"
       << "  \"build_type\": \"" << bench_prov::kBuildType << "\",\n"
       << "  \"cores\": " << bench_prov::cores() << ",\n"
       << "  \"git_sha\": \"" << bench_prov::git_sha() << "\",\n"
       << "  \"description\": \"streaming vs in-memory (batch) analysis: wall "
          "time and peak RSS per forked child; outputs byte-verified "
          "identical\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"events\": %zu, \"samples\": %zu, "
                  "\"wall_s\": %.4f, \"events_per_s\": %.0f, \"max_rss_kib\": %ld}%s\n",
                  r.mode.c_str(), r.events, r.samples, r.wall_s, r.events_per_s,
                  r.max_rss_kib, i + 1 < rows.size() ? "," : "");
    json << buf;
  }
  json << "  ],\n  \"summary\": [\n";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Measurement& batch = rows[i * 2];
    const Measurement& stream = rows[i * 2 + 1];
    const double rss_ratio = batch.max_rss_kib > 0
        ? static_cast<double>(stream.max_rss_kib) / batch.max_rss_kib
        : 0.0;
    const double speed_ratio = batch.events_per_s > 0.0
        ? stream.events_per_s / batch.events_per_s
        : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"events\": %zu, \"samples\": %zu, \"stream_rss_over_batch\": "
                  "%.3f, \"stream_speed_over_batch\": %.3f}%s\n",
                  stream.events, stream.samples, rss_ratio, speed_ratio,
                  i + 1 < inputs.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";
  std::cerr << "bench_pipeline: wrote " << out_path << "\n";

  // Acceptance gate: the streaming child's peak RSS on both 1e7 inputs.
  if (!full) {
    std::cerr << "bench_pipeline: SKIP: needs the 1e7 point (streaming RSS "
                 "gate; run capped at "
              << sizes.back() << " events)\n";
    return 0;
  }
  int failed = 0;
  for (const Measurement& stream : rows) {
    if (stream.mode != "stream" || stream.events != all_sizes.back()) continue;
    const bool pass = stream.max_rss_kib <= kStreamRssBoundMib * 1024;
    failed += pass ? 0 : 1;
    std::cerr << "bench_pipeline: " << (pass ? "PASS" : "FAIL") << " streaming RSS "
              << stream.max_rss_kib << " KiB " << (pass ? "within " : "exceeds ")
              << kStreamRssBoundMib << " MiB at " << stream.events << " events, "
              << stream.samples << " samples\n";
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string child_mode;
  std::string trace_path;
  std::string emit_path;
  std::string out_path = "BENCH_pipeline.json";
  std::size_t max_events = 10000000;

  tempest::cli::ArgParser args(
      "[--max-events N] [--out FILE] [--allow-debug]   (driver)\n"
      "       --child batch|stream --trace FILE --emit FILE");
  args.add_value("--child", [&](const std::string& v) {
    if (v != "batch" && v != "stream") {
      return Status::error("--child must be batch or stream, got '" + v + "'");
    }
    child_mode = v;
    return Status::ok();
  });
  args.add_value("--trace", [&](const std::string& v) {
    trace_path = v;
    return Status::ok();
  });
  args.add_value("--emit", [&](const std::string& v) {
    emit_path = v;
    return Status::ok();
  });
  args.add_value("--out", [&](const std::string& v) {
    out_path = v;
    return Status::ok();
  });
  args.add_value("--max-events", [&](const std::string& v) {
    return tempest::cli::parse_size(v, &max_events);
  });
  bool allow_debug = false;
  args.add_flag("--allow-debug", [&] { allow_debug = true; });
  const Status parsed = args.parse(argc, argv);
  if (!parsed) {
    std::cerr << "bench_pipeline: " << parsed.message() << "\n";
    args.print_usage(std::cerr, "bench_pipeline");
    return 2;
  }
  if (args.help_requested()) {
    args.print_usage(std::cout, "bench_pipeline");
    return 0;
  }

  if (!child_mode.empty()) {
    if (trace_path.empty() || emit_path.empty()) {
      std::cerr << "bench_pipeline: --child needs --trace and --emit\n";
      return 2;
    }
    std::ofstream out(emit_path, std::ios::binary);
    if (!out) {
      std::cerr << "bench_pipeline: cannot write " << emit_path << "\n";
      return 1;
    }
    return child_mode == "batch" ? run_child_batch(trace_path, out)
                                 : run_child_stream(trace_path, out);
  }
  if (!bench_prov::check_build("bench_pipeline", allow_debug)) return 2;
  // Resolve our own binary for the re-exec; argv[0] covers the PATH case.
  static char self_buf[4096];
  const ssize_t len = readlink("/proc/self/exe", self_buf, sizeof(self_buf) - 1);
  const char* self = argv[0];
  if (len > 0) {
    self_buf[len] = '\0';
    self = self_buf;
  }
  return run_driver(self, max_events, out_path);
}
