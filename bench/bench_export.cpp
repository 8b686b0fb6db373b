// Interactive-export bench: throughput and peak RSS of the Perfetto and
// speedscope emitters against the streaming-analysis baseline.
//
// The exporters' claim is the same memory bound the analysis pipeline
// makes: a 1e7-event trace exports through bounded batches, with peak
// RSS set by the per-thread stacks and name table, not the event count.
// Same self-exec harness as bench_pipeline (ru_maxrss is a process
// high-water mark, so every measurement forks):
//
//   analyze1    ChunkedTraceSource -> align -> order -> AnalysisSink,
//               single-threaded (the bench_pipeline streaming baseline,
//               re-measured here so the ratios compare like with like)
//   analyzeN    the same composition with the parallel fast path on:
//               worker-pool section decode, read-ahead, sharded fold
//               (N = hardware concurrency)
//   perfetto    the same stream driven through PerfettoExporter
//   speedscope  the same stream driven through SpeedscopeExporter
//
// Children write their output to /dev/null — the bench measures the
// emitters, not tmpfs — and speedscope's per-thread spools go to /tmp.
// Results land in BENCH_export.json. The committed copy holds a full
// 1e5..1e7 run; CI smoke re-runs the 1e5 point (--max-events 100000).
// Gates (see EXPERIMENTS.md for methodology; each prints SKIP with the
// reason when its preconditions do not hold, and any failure exits 1):
//   - peak RSS: each exporter at 1e7 events stays under
//     kExporterRssBoundMib (full runs only)
//   - multi-core: analyzeN throughput >= 3x analyze1 at the largest
//     size (only on hosts with >= 4 hardware threads)
//   - exporter throughput: each exporter within 2x of analyze1 events/s
//     at sizes >= 1e6 (formatting must not dominate analysis)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_provenance.hpp"
#include "common/cli.hpp"
#include "export/run.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using tempest::Status;

constexpr std::size_t kThreads = 8;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kFuncs = 64;
constexpr std::uint64_t kFuncBase = 0x400000;
constexpr long kExporterRssBoundMib = 24;

/// Deterministic RNG so every run benches the same trace.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// bench_pipeline's synthetic run shape: 8 threads over 4 nodes, 64
/// functions, samples ~= events/100, pre-sorted with identity clock
/// syncs so streaming's OrderCheckStage holds after alignment.
tempest::trace::Trace make_trace(std::size_t n_events) {
  tempest::trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "bench_export_synthetic";
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

  Lcg rng{0xe4907ULL + n_events};
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
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t at = (i + 1) * (max_tsc / 9);
      t.clock_syncs.push_back({at, at, static_cast<std::uint16_t>(n)});
    }
  }
  return t;
}

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

int run_child_analyze(const std::string& trace_path, unsigned threads) {
  // tempest_parse's composition, including the --threads fast path:
  // pool decode on the reader, read-ahead decorator, sharded fold in
  // the sink. threads == 1 is byte-for-byte the serial path.
  tempest::pipeline::TraceInput input;
  std::ofstream null_out("/dev/null", std::ios::binary);
  tempest::pipeline::TextEmitter text(null_out);
  tempest::pipeline::AnalysisOptions analysis_options;
  analysis_options.threads = threads;
  tempest::pipeline::AnalysisSink sink(analysis_options, {&text});
  Status run = input.open({trace_path}, true, threads);
  if (run) run = input.run({&sink});
  if (!run) {
    std::cerr << "bench_export: " << run.message() << "\n";
    return 1;
  }
  return 0;
}

int run_child_export(const std::string& trace_path,
                     tempest::exporter::Format format) {
  std::ofstream null_out("/dev/null", std::ios::binary);
  tempest::exporter::ExportRunOptions options;
  options.format = format;
  options.symbolize = false;  // synthetic addresses have no symbol table
  // Spools always go to /tmp: they hold the bulk of a big speedscope
  // export, and parking them in /dev/shm would hide exactly the memory
  // the spooling design keeps off the heap.
  options.spool_prefix = "/tmp/bench_export." + std::to_string(getpid());
  auto ran = tempest::exporter::run_export({trace_path}, null_out, options);
  if (!ran.is_ok()) {
    std::cerr << "bench_export: " << ran.message() << "\n";
    return 1;
  }
  if (ran.value().stats.events_exported == 0) {
    std::cerr << "bench_export: exported nothing\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------- driver

struct Measurement {
  std::string mode;
  std::size_t events = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  long max_rss_kib = 0;
};

bool run_measured(const char* self, const std::string& mode,
                  const std::string& child, unsigned threads,
                  const std::string& trace_path, std::size_t events,
                  Measurement* out) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_export: fork");
    return false;
  }
  if (pid == 0) {
    std::vector<std::string> args = {self,       "--child", child,
                                     "--threads", std::to_string(threads),
                                     "--trace",  trace_path};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(self, argv.data());
    std::perror("bench_export: execv");
    _exit(127);
  }
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) < 0) {
    std::perror("bench_export: wait4");
    return false;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "bench_export: child (" << mode << ", " << events
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

int run_driver(const char* self, std::size_t max_events,
               const std::string& out_path) {
  const std::vector<std::size_t> all_sizes = {100000, 1000000, 10000000};
  std::vector<std::size_t> sizes;
  for (std::size_t s : all_sizes) {
    if (s <= max_events) sizes.push_back(s);
  }
  if (sizes.empty()) {
    std::cerr << "bench_export: --max-events below the smallest size ("
              << all_sizes.front() << ")\n";
    return 2;
  }

  const unsigned hw = tempest::cli::default_analysis_threads();
  struct Mode {
    const char* name;   ///< row label in the JSON
    const char* child;  ///< --child dispatch
    unsigned threads;
  };
  const Mode modes[4] = {{"analyze1", "analyze", 1},
                         {"analyzeN", "analyze", hw},
                         {"perfetto", "perfetto", 1},
                         {"speedscope", "speedscope", 1}};
  const std::size_t kModes = 4;
  std::vector<Measurement> rows;
  for (std::size_t n : sizes) {
    const std::string trace_path =
        bench_path("bench_export_" + std::to_string(n) + ".trace");
    {
      tempest::trace::Trace t = make_trace(n);
      const Status written = tempest::trace::write_trace_file(trace_path, t);
      if (!written) {
        std::cerr << "bench_export: " << written.message() << "\n";
        return 1;
      }
    }  // Trace freed before any child runs.

    for (const Mode& mode : modes) {
      Measurement row;
      if (!run_measured(self, mode.name, mode.child, mode.threads, trace_path,
                        n, &row)) {
        return 1;
      }
      rows.push_back(row);
      std::fprintf(stderr,
                   "%-10s %9zu events  %7.3f s  %12.0f ev/s  %8ld KiB\n",
                   mode.name, n, row.wall_s, row.events_per_s,
                   row.max_rss_kib);
    }
    std::remove(trace_path.c_str());
  }

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "bench_export: cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n  \"benchmark\": \"bench_export\",\n"
       << "  \"build_type\": \"" << bench_prov::kBuildType << "\",\n"
       << "  \"cores\": " << bench_prov::cores() << ",\n"
       << "  \"git_sha\": \"" << bench_prov::git_sha() << "\",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"description\": \"Perfetto/speedscope emitters vs the "
          "streaming-analysis baseline (analyze1 serial, analyzeN parallel "
          "fast path): wall time and peak RSS per forked child, output to "
          "/dev/null\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"events\": %zu, \"wall_s\": %.4f, "
                  "\"events_per_s\": %.0f, \"max_rss_kib\": %ld}%s\n",
                  r.mode.c_str(), r.events, r.wall_s, r.events_per_s,
                  r.max_rss_kib, i + 1 < rows.size() ? "," : "");
    json << buf;
  }
  json << "  ],\n  \"summary\": [\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Measurement& analyze1 = rows[i * kModes];
    const Measurement& analyzen = rows[i * kModes + 1];
    const Measurement& perfetto = rows[i * kModes + 2];
    const Measurement& speedscope = rows[i * kModes + 3];
    const auto rss_ratio = [&](const Measurement& m) {
      return analyze1.max_rss_kib > 0
          ? static_cast<double>(m.max_rss_kib) / analyze1.max_rss_kib
          : 0.0;
    };
    const auto speed_ratio = [&](const Measurement& m) {
      return analyze1.events_per_s > 0.0
          ? m.events_per_s / analyze1.events_per_s
          : 0.0;
    };
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"events\": %zu, \"multicore_speedup\": %.3f, "
        "\"perfetto_rss_over_analyze1\": %.3f, "
        "\"speedscope_rss_over_analyze1\": %.3f, "
        "\"perfetto_speed_over_analyze1\": %.3f, "
        "\"speedscope_speed_over_analyze1\": %.3f}%s\n",
        sizes[i], speed_ratio(analyzen), rss_ratio(perfetto),
        rss_ratio(speedscope), speed_ratio(perfetto), speed_ratio(speedscope),
        i + 1 < sizes.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";
  std::cerr << "bench_export: wrote " << out_path << "\n";

  bool failed = false;
  const std::size_t last = rows.size() - kModes;

  // Gate: each exporter's peak RSS at 1e7 events stays under a fixed
  // bound (full runs only).
  if (sizes.back() == all_sizes.back()) {
    for (std::size_t m = 2; m <= 3; ++m) {
      const Measurement& exp = rows[last + m];
      if (exp.max_rss_kib > kExporterRssBoundMib * 1024) {
        std::cerr << "bench_export: FAIL " << exp.mode << " RSS "
                  << exp.max_rss_kib << " KiB exceeds " << kExporterRssBoundMib
                  << " MiB at " << sizes.back() << " events\n";
        failed = true;
      }
    }
  } else {
    std::cerr << "bench_export: SKIP: needs the 1e7 point (exporter RSS gate; "
                 "run capped at "
              << sizes.back() << " events)\n";
  }

  // Gate: the parallel fast path earns its threads — analyzeN at the
  // largest size reaches 3x analyze1 throughput. Meaningless on small
  // hosts (analyzeN degenerates to a couple of workers) and on short
  // runs (fork + setup noise swamps a 10 ms analysis).
  if (sizes.back() < 1000000) {
    std::cerr << "bench_export: SKIP multi-core gate (run capped below "
                 "1000000 events)\n";
  } else if (hw >= 4) {
    const Measurement& analyze1 = rows[last];
    const Measurement& analyzen = rows[last + 1];
    if (analyzen.events_per_s < 3.0 * analyze1.events_per_s) {
      std::cerr << "bench_export: FAIL analyzeN " << analyzen.events_per_s
                << " ev/s is below 3x analyze1 " << analyze1.events_per_s
                << " ev/s at " << sizes.back() << " events (" << hw
                << " hardware threads)\n";
      failed = true;
    }
  } else {
    std::cerr << "bench_export: SKIP multi-core gate (" << hw
              << " hardware thread(s); needs >= 4)\n";
  }

  // Gate: formatting must not dominate analysis — each exporter stays
  // within 2x of analyze1 events/s. Checked at the largest measured
  // size only: the claim is steady-state throughput, and short runs
  // are dominated by spool setup and child start-up noise.
  if (sizes.back() >= 1000000) {
    const Measurement& analyze1 = rows[last];
    for (std::size_t m = 2; m <= 3; ++m) {
      const Measurement& exp = rows[last + m];
      if (exp.events_per_s * 2.0 < analyze1.events_per_s) {
        std::cerr << "bench_export: FAIL " << exp.mode << " "
                  << exp.events_per_s << " ev/s is below half of analyze1 "
                  << analyze1.events_per_s << " ev/s at " << sizes.back()
                  << " events\n";
        failed = true;
      }
    }
  } else {
    std::cerr << "bench_export: SKIP exporter-throughput gate (run capped "
                 "below 1000000 events)\n";
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string child_mode;
  std::string trace_path;
  std::string out_path = "BENCH_export.json";
  std::size_t max_events = 10000000;
  std::size_t threads = 1;
  bool allow_debug = false;

  tempest::cli::ArgParser args(
      "[--max-events N] [--out FILE] [--allow-debug]   (driver)\n"
      "       --child analyze|perfetto|speedscope [--threads N] --trace FILE");
  args.add_value("--child", [&](const std::string& v) {
    if (v != "analyze" && v != "perfetto" && v != "speedscope") {
      return Status::error("--child must be analyze, perfetto, or "
                           "speedscope, got '" + v + "'");
    }
    child_mode = v;
    return Status::ok();
  });
  args.add_value("--trace", [&](const std::string& v) {
    trace_path = v;
    return Status::ok();
  });
  args.add_value("--out", [&](const std::string& v) {
    out_path = v;
    return Status::ok();
  });
  args.add_value("--max-events", [&](const std::string& v) {
    return tempest::cli::parse_size(v, &max_events);
  });
  args.add_value("--threads", [&](const std::string& v) {
    return tempest::cli::parse_size(v, &threads);
  });
  args.add_flag("--allow-debug", [&] { allow_debug = true; });
  const Status parsed = args.parse(argc, argv);
  if (!parsed) {
    std::cerr << "bench_export: " << parsed.message() << "\n";
    args.print_usage(std::cerr, "bench_export");
    return 2;
  }
  if (args.help_requested()) {
    args.print_usage(std::cout, "bench_export");
    return 0;
  }

  if (!child_mode.empty()) {
    if (trace_path.empty()) {
      std::cerr << "bench_export: --child needs --trace\n";
      return 2;
    }
    const unsigned n_threads =
        static_cast<unsigned>(std::max<std::size_t>(threads, 1));
    if (child_mode == "analyze") {
      return run_child_analyze(trace_path, n_threads);
    }
    return run_child_export(trace_path,
                            child_mode == "perfetto"
                                ? tempest::exporter::Format::kPerfetto
                                : tempest::exporter::Format::kSpeedscope);
  }
  if (!bench_prov::check_build("bench_export", allow_debug)) return 2;
  static char self_buf[4096];
  const ssize_t len = readlink("/proc/self/exe", self_buf, sizeof(self_buf) - 1);
  const char* self = argv[0];
  if (len > 0) {
    self_buf[len] = '\0';
    self = self_buf;
  }
  return run_driver(self, max_events, out_path);
}
