// Analysis fast-path benchmarks (google-benchmark): seed pipeline vs
// the optimised one, stage by stage and end-to-end.
//
// Stages (fast / seed):
//   drain    one-pass merge of the     / global stable_sort of the
//            per-thread chunks         / concatenated buffers
//   write    bulk packed v2 sections   / per-field v1 stream calls
//   read     chunked section unpack    / per-field v1 stream calls
//   align    dense per-node ClockMap,  / std::map lookup and an
//            inline to_global          / out-of-line fit per record
//   timeline compact hot/cold replay,  / std::map pair keys and
//            samples credited online   / interval unions
//   profile  read back credited ranges / per-function sample scan
//
// Set-up, what every tool run pays before its first event batch:
//   open     TraceStreamReader::open_file on a 1e5-event trace with
//            2,000 synthetic symbols: the header and metadata, then the
//            pre-pass over samples, syncs and trailers
//   resolver Resolver::for_executable on this binary: its symbol and
//            string tables, sorted into address ranges
//
// End-to-end covers drain -> write -> read -> sort -> timeline ->
// profile on the same synthetic trace (8 threads, 4 nodes, 64
// functions, samples ~= events/100), at 1e5..1e7 events. The seed
// implementations live in tests/reference/reference.cpp and are never
// optimised, so the ratio reported here is the fast path's speedup. CI
// smoke runs only the /100000 variants; the committed BENCH_parser.json
// holds a full run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_provenance.hpp"

#include "core/thread_buffer.hpp"
#include "parser/profile.hpp"
#include "parser/timeline.hpp"
#include "reference/reference.hpp"
#include "symtab/resolver.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using tempest::parser::ProfileAssembler;
using tempest::parser::ProfileOptions;
using tempest::parser::TimelineDiagnostics;

constexpr std::size_t kThreads = 8;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kFuncs = 64;
constexpr std::uint64_t kFuncBase = 0x400000;

/// Deterministic RNG so every benchmark run sees the same trace.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// Build an unsorted trace the way a real run produces one: per-thread
/// time-ordered event runs concatenated into fn_events in thread order,
/// plus per-node sample blocks. Cached per size — generation costs more
/// than some of the benchmarks it feeds.
const tempest::trace::Trace& base_trace(std::size_t n_events) {
  static std::map<std::size_t, tempest::trace::Trace> cache;
  const auto it = cache.find(n_events);
  if (it != cache.end()) return it->second;

  tempest::trace::Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "bench_parser_synthetic";
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

  Lcg rng{0x7e57ULL + n_events};
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
      // Random call-tree walk, depth-capped; leftovers are force-closed
      // by the timeline pass, as in an interrupted real run.
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
    const std::uint64_t step = std::max<std::uint64_t>(max_tsc / (per_node + 1), 1);
    for (std::size_t i = 0; i < per_node; ++i) {
      t.temp_samples.push_back({1000 + (i + 1) * step,
                                60.0 + static_cast<double>(rng.next() % 200) / 10.0,
                                static_cast<std::uint16_t>(n),
                                static_cast<std::uint16_t>(rng.next() % 2)});
    }
  }
  // Every node's clock drifts (n * 20 ppm) and sits n * 1000 ticks
  // off the global one, so each node gets its own fit.
  for (std::size_t n = 0; n < kNodes; ++n) {
    const double rate = 1.0 + static_cast<double>(n) * 2e-5;
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t at = (i + 1) * (max_tsc / 9);
      const auto global = static_cast<std::uint64_t>(static_cast<double>(at) * rate) + n * 1000;
      t.clock_syncs.push_back({at, global, static_cast<std::uint16_t>(n)});
    }
  }
  return cache.emplace(n_events, std::move(t)).first->second;
}

/// Same trace, already globally sorted (input for write/timeline/profile).
const tempest::trace::Trace& sorted_trace(std::size_t n_events) {
  static std::map<std::size_t, tempest::trace::Trace> cache;
  const auto it = cache.find(n_events);
  if (it != cache.end()) return it->second;
  tempest::trace::Trace t = base_trace(n_events);
  t.sort_by_time();
  return cache.emplace(n_events, std::move(t)).first->second;
}

/// base_trace as the recorder holds it at stop: each thread's events in
/// its own chunked buffer, pushed by one short-lived thread per buffer
/// (registered in order, so the registry's ids match the events'), and
/// the trace the drain lands in — metadata and samples, no events.
struct Producer {
  std::unique_ptr<tempest::core::ThreadRegistry> registry =
      std::make_unique<tempest::core::ThreadRegistry>();
  tempest::trace::Trace trace;
};

Producer make_producer(const tempest::trace::Trace& base) {
  Producer p;
  const std::size_t per_thread = base.fn_events.size() / kThreads;
  for (std::size_t th = 0; th < kThreads; ++th) {
    std::thread([&p, &base, per_thread, th] {
      tempest::core::ThreadState* ts = p.registry->current();
      ts->node_id = static_cast<std::uint16_t>(th % kNodes);
      ts->core = static_cast<std::uint16_t>(th);
      const tempest::trace::FnEvent* events = base.fn_events.data() + th * per_thread;
      for (std::size_t i = 0; i < per_thread; ++i) ts->events.push(events[i]);
    }).join();
  }
  static_cast<tempest::trace::TraceHeader&>(p.trace) = base;
  p.trace.threads.clear();  // the drain lists them
  p.trace.temp_samples = base.temp_samples;
  p.trace.clock_syncs = base.clock_syncs;
  return p;
}

std::vector<std::pair<std::uint64_t, std::string>> func_names() {
  std::vector<std::pair<std::uint64_t, std::string>> names;
  names.reserve(kFuncs);
  for (std::size_t i = 0; i < kFuncs; ++i) {
    names.emplace_back(kFuncBase + i * 0x40, "fn" + std::to_string(i));
  }
  return names;
}

void set_events_rate(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// --- Drain ----------------------------------------------------------------
// The producer's ordering step at session stop. Filling the per-thread
// buffers is recording, not the drain, so it runs with timing paused;
// the seed side times its stable_sort alone, not the concatenating copy
// it needs first.

void BM_Drain_Fast(benchmark::State& state) {
  const auto& base = base_trace(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Producer p = make_producer(base);
    state.ResumeTiming();
    p.registry->drain_into(&p.trace, 0, nullptr);
    benchmark::DoNotOptimize(p.trace.fn_events.data());
    benchmark::ClobberMemory();
    state.PauseTiming();  // freeing the trace is not the drain
    p = Producer{};
    state.ResumeTiming();
  }
  set_events_rate(state);
}
BENCHMARK(BM_Drain_Fast)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Drain_Seed(benchmark::State& state) {
  const auto& base = base_trace(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tempest::trace::Trace t = base;
    state.ResumeTiming();
    tempest::parser::reference::sort_by_time_seed(&t);
    benchmark::DoNotOptimize(t.fn_events.data());
    benchmark::ClobberMemory();
    state.PauseTiming();
    t = tempest::trace::Trace{};
    state.ResumeTiming();
  }
  set_events_rate(state);
}
BENCHMARK(BM_Drain_Seed)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Write ----------------------------------------------------------------
// Through real files (the production API): stringstreams would charge
// both sides a buffer-regrowth tax that has nothing to do with the
// serialisation format. The file lives on tmpfs when available so the
// numbers measure the serialisation stack (packing, stream layer,
// syscalls) rather than the host's disk writeback throttling, which
// varies by multiples between runs and drowns the signal at 10^7
// events; both pipelines use the same medium either way.

const char* bench_path() {
  static const char* path = [] {
    const char* shm = "/dev/shm/tempest_bench_parser_trace.bin";
    std::ofstream probe(shm, std::ios::binary | std::ios::trunc);
    if (probe.good()) {
      probe.close();
      std::remove(shm);
      return shm;
    }
    return "/tmp/tempest_bench_parser_trace.bin";
  }();
  return path;
}

void BM_Write_Fast(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tempest::trace::write_trace_file(bench_path(), t).is_ok());
  }
  set_events_rate(state);
  std::remove(bench_path());
}
BENCHMARK(BM_Write_Fast)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Write_Seed(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  for (auto _ : state) {
    std::ofstream out(bench_path(), std::ios::binary | std::ios::trunc);
    benchmark::DoNotOptimize(
        tempest::parser::reference::write_trace_seed(out, t).is_ok());
  }
  set_events_rate(state);
  std::remove(bench_path());
}
BENCHMARK(BM_Write_Seed)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Read -----------------------------------------------------------------

void BM_Read_Fast(benchmark::State& state) {
  (void)tempest::trace::write_trace_file(bench_path(), sorted_trace(state.range(0)))
      .is_ok();
  for (auto _ : state) {
    auto result = tempest::trace::read_trace_file(bench_path());
    benchmark::DoNotOptimize(result.is_ok());
  }
  set_events_rate(state);
  std::remove(bench_path());
}
BENCHMARK(BM_Read_Fast)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Read_Seed(benchmark::State& state) {
  {
    std::ofstream out(bench_path(), std::ios::binary | std::ios::trunc);
    (void)tempest::parser::reference::write_trace_seed(out, sorted_trace(state.range(0)))
        .is_ok();
  }
  for (auto _ : state) {
    std::ifstream in(bench_path(), std::ios::binary);
    auto result = tempest::parser::reference::read_trace_seed(in);
    benchmark::DoNotOptimize(result.is_ok());
  }
  set_events_rate(state);
  std::remove(bench_path());
}
BENCHMARK(BM_Read_Seed)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Set-up ---------------------------------------------------------------
// Both carry a /100000 argument so CI's smoke filter runs them; only
// BM_OpenTrace sizes its input by it.

void BM_OpenTrace(benchmark::State& state) {
  tempest::trace::Trace t = sorted_trace(state.range(0));
  for (std::uint64_t f = 0; f < 2000; ++f) {
    char name[16];
    std::snprintf(name, sizeof(name), "fn_%04llu", static_cast<unsigned long long>(f));
    t.synthetic_symbols.push_back({tempest::trace::kSyntheticAddrBase + 0x1000 + f * 0x10, name});
  }
  (void)tempest::trace::write_trace_file(bench_path(), t).is_ok();
  for (auto _ : state) {
    auto opened = tempest::trace::TraceStreamReader::open_file(bench_path());
    benchmark::DoNotOptimize(opened.is_ok());
  }
  std::remove(bench_path());
}
BENCHMARK(BM_OpenTrace)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_ResolverBuild(benchmark::State& state) {
  const std::string self = "/proc/self/exe";
  std::size_t symbols = 0;
  for (auto _ : state) {
    auto built = tempest::symtab::Resolver::for_executable(self, 0);
    symbols = built.is_ok() ? built.value().symbol_count() : 0;
    benchmark::DoNotOptimize(symbols);
  }
  state.counters["symbols"] = static_cast<double>(symbols);
}
BENCHMARK(BM_ResolverBuild)->Arg(100000)->Unit(benchmark::kMicrosecond);

// --- Align ----------------------------------------------------------------
// The per-record rewrite into the global clock on the sorted trace's
// events and samples. Restoring the node-domain timestamps is set-up,
// so it runs with timing paused.

template <bool kSeed>
void align(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  const auto fits = tempest::trace::fit_clocks(t.clock_syncs);
  std::vector<tempest::trace::FnEvent> events;
  std::vector<tempest::trace::TempSample> samples;
  for (auto _ : state) {
    state.PauseTiming();
    events = t.fn_events;
    samples = t.temp_samples;
    state.ResumeTiming();
    if constexpr (kSeed) {
      tempest::parser::reference::align_records_seed(fits, &events, &samples);
    } else {
      const tempest::trace::ClockMap clocks(fits);
      clocks.align(&events);
      clocks.align(&samples);
    }
    benchmark::DoNotOptimize(events.data());
    benchmark::DoNotOptimize(samples.data());
    benchmark::ClobberMemory();
  }
  set_events_rate(state);
}

void BM_Align_Fast(benchmark::State& state) { align<false>(state); }
BENCHMARK(BM_Align_Fast)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Align_Seed(benchmark::State& state) { align<true>(state); }
BENCHMARK(BM_Align_Seed)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Timeline -------------------------------------------------------------

void BM_Timeline_Fast(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  for (auto _ : state) {
    TimelineDiagnostics diag;
    auto timeline = tempest::parser::build_timeline(t, &diag);
    benchmark::DoNotOptimize(timeline.size());
  }
  set_events_rate(state);
}
BENCHMARK(BM_Timeline_Fast)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Timeline_Seed(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  for (auto _ : state) {
    TimelineDiagnostics diag;
    auto timeline = tempest::parser::reference::build_timeline_seed(t, &diag);
    benchmark::DoNotOptimize(timeline.size());
  }
  set_events_rate(state);
}
BENCHMARK(BM_Timeline_Seed)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Profile --------------------------------------------------------------

void BM_Profile_Fast(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  TimelineDiagnostics diag;
  const auto timeline = tempest::parser::build_timeline(t, &diag);
  const auto names = func_names();
  ProfileAssembler assembler{ProfileOptions{}};
  assembler.set_metadata(t);
  assembler.add_samples(t.temp_samples.data(), t.temp_samples.size());
  for (auto _ : state) {
    auto profile =
        assembler.assemble(t.start_tsc(), t.end_tsc(), timeline, names, diag);
    benchmark::DoNotOptimize(profile.nodes.size());
  }
  set_events_rate(state);
}
BENCHMARK(BM_Profile_Fast)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Profile_Seed(benchmark::State& state) {
  const auto& t = sorted_trace(state.range(0));
  TimelineDiagnostics diag;
  const auto timeline = tempest::parser::reference::build_timeline_seed(t, &diag);
  const auto names = func_names();
  const ProfileOptions options;
  for (auto _ : state) {
    auto profile = tempest::parser::reference::build_profile_seed(
        t, timeline, names, diag, options);
    benchmark::DoNotOptimize(profile.nodes.size());
  }
  set_events_rate(state);
}
BENCHMARK(BM_Profile_Seed)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- End to end -----------------------------------------------------------
// Full analysis round trip from the recorder's per-thread buffers:
// producer drain -> serialise -> deserialise -> parser sort -> timeline
// -> profile (the seed starts from the concatenated buffers and sorts
// them). The 1e7 variants run two iterations each to keep the suite's
// wall time bounded.

template <bool kSeed>
void end_to_end(benchmark::State& state) {
  const auto& base = base_trace(state.range(0));
  const auto names = func_names();
  const ProfileOptions options;
  for (auto _ : state) {
    state.PauseTiming();  // materialising the input is not the pipeline
    tempest::trace::Trace t;
    Producer p;
    if constexpr (kSeed) {
      t = base;
    } else {
      p = make_producer(base);
    }
    state.ResumeTiming();
    TimelineDiagnostics diag;
    tempest::parser::RunProfile profile;
    if constexpr (kSeed) {
      tempest::parser::reference::sort_by_time_seed(&t);
      {
        std::ofstream out(bench_path(), std::ios::binary | std::ios::trunc);
        (void)tempest::parser::reference::write_trace_seed(out, t).is_ok();
      }
      std::ifstream in(bench_path(), std::ios::binary);
      auto rt = tempest::parser::reference::read_trace_seed(in);
      tempest::trace::Trace loaded = std::move(rt).value();
      tempest::parser::reference::sort_by_time_seed(&loaded);
      const auto timeline =
          tempest::parser::reference::build_timeline_seed(loaded, &diag);
      profile = tempest::parser::reference::build_profile_seed(
          loaded, timeline, names, diag, options);
    } else {
      p.registry->drain_into(&p.trace, 0, nullptr);
      p.trace.sort_samples_by_time();  // as Session::stop: samples, bounds
      (void)tempest::trace::write_trace_file(bench_path(), p.trace).is_ok();
      auto rt = tempest::trace::read_trace_file(bench_path());
      tempest::trace::Trace loaded = std::move(rt).value();
      loaded.sort_by_time();
      const auto timeline = tempest::parser::build_timeline(loaded, &diag);
      ProfileAssembler assembler(options);
      assembler.set_metadata(loaded);
      assembler.add_samples(loaded.temp_samples.data(),
                            loaded.temp_samples.size());
      profile = assembler.assemble(loaded.start_tsc(), loaded.end_tsc(),
                                   timeline, names, diag);
    }
    benchmark::DoNotOptimize(profile.nodes.size());
  }
  set_events_rate(state);
  std::remove(bench_path());
}

void BM_EndToEnd_Fast(benchmark::State& state) { end_to_end<false>(state); }
BENCHMARK(BM_EndToEnd_Fast)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEnd_Fast)
    ->Arg(10000000)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEnd_Seed(benchmark::State& state) { end_to_end<true>(state); }
BENCHMARK(BM_EndToEnd_Seed)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEnd_Seed)
    ->Arg(10000000)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN with a provenance gate in front: google-benchmark
// already stamps library_build_type into its JSON context, but that
// reports the *benchmark library's* build, not ours — refuse to measure
// an unoptimised tempest build unless --allow-debug is passed.
int main(int argc, char** argv) {
  bool allow_debug = false;
  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--allow-debug") {
      allow_debug = true;
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;
  if (!bench_prov::check_build("bench_parser", allow_debug)) return 2;
  benchmark::AddCustomContext("tempest_build_type", bench_prov::kBuildType);
  benchmark::AddCustomContext("cores", std::to_string(bench_prov::cores()));
  benchmark::AddCustomContext("git_sha", bench_prov::git_sha());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
