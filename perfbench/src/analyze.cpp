// `analyze` workload: offline analysis of one seeded multi-node trace.
//
// gen-analyze writes the input: 4 nodes x 2 threads with per-node clock
// offset and drift (so ClockAlignStage fits and rewrites every record),
// ~2000 region functions, stacks up to 16 deep with direct recursion,
// sibling calls that never repeat back to back (so intervals do not
// coalesce), and sparse 4 Hz samples. Ground-truth calls per (node,
// function) go beside it.
//
// analyze runs one pass in a fresh process, composed exactly as
// `tempest_parse --stream --format json --threads N` (mode profile) or
// `tempest-export --stream --format perfetto --threads 1` (mode export),
// with every Source::next, Stage::process, BatchSink call and
// ProfileEmitter::emit wrapped in a span.
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "common/worker_pool.hpp"
#include "export/clock.hpp"
#include "export/perfetto.hpp"
#include "pipeline/prefetch.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "pipeline/stages.hpp"
#include "symtab/resolver.hpp"
#include "trace/writer.hpp"

namespace perfbench {

namespace {

using tempest::Status;
namespace pipeline = tempest::pipeline;
namespace trace = tempest::trace;

constexpr std::uint64_t kEvents = 10'000'000;
constexpr std::size_t kNodes = 4;
constexpr std::size_t kThreadsPerNode = 2;
constexpr std::size_t kThreads = kNodes * kThreadsPerNode;
constexpr std::size_t kFunctions = 2000;
constexpr std::size_t kMaxDepth = 16;
constexpr double kTicksPerSecond = 1e9;
constexpr double kSampleHz = 4.0;

// ------------------------------------------------------------ wrappers

class TracedSource : public pipeline::Source {
 public:
  TracedSource(pipeline::Source* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  const pipeline::TraceMeta& meta() const override { return inner_->meta(); }
  Status next(pipeline::EventBatch* out, bool* done) override {
    const auto span = tracer_->span("pipeline.source");
    return inner_->next(out, done);
  }

 private:
  pipeline::Source* inner_;
  Tracer* tracer_;
};

class TracedStage : public pipeline::Stage {
 public:
  TracedStage(pipeline::Stage* inner, Tracer* tracer, const char* name)
      : inner_(inner), tracer_(tracer), name_(name) {}
  Status process(const pipeline::TraceMeta& meta,
                 pipeline::EventBatch* batch) override {
    const auto span = tracer_->span(name_);
    return inner_->process(meta, batch);
  }

 private:
  pipeline::Stage* inner_;
  Tracer* tracer_;
  const char* name_;
};

/// Spans `<layer>.begin`, `<layer>.batch`, `<layer>.end` around a sink.
class TracedSink : public pipeline::BatchSink {
 public:
  TracedSink(pipeline::BatchSink* inner, Tracer* tracer, const std::string& layer)
      : inner_(inner),
        tracer_(tracer),
        begin_(layer + ".begin"),
        batch_(layer + ".batch"),
        end_(layer + ".end") {}
  Status begin(const pipeline::TraceMeta& meta) override {
    const auto span = tracer_->span(begin_.c_str());
    return inner_->begin(meta);
  }
  Status on_batch(const pipeline::TraceMeta& meta,
                  const pipeline::EventBatch& batch) override {
    const auto span = tracer_->span(batch_.c_str());
    return inner_->on_batch(meta, batch);
  }
  Status on_end(const pipeline::TraceMeta& meta) override {
    const auto span = tracer_->span(end_.c_str());
    return inner_->on_end(meta);
  }

 private:
  pipeline::BatchSink* inner_;
  Tracer* tracer_;
  std::string begin_, batch_, end_;
};

class TracedEmitter : public pipeline::ProfileEmitter {
 public:
  TracedEmitter(pipeline::ProfileEmitter* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  Status emit(const pipeline::AnalysisResult& result) override {
    const auto span = tracer_->span("report.emit");
    return inner_->emit(result);
  }

 private:
  pipeline::ProfileEmitter* inner_;
  Tracer* tracer_;
};

/// Discards export output, counting bytes; with `check` it also counts
/// Perfetto `"ph":"B"` / `"ph":"E"` records so balance can be verified
/// without keeping the (hundreds of MiB) file.
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(bool check) : check_(check) {}
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t begins() const { return begins_; }
  std::uint64_t ends() const { return ends_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    if (check_) scan(std::string_view(s, static_cast<std::size_t>(n)));
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void scan(std::string_view data) {
    static constexpr std::string_view kKey = "\"ph\":\"";
    // Keep the tail between writes so a key split across two is seen.
    carry_.append(data);
    std::size_t pos = 0;
    while ((pos = carry_.find(kKey, pos)) != std::string::npos &&
           pos + kKey.size() < carry_.size()) {
      const char phase = carry_[pos + kKey.size()];
      begins_ += phase == 'B';
      ends_ += phase == 'E';
      pos += kKey.size();
    }
    carry_.erase(0, carry_.size() - std::min(carry_.size(), kKey.size()));
  }

  bool check_;
  std::string carry_;
  std::uint64_t bytes_ = 0, begins_ = 0, ends_ = 0;
};

// ----------------------------------------------------------- generator

/// Node-local clock: local = offset + global * (1 + drift).
struct NodeClock {
  double offset = 0.0;
  double rate = 1.0;
  std::uint64_t local(std::uint64_t global) const {
    return static_cast<std::uint64_t>(offset + static_cast<double>(global) * rate);
  }
};

}  // namespace

int run_gen_analyze(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t n_events = kEvents;
  const std::string out_dir = args.str("out", ".");
  Rng rng{seed * 0x51ED27ULL + 17};

  trace::Trace t;
  t.tsc_ticks_per_second = kTicksPerSecond;
  t.executable = args.str("exe");
  std::array<NodeClock, kNodes> clocks;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const auto node = static_cast<std::uint16_t>(n);
    t.nodes.push_back({node, "node" + std::to_string(n)});
    for (std::uint16_t s = 0; s < 2; ++s) {
      t.sensors.push_back({node, s, "Core " + std::to_string(s), 0.0});
    }
    // Up to 5 ms of offset and +-50 ppm of drift per node.
    clocks[n].offset = 1e9 + static_cast<double>(rng.below(5'000'000));
    clocks[n].rate = 1.0 + (rng.unit() - 0.5) * 1e-4;
  }
  for (std::size_t th = 0; th < kThreads; ++th) {
    t.threads.push_back({static_cast<std::uint32_t>(th),
                         static_cast<std::uint16_t>(th / kThreadsPerNode),
                         static_cast<std::uint16_t>(th % kThreadsPerNode)});
  }
  std::vector<std::uint64_t> addrs(kFunctions);
  for (std::size_t f = 0; f < kFunctions; ++f) {
    addrs[f] = trace::kSyntheticAddrBase + 0x1000 + f * 0x10;
    char name[16];
    std::snprintf(name, sizeof(name), "fn_%04zu", f);
    t.synthetic_symbols.push_back({addrs[f], name});
  }

  // One global clock; every record is >= 16 ticks after the previous so
  // clock-fit rounding can never reorder the aligned stream.
  struct ThreadState {
    std::vector<std::uint32_t> stack;
    std::array<std::uint32_t, kMaxDepth + 1> last_sibling{};
  };
  std::vector<ThreadState> threads(kThreads);
  std::vector<std::uint64_t> calls(kNodes * kFunctions, 0);
  t.fn_events.reserve(n_events + kThreads * kMaxDepth);
  std::uint64_t global = 1'000'000;
  auto push = [&](std::size_t th, std::uint32_t fn, trace::FnEventKind kind) {
    global += 16 + rng.below(12'000);
    const std::size_t node = th / kThreadsPerNode;
    t.fn_events.push_back({clocks[node].local(global), addrs[fn],
                           static_cast<std::uint32_t>(th),
                           static_cast<std::uint16_t>(node), kind});
  };
  while (t.fn_events.size() < n_events) {
    const std::size_t th = rng.below(kThreads);
    ThreadState& ts = threads[th];
    const std::size_t depth = ts.stack.size();
    const bool enter = depth == 0 || (depth < kMaxDepth && rng.below(100) < 45);
    if (enter) {
      std::uint32_t fn = 0;
      if (depth > 0 && rng.below(100) < 5) {
        fn = ts.stack.back();  // direct recursion
      } else {
        do {
          fn = static_cast<std::uint32_t>(rng.below(kFunctions));
        } while (fn == ts.last_sibling[depth]);
      }
      ts.last_sibling[depth] = fn;
      ts.stack.push_back(fn);
      ++calls[(th / kThreadsPerNode) * kFunctions + fn];
      push(th, fn, trace::FnEventKind::kEnter);
    } else {
      push(th, ts.stack.back(), trace::FnEventKind::kExit);
      ts.stack.pop_back();
    }
  }
  for (std::size_t th = 0; th < kThreads; ++th) {
    while (!threads[th].stack.empty()) {
      push(th, threads[th].stack.back(), trace::FnEventKind::kExit);
      threads[th].stack.pop_back();
    }
  }
  const std::uint64_t global_end = global + 1000;

  // Sparse samples: 4 Hz per node and sensor, globally ordered.
  const auto period = static_cast<std::uint64_t>(kTicksPerSecond / kSampleHz);
  for (std::uint64_t at = 1'000'000 + period; at < global_end; at += period) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      for (std::uint16_t s = 0; s < 2; ++s) {
        const std::uint64_t g = at + n * 1000 + s * 100;
        const double temp = 45.0 + 10.0 * rng.unit() + static_cast<double>(n);
        t.temp_samples.push_back({clocks[n].local(g), temp,
                                  static_cast<std::uint16_t>(n), s});
      }
    }
  }
  // Exact (local, global) pairs at 32 barriers per node.
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::uint64_t i = 0; i <= 32; ++i) {
      const std::uint64_t g = 1'000'000 + (global_end - 1'000'000) * i / 32;
      t.clock_syncs.push_back({clocks[n].local(g), g, static_cast<std::uint16_t>(n)});
    }
  }

  const std::string trace_path = out_dir + "/analyze.trace";
  const Status written = trace::write_trace_file(trace_path, t);
  if (!written) {
    std::cerr << "gen-analyze: " << written.message() << "\n";
    return 1;
  }
  std::string truth;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t f = 0; f < kFunctions; ++f) {
      const std::uint64_t c = calls[n * kFunctions + f];
      if (c == 0) continue;
      truth += std::to_string(n) + " " + t.synthetic_symbols[f].name + " " +
               std::to_string(c) + "\n";
    }
  }
  if (!write_file(out_dir + "/analyze.truth", truth)) return 1;

  JsonLine sizes;
  sizes.num("events", static_cast<double>(t.fn_events.size()));
  sizes.num("samples", static_cast<double>(t.temp_samples.size()));
  sizes.num("functions", kFunctions);
  sizes.num("max_depth", kMaxDepth);
  sizes.num("nodes", kNodes);
  sizes.num("threads", kThreads);
  sizes.num("duration_s", static_cast<double>(global_end) / kTicksPerSecond);
  JsonLine out;
  out.str("trace", trace_path);
  out.raw("sizes", sizes.done());
  std::cout << out.done() << std::endl;
  return 0;
}

int run_analyze(const Args& args) {
  namespace telemetry = tempest::telemetry;
  const std::string mode = args.str("mode", "profile");
  const auto threads = static_cast<unsigned>(std::max<std::uint64_t>(args.u64("threads", 1), 1));
  const std::string input = args.str("input");
  const std::string out_path = args.str("out");
  const bool traced = args.u64("trace", 0) != 0;
  const bool check = args.u64("check", 0) != 0;
  Tracer tracer(traced, args.u64("seed", 1));
  telemetry::metrics().reset();

  // ---- set-up: open, clock pre-pass, resolver -------------------------
  const double t0 = now_s();
  std::optional<pipeline::ChunkedTraceSource> chunked;
  std::optional<tempest::WorkerPool> pool;
  std::map<std::uint16_t, trace::ClockFit> fits;
  std::vector<trace::ClockSync> syncs;  // export: the correlator's input
  std::optional<tempest::symtab::Resolver> resolver;
  {
    const auto span = tracer.span("pipeline.open");
    auto opened = pipeline::ChunkedTraceSource::open(input);
    if (!opened.is_ok()) {
      std::cerr << "analyze: " << opened.message() << "\n";
      return 1;
    }
    chunked.emplace(std::move(opened).value());
    if (threads > 1) {
      pool.emplace(threads);
      chunked->set_decode_pool(&*pool);
    }
    // Each mode fits clocks the way its tool does: tempest_parse asks
    // for the fits, run_export for the syncs behind them.
    if (mode == "export") {
      auto ahead = chunked->clock_syncs_ahead();
      if (!ahead.is_ok()) {
        std::cerr << "analyze: " << ahead.message() << "\n";
        return 1;
      }
      syncs = std::move(ahead).value();
      fits = trace::fit_clocks(syncs);
    } else {
      auto fitted = chunked->clock_fits();
      if (!fitted.is_ok()) {
        std::cerr << "analyze: " << fitted.message() << "\n";
        return 1;
      }
      fits = std::move(fitted).value();
    }
    const pipeline::TraceMeta& meta = chunked->meta();
    if (!meta.executable.empty()) {
      auto built = tempest::symtab::Resolver::for_executable(meta.executable,
                                                             meta.load_bias);
      if (built.is_ok()) resolver.emplace(std::move(built).value());
    }
  }
  const double t1 = now_s();

  pipeline::ClockAlignStage align(std::move(fits));
  pipeline::OrderCheckStage order;
  TracedStage traced_align(&align, &tracer, "pipeline.align");
  TracedStage traced_order(&order, &tracer, "pipeline.order_check");
  pipeline::Source* source = &*chunked;
  std::optional<pipeline::PrefetchSource> prefetch;
  if (threads > 1) {
    prefetch.emplace(source);
    source = &*prefetch;
  }
  TracedSource traced_source(source, &tracer);
  const tempest::symtab::Resolver* resolver_ptr = resolver ? &*resolver : nullptr;

  JsonLine out;
  Status ran = Status::ok();
  if (mode == "profile") {
    std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
    pipeline::JsonEmitter json(file);
    TracedEmitter traced_json(&json, &tracer);
    pipeline::AnalysisOptions options;
    options.threads = threads;
    pipeline::AnalysisSink sink(options, {&traced_json}, resolver_ptr);
    TracedSink traced_sink(&sink, &tracer, "parser");
    ran = pipeline::run_pipeline(&traced_source, {&traced_align, &traced_order},
                                 {&traced_sink});
    file.flush();
    ran = file ? ran : Status::error("cannot write " + out_path);
    if (ran) {
      std::size_t functions = 0;
      for (const auto& node : sink.result().profile.nodes) {
        functions += node.functions.size();
      }
      out.num("functions", static_cast<double>(functions));
    }
    std::error_code ec;
    out.num("report_bytes", static_cast<double>(std::filesystem::file_size(out_path, ec)));
  } else {
    CountingBuf buf(check);
    std::ostream sink_out(&buf);
    tempest::exporter::ClockCorrelator correlator(
        chunked->meta().tsc_ticks_per_second, syncs);
    tempest::exporter::PerfettoExporter exporter(sink_out, std::move(correlator),
                                                 resolver_ptr);
    TracedSink traced_sink(&exporter, &tracer, "export");
    ran = pipeline::run_pipeline(&traced_source, {&traced_align, &traced_order},
                                 {&traced_sink});
    out.num("export_bytes", static_cast<double>(buf.bytes()));
    if (check) {
      out.num("begins", static_cast<double>(buf.begins()));
      out.num("ends", static_cast<double>(buf.ends()));
    }
    if (ran) {
      out.num("spans_dropped", static_cast<double>(exporter.stats().spans_dropped));
      out.num("spans_force_closed",
              static_cast<double>(exporter.stats().spans_force_closed));
    }
  }
  const double t2 = now_s();
  if (!ran) {
    std::cerr << "analyze: " << ran.message() << "\n";
    return 1;
  }

  const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
  const auto events = static_cast<double>(snap.counter(telemetry::Counter::kPipelineFnEvents));
  const auto batches = static_cast<double>(snap.counter(telemetry::Counter::kPipelineBatches));
  tracer.counter("pipeline.batches", batches);
  tracer.counter("pipeline.fn_events", events);
  std::error_code ec;
  out.str("mode", mode);
  out.num("threads", threads);
  out.num("setup_s", t1 - t0);
  out.num("run_s", t2 - t1);
  out.num("events", events);
  out.num("events_per_s", events / (t2 - t1));
  out.num("batches", batches);
  out.num("samples",
          static_cast<double>(snap.counter(telemetry::Counter::kPipelineTempSamples)));
  out.num("read_bytes", static_cast<double>(std::filesystem::file_size(input, ec)));
  out.num("peak_rss_mib", peak_rss_mib_self());
  if (traced) {
    out.raw("spans", json_span_totals(tracer));
    const std::string spans_path = args.str("spans");
    if (!spans_path.empty()) write_file(spans_path, tracer.chrome_events_json());
  }
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace perfbench
