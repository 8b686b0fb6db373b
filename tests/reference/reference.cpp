#include "reference/reference.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "trace/writer.hpp"

namespace tempest::parser::reference {
namespace {

constexpr std::uint32_t kSeedTraceVersion = 1;

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_string(std::ostream& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

class Cursor {
 public:
  explicit Cursor(std::istream& in) : in_(in) {}

  template <typename T>
  bool get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    in_.read(reinterpret_cast<char*>(out), sizeof(T));
    return static_cast<bool>(in_);
  }

  bool get_string(std::string* out) {
    std::uint32_t len = 0;
    if (!get(&len)) return false;
    if (len > kMaxString) return false;
    out->resize(len);
    in_.read(out->data(), len);
    return static_cast<bool>(in_);
  }

 private:
  static constexpr std::uint32_t kMaxString = 1 << 20;
  std::istream& in_;
};

constexpr std::uint64_t kMaxRecords = 1ULL << 32;
constexpr std::uint64_t kReserveCap = 1ULL << 16;

std::uint64_t to_global_seed(const trace::ClockFit& fit, std::uint64_t node_tsc) {
  const double dx = static_cast<double>(node_tsc) - static_cast<double>(fit.ref);
  const double g = fit.a * dx + fit.b;
  return g <= 0.0 ? 0 : static_cast<std::uint64_t>(g);
}

template <typename Record>
void align_seed(const std::map<std::uint16_t, trace::ClockFit>& fits,
                std::vector<Record>* records) {
  for (auto& r : *records) {
    const auto it = fits.find(r.node_id);
    if (it != fits.end()) r.tsc = to_global_seed(it->second, r.tsc);
  }
}

}  // namespace

bool SeedFunction::contains(std::uint64_t tsc) const {
  const auto it = std::upper_bound(
      merged.begin(), merged.end(), tsc,
      [](std::uint64_t t, const SeedInterval& iv) { return t < iv.begin; });
  if (it == merged.begin()) return false;
  const SeedInterval& iv = *std::prev(it);
  return tsc >= iv.begin && tsc < iv.end;
}

void merge_intervals_seed(std::vector<SeedInterval>* intervals) {
  if (intervals->empty()) return;
  std::sort(intervals->begin(), intervals->end(),
            [](const SeedInterval& a, const SeedInterval& b) { return a.begin < b.begin; });
  std::vector<SeedInterval> out;
  out.reserve(intervals->size());
  out.push_back((*intervals)[0]);
  for (std::size_t i = 1; i < intervals->size(); ++i) {
    const SeedInterval& iv = (*intervals)[i];
    if (iv.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  *intervals = std::move(out);
}

void sort_by_time_seed(trace::Trace* trace) {
  std::stable_sort(
      trace->fn_events.begin(), trace->fn_events.end(),
      [](const trace::FnEvent& a, const trace::FnEvent& b) { return a.tsc < b.tsc; });
  std::stable_sort(trace->temp_samples.begin(), trace->temp_samples.end(),
                   [](const trace::TempSample& a, const trace::TempSample& b) {
                     return a.tsc < b.tsc;
                   });
}

void align_records_seed(const std::map<std::uint16_t, trace::ClockFit>& fits,
                        std::vector<trace::FnEvent>* events,
                        std::vector<trace::TempSample>* samples) {
  align_seed(fits, events);
  align_seed(fits, samples);
}

void align_clocks_seed(trace::Trace* trace) {
  if (trace->clock_syncs.empty()) return;
  align_records_seed(trace::fit_clocks(trace->clock_syncs), &trace->fn_events, &trace->temp_samples);
  trace->clock_syncs.clear();
  sort_by_time_seed(trace);
}

SeedTimeline build_timeline_seed(const trace::Trace& trace,
                                 TimelineDiagnostics* diag) {
  TimelineDiagnostics local_diag;

  struct OpenState {
    std::uint64_t depth = 0;
    std::uint64_t first_enter = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, OpenState> open;
  std::map<std::uint32_t, std::uint16_t> thread_node;
  for (const auto& t : trace.threads) thread_node[t.thread_id] = t.node_id;

  std::map<std::pair<std::uint16_t, std::uint64_t>, std::vector<SeedInterval>> raw;
  SeedTimeline result;

  auto node_of = [&](const trace::FnEvent& e) -> std::uint16_t {
    const auto it = thread_node.find(e.thread_id);
    return it != thread_node.end() ? it->second : e.node_id;
  };

  for (const auto& e : trace.fn_events) {
    const auto key = std::make_pair(e.thread_id, e.addr);
    const std::uint16_t node = node_of(e);
    auto& fn = result[{node, e.addr}];
    fn.addr = e.addr;
    fn.node_id = node;

    if (e.kind == trace::FnEventKind::kEnter) {
      OpenState& st = open[key];
      if (st.depth == 0) st.first_enter = e.tsc;
      ++st.depth;
      ++fn.calls;
    } else {
      const auto it = open.find(key);
      if (it == open.end() || it->second.depth == 0) {
        ++local_diag.unmatched_exits;
        continue;
      }
      --it->second.depth;
      if (it->second.depth == 0) {
        const SeedInterval iv{it->second.first_enter, e.tsc};
        raw[{node, e.addr}].push_back(iv);
        fn.total_ticks += iv.length();
      }
    }
  }

  const std::uint64_t end = trace.end_tsc();
  for (const auto& [key, st] : open) {
    if (st.depth == 0) continue;
    ++local_diag.force_closed;
    const std::uint32_t tid = key.first;
    const std::uint64_t addr = key.second;
    const auto nit = thread_node.find(tid);
    const std::uint16_t node = nit != thread_node.end() ? nit->second : 0;
    const SeedInterval iv{st.first_enter, end};
    raw[{node, addr}].push_back(iv);
    result[{node, addr}].total_ticks += iv.length();
  }

  for (auto& [key, intervals] : raw) {
    merge_intervals_seed(&intervals);
    result[key].merged = std::move(intervals);
  }
  for (auto it = result.begin(); it != result.end();) {
    if (it->second.merged.empty()) {
      it = result.erase(it);
    } else {
      ++it;
    }
  }

  if (diag != nullptr) *diag = local_diag;
  return result;
}

RunProfile build_profile_seed(
    const trace::Trace& trace, const SeedTimeline& timeline,
    const std::vector<std::pair<std::uint64_t, std::string>>& names,
    TimelineDiagnostics diagnostics, const ProfileOptions& options) {
  RunProfile run;
  run.unit = options.unit;
  run.diagnostics = diagnostics;

  std::map<std::uint64_t, std::string> name_map(names.begin(), names.end());

  std::map<std::pair<std::uint16_t, std::uint16_t>, const trace::SensorMeta*> sensor_meta;
  for (const auto& s : trace.sensors) sensor_meta[{s.node_id, s.sensor_id}] = &s;

  std::map<std::uint16_t, std::vector<const trace::TempSample*>> node_samples;
  for (const auto& s : trace.temp_samples) node_samples[s.node_id].push_back(&s);

  const std::uint64_t run_start = trace.start_tsc();
  const std::uint64_t run_end = trace.end_tsc();
  const double ticks_per_s =
      trace.tsc_ticks_per_second > 0.0 ? trace.tsc_ticks_per_second : 1.0;
  run.duration_s = static_cast<double>(run_end - run_start) / ticks_per_s;

  std::map<std::uint16_t, NodeProfile> nodes;
  for (const auto& n : trace.nodes) {
    nodes[n.node_id].node_id = n.node_id;
    nodes[n.node_id].hostname = n.hostname;
  }

  for (const auto& [key, fn_intervals] : timeline) {
    const std::uint16_t node_id = key.first;
    NodeProfile& node = nodes[node_id];
    node.node_id = node_id;

    FunctionProfile fn;
    fn.addr = fn_intervals.addr;
    const auto name_it = name_map.find(fn.addr);
    fn.name = name_it != name_map.end() ? name_it->second : "<unknown>";
    fn.total_time_s = static_cast<double>(fn_intervals.total_ticks) / ticks_per_s;
    fn.calls = fn_intervals.calls;

    std::map<std::uint16_t, SampleSet> per_sensor;
    const auto samples_it = node_samples.find(node_id);
    if (samples_it != node_samples.end()) {
      for (const trace::TempSample* s : samples_it->second) {
        if (fn_intervals.contains(s->tsc)) {
          per_sensor[s->sensor_id].add(to_unit(s->temp_c, options.unit));
        }
      }
    }

    std::size_t max_count = 0;
    for (const auto& [sid, set] : per_sensor) max_count = std::max(max_count, set.count());
    fn.significant = max_count >= options.min_samples_significant;

    if (!fn.significant && samples_it != node_samples.end() &&
        !samples_it->second.empty() && !fn_intervals.merged.empty()) {
      per_sensor.clear();
      const std::uint64_t at = fn_intervals.merged.front().begin;
      std::map<std::uint16_t, std::pair<std::uint64_t, double>> best;
      for (const trace::TempSample* s : samples_it->second) {
        const std::uint64_t dist = s->tsc > at ? s->tsc - at : at - s->tsc;
        const auto it = best.find(s->sensor_id);
        if (it == best.end() || dist < it->second.first) {
          best[s->sensor_id] = {dist, to_unit(s->temp_c, options.unit)};
        }
      }
      for (const auto& [sid, dt] : best) per_sensor[sid].add(dt.second);
    }

    for (const auto& [sid, set] : per_sensor) {
      SensorProfile sp;
      sp.sensor_id = sid;
      const auto meta_it = sensor_meta.find({node_id, sid});
      sp.name = meta_it != sensor_meta.end() ? meta_it->second->name
                                             : "sensor" + std::to_string(sid + 1);
      sp.sample_count = set.count();
      sp.stats = set.summarize();
      fn.sensors.push_back(std::move(sp));
    }
    node.functions.push_back(std::move(fn));
  }

  for (auto& [id, node] : nodes) {
    std::sort(node.functions.begin(), node.functions.end(),
              [](const FunctionProfile& a, const FunctionProfile& b) {
                return a.total_time_s > b.total_time_s;
              });
    std::uint64_t lo = UINT64_MAX, hi = 0;
    const auto samples_it = node_samples.find(id);
    if (samples_it != node_samples.end()) {
      for (const trace::TempSample* s : samples_it->second) {
        lo = std::min(lo, s->tsc);
        hi = std::max(hi, s->tsc);
      }
    }
    for (const auto& [key, fi] : timeline) {
      if (key.first != id || fi.merged.empty()) continue;
      lo = std::min(lo, fi.merged.front().begin);
      hi = std::max(hi, fi.merged.back().end);
    }
    node.duration_s = (hi > lo && lo != UINT64_MAX)
                          ? static_cast<double>(hi - lo) / ticks_per_s
                          : 0.0;
    run.nodes.push_back(std::move(node));
  }
  return run;
}

Status write_trace_seed(std::ostream& out, const trace::Trace& trace) {
  put(out, trace::kTraceMagic);
  put(out, kSeedTraceVersion);
  put(out, trace.tsc_ticks_per_second);
  put_string(out, trace.executable);
  put(out, trace.load_bias);

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.nodes.size()));
  for (const auto& n : trace.nodes) {
    put(out, n.node_id);
    put_string(out, n.hostname);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.sensors.size()));
  for (const auto& s : trace.sensors) {
    put(out, s.node_id);
    put(out, s.sensor_id);
    put(out, s.quant_step_c);
    put_string(out, s.name);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.threads.size()));
  for (const auto& t : trace.threads) {
    put(out, t.thread_id);
    put(out, t.node_id);
    put(out, t.core);
  }

  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.synthetic_symbols.size()));
  for (const auto& s : trace.synthetic_symbols) {
    put(out, s.addr);
    put_string(out, s.name);
  }

  put<std::uint64_t>(out, trace.fn_events.size());
  for (const auto& e : trace.fn_events) {
    put(out, e.tsc);
    put(out, e.addr);
    put(out, e.thread_id);
    put(out, e.node_id);
    put(out, static_cast<std::uint8_t>(e.kind));
  }

  put<std::uint64_t>(out, trace.temp_samples.size());
  for (const auto& s : trace.temp_samples) {
    put(out, s.tsc);
    put(out, s.temp_c);
    put(out, s.node_id);
    put(out, s.sensor_id);
  }

  put<std::uint64_t>(out, trace.clock_syncs.size());
  for (const auto& c : trace.clock_syncs) {
    put(out, c.node_tsc);
    put(out, c.global_tsc);
    put(out, c.node_id);
  }

  if (!out) return Status::error("trace write failed (stream error)");
  return Status::ok();
}

Result<trace::Trace> read_trace_seed(std::istream& in) {
  using trace::Trace;
  Cursor cur(in);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  Trace trace;

  if (!cur.get(&magic) || magic != trace::kTraceMagic) {
    return Result<Trace>::error("not a Tempest trace (bad magic)");
  }
  if (!cur.get(&version) || version != kSeedTraceVersion) {
    return Result<Trace>::error("unsupported trace version");
  }
  if (!cur.get(&trace.tsc_ticks_per_second) || !cur.get_string(&trace.executable) ||
      !cur.get(&trace.load_bias)) {
    return Result<Trace>::error("truncated trace header");
  }

  std::uint32_t n32 = 0;
  if (!cur.get(&n32)) return Result<Trace>::error("truncated node section");
  trace.nodes.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    trace::NodeInfo n;
    if (!cur.get(&n.node_id) || !cur.get_string(&n.hostname)) {
      return Result<Trace>::error("truncated node record");
    }
    trace.nodes.push_back(std::move(n));
  }

  if (!cur.get(&n32)) return Result<Trace>::error("truncated sensor section");
  trace.sensors.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    trace::SensorMeta s;
    if (!cur.get(&s.node_id) || !cur.get(&s.sensor_id) || !cur.get(&s.quant_step_c) ||
        !cur.get_string(&s.name)) {
      return Result<Trace>::error("truncated sensor record");
    }
    trace.sensors.push_back(std::move(s));
  }

  if (!cur.get(&n32)) return Result<Trace>::error("truncated thread section");
  trace.threads.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    trace::ThreadInfo t;
    if (!cur.get(&t.thread_id) || !cur.get(&t.node_id) || !cur.get(&t.core)) {
      return Result<Trace>::error("truncated thread record");
    }
    trace.threads.push_back(t);
  }

  if (!cur.get(&n32)) return Result<Trace>::error("truncated synthetic-symbol section");
  trace.synthetic_symbols.reserve(std::min<std::uint64_t>(n32, kReserveCap));
  for (std::uint32_t i = 0; i < n32; ++i) {
    trace::SyntheticSymbol s;
    if (!cur.get(&s.addr) || !cur.get_string(&s.name)) {
      return Result<Trace>::error("truncated synthetic symbol");
    }
    trace.synthetic_symbols.push_back(std::move(s));
  }

  std::uint64_t n64 = 0;
  if (!cur.get(&n64) || n64 > kMaxRecords) {
    return Result<Trace>::error("truncated or oversized event section");
  }
  trace.fn_events.reserve(std::min(n64, kReserveCap));
  for (std::uint64_t i = 0; i < n64; ++i) {
    trace::FnEvent e;
    std::uint8_t kind = 0;
    if (!cur.get(&e.tsc) || !cur.get(&e.addr) || !cur.get(&e.thread_id) ||
        !cur.get(&e.node_id) || !cur.get(&kind)) {
      return Result<Trace>::error("truncated fn event");
    }
    if (kind != 1 && kind != 2) return Result<Trace>::error("corrupt fn event kind");
    e.kind = static_cast<trace::FnEventKind>(kind);
    trace.fn_events.push_back(e);
  }

  if (!cur.get(&n64) || n64 > kMaxRecords) {
    return Result<Trace>::error("truncated or oversized sample section");
  }
  trace.temp_samples.reserve(std::min(n64, kReserveCap));
  for (std::uint64_t i = 0; i < n64; ++i) {
    trace::TempSample s;
    if (!cur.get(&s.tsc) || !cur.get(&s.temp_c) || !cur.get(&s.node_id) ||
        !cur.get(&s.sensor_id)) {
      return Result<Trace>::error("truncated temp sample");
    }
    trace.temp_samples.push_back(s);
  }

  if (!cur.get(&n64) || n64 > kMaxRecords) {
    return Result<Trace>::error("truncated or oversized clock-sync section");
  }
  trace.clock_syncs.reserve(std::min(n64, kReserveCap));
  for (std::uint64_t i = 0; i < n64; ++i) {
    trace::ClockSync c;
    if (!cur.get(&c.node_tsc) || !cur.get(&c.global_tsc) || !cur.get(&c.node_id)) {
      return Result<Trace>::error("truncated clock sync");
    }
    trace.clock_syncs.push_back(c);
  }

  return trace;
}

}  // namespace tempest::parser::reference
