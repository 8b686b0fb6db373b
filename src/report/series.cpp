#include "report/series.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/fastwrite.hpp"
#include "parser/parse.hpp"
#include "parser/timeline.hpp"

namespace tempest::report {
namespace {

/// Span naming: the synthetic symbol, else the recorded executable's
/// symtab (opened on first need); no hex fallback.
class SpanNames {
 public:
  explicit SpanNames(const trace::TraceHeader& meta)
      : executable_(meta.executable), load_bias_(meta.load_bias) {
    for (const auto& s : meta.synthetic_symbols) synthetic_[s.addr] = s.name;
  }

  std::optional<std::string> name_of(std::uint64_t addr) {
    const auto it = synthetic_.find(addr);
    if (it != synthetic_.end()) return it->second;
    if (!resolver_tried_) {
      resolver_tried_ = true;
      auto built = symtab::Resolver::for_executable(executable_, load_bias_);
      if (built.is_ok()) resolver_.emplace(std::move(built).value());
    }
    if (!resolver_) return std::nullopt;
    return resolver_->resolve(addr);
  }

 private:
  std::map<std::uint64_t, std::string> synthetic_;
  std::string executable_;
  std::uint64_t load_bias_ = 0;
  std::optional<symtab::Resolver> resolver_;
  bool resolver_tried_ = false;
};

}  // namespace

parser::SpanFilter span_filter(const trace::TraceHeader& meta,
                               const std::vector<std::string>& span_functions) {
  if (span_functions.empty()) return {};
  struct State {
    State(const trace::TraceHeader& meta, const std::vector<std::string>& wanted)
        : names(meta), wanted(wanted.begin(), wanted.end()) {}
    std::mutex mu;
    SpanNames names;
    std::set<std::string> wanted;
    std::unordered_map<std::uint64_t, bool> decided;
  };
  auto state = std::make_shared<State>(meta, span_functions);
  return [state](std::uint64_t addr) {
    const std::lock_guard<std::mutex> lock(state->mu);
    auto [it, inserted] = state->decided.try_emplace(addr, false);
    if (inserted) {
      const std::optional<std::string> name = state->names.name_of(addr);
      it->second = name && state->wanted.count(*name) > 0;
    }
    return it->second;
  };
}

ThermalSeries build_series(const trace::TraceHeader& meta,
                           const std::vector<trace::TempSample>& samples,
                           std::uint64_t start_tsc, std::uint64_t end_tsc,
                           TempUnit unit,
                           const std::vector<std::string>& span_functions,
                           const parser::TimelineMap* timeline) {
  ThermalSeries out;
  out.unit = unit;

  const std::uint64_t start = start_tsc;
  const double rate = meta.tsc_ticks_per_second > 0.0 ? meta.tsc_ticks_per_second : 1.0;
  auto to_s = [&](std::uint64_t tsc) {
    return tsc > start ? static_cast<double>(tsc - start) / rate : 0.0;
  };
  out.duration_s = to_s(end_tsc);

  std::map<std::uint16_t, std::string> node_names;
  for (const auto& n : meta.nodes) node_names[n.node_id] = n.hostname;
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::string> sensor_names;
  for (const auto& s : meta.sensors) sensor_names[{s.node_id, s.sensor_id}] = s.name;

  std::map<std::pair<std::uint16_t, std::uint16_t>, std::size_t> index;
  for (const auto& s : samples) {
    const auto key = std::make_pair(s.node_id, s.sensor_id);
    auto it = index.find(key);
    if (it == index.end()) {
      SensorSeries series;
      series.node_id = s.node_id;
      series.sensor_id = s.sensor_id;
      series.node_name = node_names.count(s.node_id) ? node_names[s.node_id]
                                                     : "node" + std::to_string(s.node_id + 1);
      series.sensor_name = sensor_names.count(key)
                               ? sensor_names[key]
                               : "sensor" + std::to_string(s.sensor_id + 1);
      index[key] = out.sensors.size();
      out.sensors.push_back(std::move(series));
      it = index.find(key);
    }
    out.sensors[it->second].points.push_back({to_s(s.tsc), to_unit(s.temp_c, unit)});
  }
  std::sort(out.sensors.begin(), out.sensors.end(),
            [](const SensorSeries& a, const SensorSeries& b) {
              return std::tie(a.node_id, a.sensor_id) < std::tie(b.node_id, b.sensor_id);
            });

  if (!span_functions.empty() && timeline != nullptr) {
    // Only span functions kept their intervals; name them the way
    // span_filter matched them.
    SpanNames names(meta);
    for (const auto& [key, fa] : *timeline) {
      if (fa.spans.empty()) continue;
      const std::optional<std::string> name = names.name_of(fa.addr);
      if (!name || std::find(span_functions.begin(), span_functions.end(), *name) ==
                       span_functions.end()) {
        continue;
      }
      for (const auto& iv : fa.spans) {
        out.spans.push_back({key.first, *name, to_s(iv.begin), to_s(iv.end)});
      }
    }
    std::sort(out.spans.begin(), out.spans.end(),
              [](const FunctionSpan& a, const FunctionSpan& b) {
                return std::tie(a.node_id, a.begin_s) < std::tie(b.node_id, b.begin_s);
              });
  }
  return out;
}

void write_series_csv(std::ostream& out, const ThermalSeries& series) {
  // append_general matches the default-formatted ostream doubles this
  // writer historically produced; the buffered fastwrite path turns a
  // point per write call into coarse appends.
  fastwrite::BufferedWriter writer(out);
  std::string line;
  line += "time_s,node,sensor,temp_";
  line += unit_suffix(series.unit);
  line += "\n";
  writer.append(line);
  for (const auto& s : series.sensors) {
    // The node/sensor columns repeat for every point; format them once.
    std::string mid = ",";
    mid += s.node_name;
    mid += ",";
    mid += s.sensor_name;
    mid += ",";
    for (const auto& p : s.points) {
      line.clear();
      fastwrite::append_general(line, p.time_s);
      line += mid;
      fastwrite::append_general(line, p.temp);
      line += "\n";
      writer.append(line);
    }
  }
  for (const auto& span : series.spans) {
    line.clear();
    line += "# span,";
    fastwrite::append_u64(line, span.node_id);
    line += ",";
    line += span.name;
    line += ",";
    fastwrite::append_general(line, span.begin_s);
    line += ",";
    fastwrite::append_general(line, span.end_s);
    line += "\n";
    writer.append(line);
  }
}

}  // namespace tempest::report
