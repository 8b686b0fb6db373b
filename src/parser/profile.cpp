#include "parser/profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

namespace tempest::parser {
namespace {

/// One node's samples in time order — the stream the timeline's sample
/// positions index — plus per-sensor streams for the nearest-sample
/// fallback.
struct NodeSamples {
  std::vector<const trace::TempSample*> by_time;
  /// Built lazily: the fallback runs only for insignificant functions.
  std::map<std::uint16_t, std::vector<const trace::TempSample*>> by_sensor;
  bool by_sensor_built = false;

  const std::map<std::uint16_t, std::vector<const trace::TempSample*>>&
  sensor_streams() {
    if (!by_sensor_built) {
      for (const trace::TempSample* s : by_time) {
        by_sensor[s->sensor_id].push_back(s);
      }
      by_sensor_built = true;
    }
    return by_sensor;
  }
};

/// Nearest sample to `at` within one sensor's time-sorted stream,
/// reproducing the legacy linear scan exactly: strictly smaller
/// distance wins, ties keep the earliest sample in trace order (the
/// first of an equal-timestamp run; the predecessor side on an exact
/// predecessor/successor distance tie).
const trace::TempSample* nearest_in_stream(
    const std::vector<const trace::TempSample*>& stream, std::uint64_t at) {
  if (stream.empty()) return nullptr;
  const auto lo = std::lower_bound(
      stream.begin(), stream.end(), at,
      [](const trace::TempSample* s, std::uint64_t t) { return s->tsc < t; });
  const trace::TempSample* succ = lo != stream.end() ? *lo : nullptr;
  const trace::TempSample* pred = nullptr;
  if (lo != stream.begin()) {
    auto p = std::prev(lo);
    // Step back to the first sample of this equal-timestamp run: the
    // legacy scan kept the earliest occurrence on distance ties.
    while (p != stream.begin() && (*std::prev(p))->tsc == (*p)->tsc) --p;
    pred = *p;
  }
  if (pred == nullptr) return succ;
  if (succ == nullptr) return pred;
  const std::uint64_t pred_dist = at - pred->tsc;
  const std::uint64_t succ_dist = succ->tsc - at;
  return pred_dist <= succ_dist ? pred : succ;
}

}  // namespace

const FunctionProfile* RunProfile::find(std::uint16_t node_id,
                                        const std::string& name) const {
  std::size_t total_functions = 0;
  for (const auto& node : nodes) total_functions += node.functions.size();
  if (indexed_nodes_ != nodes.size() || indexed_functions_ != total_functions) {
    find_index_.clear();
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
      for (std::size_t fi = 0; fi < nodes[ni].functions.size(); ++fi) {
        // try_emplace keeps the first occurrence, matching the legacy
        // front-to-back scan when duplicates exist.
        find_index_.try_emplace({nodes[ni].node_id, nodes[ni].functions[fi].name},
                                std::make_pair(ni, fi));
      }
    }
    indexed_nodes_ = nodes.size();
    indexed_functions_ = total_functions;
  }
  const auto it = find_index_.find({node_id, name});
  if (it == find_index_.end()) return nullptr;
  const auto [ni, fi] = it->second;
  if (ni >= nodes.size() || fi >= nodes[ni].functions.size()) return nullptr;
  return &nodes[ni].functions[fi];
}

RunProfile ProfileAssembler::assemble(
    std::uint64_t run_start, std::uint64_t run_end, const TimelineMap& timeline,
    const std::vector<std::pair<std::uint64_t, std::string>>& names,
    TimelineDiagnostics diagnostics) const {
  RunProfile run;
  run.unit = options_.unit;
  run.diagnostics = diagnostics;

  std::unordered_map<std::uint64_t, const std::string*> name_map;
  name_map.reserve(names.size());
  for (const auto& [addr, name] : names) name_map.try_emplace(addr, &name);

  // Sensor metadata by (node, sensor).
  std::map<std::pair<std::uint16_t, std::uint16_t>, const trace::SensorMeta*> sensor_meta;
  for (const auto& s : sensors_) sensor_meta[{s.node_id, s.sensor_id}] = &s;

  // Samples grouped per node, in time order.
  std::map<std::uint16_t, NodeSamples> node_samples;
  for (const auto& s : samples_) node_samples[s.node_id].by_time.push_back(&s);

  const double ticks_per_s =
      tsc_ticks_per_second_ > 0.0 ? tsc_ticks_per_second_ : 1.0;
  run.duration_s = static_cast<double>(run_end - run_start) / ticks_per_s;

  std::map<std::uint16_t, NodeProfile> nodes;
  for (const auto& n : nodes_) {
    nodes[n.node_id].node_id = n.node_id;
    nodes[n.node_id].hostname = n.hostname;
  }

  // Per-node activity span, gathered once instead of per node below.
  std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> node_span;
  for (const auto& [key, fa] : timeline) {
    if (fa.activations == 0) continue;
    auto [it, inserted] =
        node_span.try_emplace(key.first, std::make_pair(fa.first_begin, fa.last_end));
    if (!inserted) {
      it->second.first = std::min(it->second.first, fa.first_begin);
      it->second.second = std::max(it->second.second, fa.last_end);
    }
  }

  for (const auto& [key, activity] : timeline) {
    const std::uint16_t node_id = key.first;
    NodeProfile& node = nodes[node_id];  // creates on demand for unlisted nodes
    node.node_id = node_id;

    FunctionProfile fn;
    fn.addr = activity.addr;
    const auto name_it = name_map.find(fn.addr);
    fn.name = name_it != name_map.end() ? *name_it->second : "<unknown>";
    fn.total_time_s = static_cast<double>(activity.total_ticks) / ticks_per_s;
    fn.calls = activity.calls;

    // Per-activation duration stats from the exact integer sums. The
    // sums are identical across sharded and serial folds, so these
    // doubles are too — the stream/batch and threads-N byte-identity
    // gates stay intact.
    fn.time.count = activity.activations;
    if (activity.activations > 0) {
      const double n_act = static_cast<double>(activity.activations);
      const double mean_ticks = static_cast<double>(activity.total_ticks) / n_act;
      const double sq_ticks = static_cast<double>(activity.ticks_sq) / n_act;
      const double var_ticks =
          std::max(0.0, sq_ticks - mean_ticks * mean_ticks);
      fn.time.mean_s = mean_ticks / ticks_per_s;
      fn.time.var_s2 = var_ticks / (ticks_per_s * ticks_per_s);
      fn.time.sdv_s = std::sqrt(fn.time.var_s2);
    }

    // Per-sensor statistics over the samples the timeline credited, read
    // back in arrival order.
    std::map<std::uint16_t, SampleSet> per_sensor;
    const auto samples_it = node_samples.find(node_id);
    NodeSamples* samples = samples_it != node_samples.end() ? &samples_it->second
                                                           : nullptr;
    if (samples != nullptr) {
      const auto& by_time = samples->by_time;
      for (const SampleRange& r : activity.samples) {
        const std::size_t last = std::min<std::size_t>(r.last, by_time.size());
        for (std::size_t i = r.first; i < last; ++i) {
          per_sensor[by_time[i]->sensor_id].add(to_unit(by_time[i]->temp_c, options_.unit));
        }
      }
    }

    // Significance: the paper flags functions whose execution is short
    // relative to the 4 Hz sampling interval. We require the configured
    // minimum sample count inside the activations.
    std::size_t max_count = 0;
    for (const auto& [sid, set] : per_sensor) max_count = std::max(max_count, set.count());
    fn.significant = max_count >= options_.min_samples_significant;

    if (!fn.significant && samples != nullptr && !samples->by_time.empty() &&
        activity.activations > 0) {
      // Nearest-sample snapshot: closest reading per sensor to the
      // function's first activation, via binary search on the sensor's
      // time-sorted stream (legacy tie-breaking preserved).
      per_sensor.clear();
      for (const auto& [sid, stream] : samples->sensor_streams()) {
        const trace::TempSample* s = nearest_in_stream(stream, activity.first_begin);
        if (s != nullptr) per_sensor[sid].add(to_unit(s->temp_c, options_.unit));
      }
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
    // Node duration: span of this node's events and samples.
    std::uint64_t lo = UINT64_MAX, hi = 0;
    const auto samples_it = node_samples.find(id);
    if (samples_it != node_samples.end()) {  // never empty once created
      lo = samples_it->second.by_time.front()->tsc;
      hi = samples_it->second.by_time.back()->tsc;
    }
    const auto span_it = node_span.find(id);
    if (span_it != node_span.end()) {
      lo = std::min(lo, span_it->second.first);
      hi = std::max(hi, span_it->second.second);
    }
    node.duration_s = (hi > lo && lo != UINT64_MAX)
                          ? static_cast<double>(hi - lo) / ticks_per_s
                          : 0.0;
    run.nodes.push_back(std::move(node));
  }
  return run;
}

void ProfileAssembler::set_metadata(const trace::TraceHeader& header) {
  tsc_ticks_per_second_ = header.tsc_ticks_per_second;
  nodes_ = header.nodes;
  sensors_ = header.sensors;
}

void ProfileAssembler::add_samples(const trace::TempSample* samples, std::size_t n) {
  samples_.insert(samples_.end(), samples, samples + n);
}

}  // namespace tempest::parser
