#include "pipeline/stages.hpp"

#include <algorithm>
#include <string>
#include <type_traits>

#include "telemetry/metrics.hpp"

namespace tempest::pipeline {

Status ClockAlignStage::process(const TraceMeta& /*meta*/, EventBatch* batch) {
  if (clocks_.empty()) return Status::ok();  // single clock domain
  clocks_.align(&batch->fn_events);
  clocks_.align(&batch->temp_samples);
  return Status::ok();
}

template <typename Record>
std::uint32_t OrderWindow<Record>::lane(std::uint16_t node) {
  if (node >= lane_of_.size()) lane_of_.resize(std::size_t{node} + 1, 0);
  if (lane_of_[node] == 0) {
    lane_of_[node] = static_cast<std::uint32_t>(last_.size());
    last_.push_back(0);  // nothing seen yet: pins W until the node records
    seen_.push_back(0);
    while (known_ < lane_of_.size() && lane_of_[known_] != 0) ++known_;
  }
  return lane_of_[node];
}

template <typename Record>
Status OrderWindow<Record>::admit(std::vector<Record>* records, bool flush,
                                  double ticks_per_second) {
  std::vector<Record>& in = *records;
  if (in.empty() && !flush) return Status::ok();
  const auto by_tsc = [](const Record& a, const Record& b) { return a.tsc < b.tsc; };

  // One scan: whether the batch continues the window in order, and its
  // highest node id.
  std::uint64_t prev = held_.empty() ? released_tsc_ : held_.back().tsc;
  bool in_order = true;
  std::uint16_t top = 0;
  for (const Record& r : in) {
    in_order &= r.tsc >= prev;
    prev = r.tsc;
    top = std::max(top, r.node_id);
  }
  if (top < known_) {
    // Every node has a lane. Scanning back, a lane's first record is its
    // last-seen one; stop once every lane is found.
    ++stamp_;
    std::size_t left = last_.size() - 1;
    for (auto r = in.rbegin(); r != in.rend() && left > 0; ++r) {
      const std::uint32_t at = lane_of_[r->node_id];
      if (seen_[at] == stamp_) continue;
      seen_[at] = stamp_;
      last_[at] = r->tsc;
      --left;
    }
  } else {
    for (const Record& r : in) last_[lane(r.node_id)] = r.tsc;
  }
  if (!in_order) {
    for (const Record& r : in) {
      if (r.tsc >= released_tsc_) continue;
      const double behind = static_cast<double>(released_tsc_ - r.tsc) / ticks_per_second;
      return Status::error(
          std::string(std::is_same_v<Record, trace::FnEvent> ? "an fn event"
                                                             : "a temperature sample") +
          " of node " + std::to_string(r.node_id) + " lands " + std::to_string(behind) +
          " s behind records already released in global time order: the order "
          "stage holds at most " +
          std::to_string(OrderCheckStage::kMaxHeldRecords) +
          " records, and this node lags the others by more than that window");
    }
    std::stable_sort(in.begin(), in.end(), by_tsc);
  }
  // The window: the held records, then the batch, as one sorted run,
  // built in the larger vector so a long hold is not copied per batch.
  const auto seam = static_cast<std::ptrdiff_t>(held_.size());
  const bool in_held = held_.size() > in.size();
  std::vector<Record>& window = in_held ? held_ : in;
  window.insert(in_held ? held_.end() : in.begin(), in_held ? in.begin() : held_.begin(),
                in_held ? in.end() : held_.end());
  if (!in_order) {
    std::inplace_merge(window.begin(), window.begin() + seam, window.end(), by_tsc);
  }
  // Release its prefix below W. Over the bound, the lane pinning W
  // lowest stops counting.
  const auto release_point = [&] {
    const std::uint64_t w = *std::min_element(last_.begin(), last_.end());
    return std::partition_point(window.begin(), window.end(),
                                [w](const Record& r) { return r.tsc < w; });
  };
  auto cut = flush ? window.end() : release_point();
  while (window.end() - cut > static_cast<std::ptrdiff_t>(OrderCheckStage::kMaxHeldRecords)) {
    const auto pin = std::min_element(last_.begin(), last_.end());
    if (*pin == UINT64_MAX) break;  // every lane stopped
    *pin = UINT64_MAX;
    cut = release_point();
  }
  if (in_held) {
    in.assign(held_.begin(), cut);
    held_.erase(held_.begin(), cut);
  } else {
    held_.assign(cut, in.end());
    in.erase(cut, in.end());
  }
  if (!in.empty()) released_tsc_ = in.back().tsc;
  return Status::ok();
}

template class OrderWindow<trace::FnEvent>;
template class OrderWindow<trace::TempSample>;

Status OrderCheckStage::process(const TraceMeta& meta, EventBatch* batch) {
  if (!seeded_) {
    for (const trace::ThreadInfo& t : meta.threads) events_.lane(t.node_id);
    for (const trace::SensorMeta& s : meta.sensors) samples_.lane(s.node_id);
    seeded_ = true;
  }
  // Samples first: every held sample goes out before events pass.
  const double tps = meta.tsc_ticks_per_second;
  Status admitted = samples_.admit(
      &batch->temp_samples, !batch->fn_events.empty() || batch->end_of_stream, tps);
  if (admitted) admitted = events_.admit(&batch->fn_events, batch->end_of_stream, tps);
  telemetry::gauge_raise(telemetry::Gauge::kPipelineOrderHeldMax,
                         static_cast<std::int64_t>(events_.held() + samples_.held()));
  return admitted;
}

}  // namespace tempest::pipeline
