#include "trace/trace.hpp"

#include <algorithm>

namespace tempest::trace {

void RunStats::append(const RunStats& other) {
  if (!other.present) return;
  // Population-weighted means must combine before the counts fold.
  const double events =
      static_cast<double>(events_recorded + other.events_recorded);
  if (events > 0.0) {
    probe_cost_ns_mean =
        (probe_cost_ns_mean * static_cast<double>(events_recorded) +
         other.probe_cost_ns_mean * static_cast<double>(other.events_recorded)) /
        events;
  }
  const double ticks = static_cast<double>(tempd_ticks + other.tempd_ticks);
  if (ticks > 0.0) {
    cadence_jitter_us_mean =
        (cadence_jitter_us_mean * static_cast<double>(tempd_ticks) +
         other.cadence_jitter_us_mean * static_cast<double>(other.tempd_ticks)) /
        ticks;
  }
  events_recorded += other.events_recorded;
  events_dropped += other.events_dropped;
  buffer_flushes += other.buffer_flushes;
  threads_registered += other.threads_registered;
  tempd_ticks += other.tempd_ticks;
  tempd_missed_ticks += other.tempd_missed_ticks;
  tempd_samples += other.tempd_samples;
  tempd_read_errors += other.tempd_read_errors;
  sensor_read_failures += other.sensor_read_failures;
  heartbeats += other.heartbeats;
  events_suppressed += other.events_suppressed;
  events_throttled += other.events_throttled;
  events_overwritten += other.events_overwritten;
  calls_observed += other.calls_observed;
  ring_snapshots += other.ring_snapshots;
  peak_rss_kb = std::max(peak_rss_kb, other.peak_rss_kb);
  // Ranks run concurrently: wall time is the longest rank, CPU adds up.
  wall_seconds = std::max(wall_seconds, other.wall_seconds);
  tempd_cpu_seconds += other.tempd_cpu_seconds;
  present = true;
}

void FilterDecl::append(const FilterDecl& other) {
  if (!other.present) return;
  if (source.empty()) source = other.source;
  resolved = std::max(resolved, other.resolved);
  for (const std::string& name : other.suppressed) {
    if (std::find(suppressed.begin(), suppressed.end(), name) ==
        suppressed.end()) {
      suppressed.push_back(name);
    }
  }
  present = true;
}

void TraceHeader::append(const TraceHeader& other) {
  if (!(tsc_ticks_per_second > 0.0)) tsc_ticks_per_second = other.tsc_ticks_per_second;
  if (executable.empty()) {
    executable = other.executable;
    load_bias = other.load_bias;
  }
  nodes.insert(nodes.end(), other.nodes.begin(), other.nodes.end());
  sensors.insert(sensors.end(), other.sensors.begin(), other.sensors.end());
  threads.insert(threads.end(), other.threads.begin(), other.threads.end());
  synthetic_symbols.insert(synthetic_symbols.end(), other.synthetic_symbols.begin(),
                           other.synthetic_symbols.end());
  run_stats.append(other.run_stats);
  filter.append(other.filter);
}

void Trace::sort_by_time() {
  const auto event_before = [](const FnEvent& a, const FnEvent& b) {
    return a.tsc < b.tsc;
  };
  if (!std::is_sorted(fn_events.begin(), fn_events.end(), event_before)) {
    std::stable_sort(fn_events.begin(), fn_events.end(), event_before);
  }
  sort_samples_by_time();
}

void Trace::sort_samples_by_time() {
  const auto sample_before = [](const TempSample& a, const TempSample& b) {
    return a.tsc < b.tsc;
  };
  if (!std::is_sorted(temp_samples.begin(), temp_samples.end(), sample_before)) {
    std::stable_sort(temp_samples.begin(), temp_samples.end(), sample_before);
  }

  // Everything is ordered now: bounds come from the ends, cached so
  // start_tsc/end_tsc (and seconds_from_start) stop rescanning.
  bounds_cached_ = true;
  cached_start_ = UINT64_MAX;
  cached_end_ = 0;
  if (!fn_events.empty()) {
    cached_start_ = std::min(cached_start_, fn_events.front().tsc);
    cached_end_ = std::max(cached_end_, fn_events.back().tsc);
  }
  if (!temp_samples.empty()) {
    cached_start_ = std::min(cached_start_, temp_samples.front().tsc);
    cached_end_ = std::max(cached_end_, temp_samples.back().tsc);
  }
  if (cached_start_ == UINT64_MAX) cached_start_ = 0;
}

std::uint64_t Trace::start_tsc() const {
  if (bounds_cached_) return cached_start_;
  std::uint64_t start = UINT64_MAX;
  for (const auto& e : fn_events) start = std::min(start, e.tsc);
  for (const auto& s : temp_samples) start = std::min(start, s.tsc);
  return start == UINT64_MAX ? 0 : start;
}

std::uint64_t Trace::end_tsc() const {
  if (bounds_cached_) return cached_end_;
  std::uint64_t end = 0;
  for (const auto& e : fn_events) end = std::max(end, e.tsc);
  for (const auto& s : temp_samples) end = std::max(end, s.tsc);
  return end;
}

double Trace::seconds_from_start(std::uint64_t tsc) const {
  const std::uint64_t start = start_tsc();
  if (tsc <= start || tsc_ticks_per_second <= 0.0) return 0.0;
  return static_cast<double>(tsc - start) / tsc_ticks_per_second;
}

}  // namespace tempest::trace
