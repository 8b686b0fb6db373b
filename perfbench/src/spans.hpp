// In-memory span and counter recorder for the traced benchmark run.
//
// Spans wrap the benchmark's own calls into each Tempest layer (name,
// start, end, parent span, run id). They stay in memory and are written
// once, at the end, as Chrome Trace Event JSON that Perfetto opens. A
// disabled tracer records nothing and reads no clock, so untraced runs
// pay one branch per boundary.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady_clock).
double now_s();

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed span durations
  double self_s = 0.0;   ///< durations minus the time child spans cover
};

class Tracer {
 public:
  /// Open span handle; ends the span when destroyed.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Tracer(bool enabled, std::uint64_t run_id);

  bool enabled() const { return enabled_; }

  Span span(const char* name) { return Span(enabled_ ? this : nullptr, name); }

  /// A counter value read at a layer boundary (Chrome "C" event).
  void counter(const std::string& name, double value);

  /// Per-name totals over every finished span, self time included.
  std::map<std::string, SpanTotals> totals() const;

  /// Every span and counter as a JSON array of trace events, stamped in
  /// absolute steady-clock microseconds so several processes' arrays
  /// merge onto one timeline.
  std::string chrome_events_json() const;

 private:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  ///< < start while open
    std::int64_t parent = -1;
    std::uint32_t tid = 0;
    double child_s = 0.0;  ///< summed durations of direct children
  };
  struct CounterSample {
    std::string name;
    double at_s = 0.0;
    double value = 0.0;
  };

  std::size_t open(const char* name);
  void close(std::size_t index);

  bool enabled_;
  std::uint64_t run_id_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::vector<CounterSample> counters_;
};

}  // namespace perfbench
