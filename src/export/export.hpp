// The span-export core of the interactive trace exporters.
//
// The paper's parser answers "which functions ran hot"; the exporters
// answer "show me" — they turn a recorded trace into files that open
// directly in Perfetto / chrome://tracing (export/perfetto.hpp) and
// speedscope (export/speedscope.hpp). Both are BatchSinks on the
// streaming pipeline, so a 1e7-event trace exports in bounded memory,
// and both run the one core here. SpanExporter replays the entry/exit
// stream over one per-thread track table: it fixes the timebase, drops
// orphan exits, force-closes the frames an exit skips and, at the end,
// the frames still open, so every open a format writes is matched by a
// close. SpanExportCore owns the document: symbolised name/frame
// interning, a streaming estimate of tempd's sample cadence (the
// threshold for the residual-skew warning), byte accounting, the
// metadata trailer and the telemetry the run feeds. Each format keeps
// only what it writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fastwrite.hpp"
#include "export/clock.hpp"
#include "pipeline/stage.hpp"
#include "symtab/resolver.hpp"
#include "trace/trace.hpp"

namespace tempest::exporter {

/// What an export run did. Mirrored into the telemetry registry
/// (Counter::kExport*) at on_end so tempest-top can show export runs.
struct ExportStats {
  std::uint64_t events_exported = 0;    ///< timeline records written (B/E/C/i, O/C)
  std::uint64_t spans_dropped = 0;      ///< exits with no open frame, discarded
  std::uint64_t spans_force_closed = 0; ///< frames closed without a recorded exit
  std::uint64_t bytes_written = 0;      ///< bytes of output produced
};

/// Record `stats` into the process-wide metrics registry.
void publish_export_telemetry(const ExportStats& stats);

/// One tempest-diff finding to mark on an exported timeline: an
/// instant event lands on the function's first span and the finding is
/// echoed in the metadata section, so a user scrubbing the baseline
/// sees where the ranked regressions live.
struct DiffAnnotation {
  std::string function;      ///< symbolised name, as ranked by the diff
  double delta_time_s = 0.0; ///< current - baseline total time
  double confidence = 0.0;   ///< Welch confidence the diff assigned
  bool regression = true;    ///< false marks a ranked improvement
};

/// Interns (addr -> name, frame index) with the same precedence the
/// profile builder uses: synthetic region names win, then the ELF
/// resolver (demangled), then hex. Indices are dense in first-use
/// order — exactly speedscope's frame table.
class NameTable {
 public:
  NameTable(const pipeline::TraceMeta& meta, const symtab::Resolver* resolver);

  /// Index of `addr`, interning on first use.
  std::size_t index_of(std::uint64_t addr);
  /// Name of an interned address (valid after index_of).
  const std::string& name_of(std::uint64_t addr);

  /// All interned names, by frame index.
  const std::vector<std::string>& names() const { return names_; }

 private:
  const symtab::Resolver* resolver_;
  std::map<std::uint64_t, std::string> synthetic_;
  /// addr -> frame index; hashed, this sits on every exporter's
  /// per-event path. Frame order comes from names_, not from here.
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<std::string> names_;
};

/// Streaming estimate of the temperature sampling cadence: per
/// (node, sensor) mean gap between consecutive samples, reduced to the
/// tightest (smallest) per-sensor mean. State is O(sensors).
class SamplePeriodEstimator {
 public:
  void observe(const trace::TempSample& sample);

  /// Tightest mean sample period in ticks; 0 until some sensor has
  /// seen at least two samples.
  double period_ticks() const;

 private:
  struct Sensor {
    std::uint64_t first_tsc = 0;
    std::uint64_t last_tsc = 0;
    std::uint64_t count = 0;
  };
  std::map<std::pair<std::uint16_t, std::uint16_t>, Sensor> sensors_;
};

/// The residual-skew lint: one warning string when the correlation
/// error exceeds the observed sample period (temperature attribution
/// across ranks then smears by more than one sample), empty otherwise.
std::vector<std::string> correlation_warnings(const ClockCorrelator& correlator,
                                              double sample_period_us);

/// One exported track: a recorded thread of one rank.
struct TrackKey {
  std::uint16_t node_id = 0;
  std::uint32_t thread_id = 0;
  bool operator<(const TrackKey& o) const {
    return node_id != o.node_id ? node_id < o.node_id
                                : thread_id < o.thread_id;
  }
};

/// The format-independent half of the span-export core: the timebase,
/// the name table, the output document's bytes and its metadata
/// trailer. Formats derive through SpanExporter.
class SpanExportCore : public pipeline::BatchSink {
 public:
  /// Valid after a successful on_end.
  const ExportStats& stats() const { return stats_; }
  /// Residual-skew lint findings (also in the metadata trailer); the
  /// CLIs print them to stderr.
  const std::vector<std::string>& warnings() const { return warnings_; }

 protected:
  /// `format` names the format in error messages. The correlator
  /// carries the sync records' fits; its base is set from the first fn
  /// event (the first sample when there is none) unless already fixed.
  SpanExportCore(std::ostream& out, ClockCorrelator correlator,
                 const symtab::Resolver* resolver, const char* format);

  /// Build names_ from the run's metadata; a format's begin() calls it
  /// first.
  void build_name_table(const pipeline::TraceMeta& meta);

  /// An fn event's time on the export timebase; the first one fixes
  /// the base.
  double event_us(std::uint64_t tsc) {
    if (!correlator_.has_base()) correlator_.set_base(tsc);
    if (tsc > max_tsc_) max_tsc_ = tsc;
    return correlator_.to_us(tsc);
  }
  /// Samples bound the run and give the cadence the residual-skew
  /// warning compares against. Sources emit them before the events,
  /// so they fix the base only for a trace without events (end_us).
  void observe_samples(const std::vector<trace::TempSample>& samples);
  /// The final timestamp, over events and samples. Fixes the base at
  /// the first sample when no event did, so call it before timing
  /// held samples.
  double end_us();

  void write(std::string_view bytes) { writer_.append(bytes); }
  /// Remember a failure of the format's own I/O; the first one is what
  /// status() reports.
  void fail(std::string message);
  /// The first fail(), else whether the output stream took every write.
  Status status() const;
  /// Close the document: `close` ends the format's body, then the
  /// metadata trailer (clock correlation, export accounting, then
  /// `extra_metadata`), then flush and publish the telemetry.
  Status finish(std::string_view close, std::string_view extra_metadata);

  ClockCorrelator correlator_;
  std::optional<NameTable> names_;  ///< built by build_name_table()
  ExportStats stats_;

 private:
  std::ostream* out_;
  fastwrite::BufferedWriter writer_;
  const symtab::Resolver* resolver_;
  const char* format_;
  SamplePeriodEstimator sample_period_;
  std::vector<std::string> warnings_;
  std::string failure_;
  std::uint64_t max_tsc_ = 0;
  /// The first sample's tsc: the base when no fn event fixes one.
  std::optional<std::uint64_t> sample_base_;
};

/// The span replay both formats run, over one track table keyed by
/// (node, thread) and iterated in key order. Each slot holds the
/// track's open-frame stack and the format's own `Track` state.
/// `Format` (the deriving exporter) writes the spans through three
/// members:
///   void open_track(TrackKey, Track&)               a track's first event
///   void open(Track&, const trace::FnEvent&, double us)   an enter
///   void close(Track&, std::uint64_t addr, double us)     a close
/// The policy ("unbalanced events are dropped, never emitted as
/// malformed spans"):
///   * enter       -> push, open.
///   * exit whose address is on the stack
///                 -> close the frames above it first, innermost out
///                    (force-closures: their exits went missing), then
///                    the frame itself.
///   * exit with no matching open frame -> drop, counted.
///   * end of trace -> close_open_frames force-closes what is left.
template <class Format, class Track>
class SpanExporter : public SpanExportCore {
 public:
  Status on_batch(const pipeline::TraceMeta& meta,
                  const pipeline::EventBatch& batch) override;

 protected:
  struct Slot {
    std::vector<std::uint64_t> stack;  ///< open frames, outermost first
    Track track;
  };

  using SpanExportCore::SpanExportCore;

  /// Close every frame still open at `us`, innermost first, track by
  /// track in key order.
  void close_open_frames(double us);
  std::map<TrackKey, Slot>& tracks() { return slots_; }

 private:
  Format& format() { return static_cast<Format&>(*this); }
  Slot& slot(TrackKey key);

  std::map<TrackKey, Slot> slots_;
  /// Dense thread-id -> slot pointers (map nodes are stable); first is
  /// node_id + 1, 0 = empty. Thread ids are dense per-process indices,
  /// so the per-event lookup is an array index; a node mismatch (two
  /// ranks reusing a thread id, which the fan-in contract forbids)
  /// falls back to the map: slower, still correct.
  std::vector<std::pair<std::uint32_t, Slot*>> dense_;
};

template <class Format, class Track>
Status SpanExporter<Format, Track>::on_batch(
    const pipeline::TraceMeta& /*meta*/, const pipeline::EventBatch& batch) {
  for (const trace::FnEvent& e : batch.fn_events) {
    const double us = event_us(e.tsc);
    Slot& s = slot({e.node_id, e.thread_id});
    if (e.kind == trace::FnEventKind::kEnter) {
      s.stack.push_back(e.addr);
      format().open(s.track, e, us);
      continue;
    }
    const auto frame = std::find(s.stack.rbegin(), s.stack.rend(), e.addr);
    if (frame == s.stack.rend()) {
      ++stats_.spans_dropped;  // no open frame: dropping keeps nesting sane
      continue;
    }
    stats_.spans_force_closed +=
        static_cast<std::uint64_t>(frame - s.stack.rbegin());
    const auto below = static_cast<std::size_t>(s.stack.rend() - frame) - 1;
    while (s.stack.size() > below) {
      format().close(s.track, s.stack.back(), us);
      s.stack.pop_back();
    }
  }
  observe_samples(batch.temp_samples);
  return status();
}

template <class Format, class Track>
void SpanExporter<Format, Track>::close_open_frames(double us) {
  for (auto& [key, s] : slots_) {
    stats_.spans_force_closed += s.stack.size();
    for (auto it = s.stack.rbegin(); it != s.stack.rend(); ++it) {
      format().close(s.track, *it, us);
    }
    s.stack.clear();
  }
}

template <class Format, class Track>
auto SpanExporter<Format, Track>::slot(TrackKey key) -> Slot& {
  constexpr std::uint32_t kDenseTids = 1u << 16;
  const bool dense = key.thread_id < kDenseTids;
  if (dense) {
    if (key.thread_id >= dense_.size()) dense_.resize(key.thread_id + 1);
    const auto& [node_plus_1, cached] = dense_[key.thread_id];
    if (cached != nullptr && node_plus_1 == std::uint32_t{key.node_id} + 1) {
      return *cached;
    }
  }
  auto [it, inserted] = slots_.try_emplace(key);
  if (inserted) format().open_track(key, it->second.track);
  if (dense) {
    dense_[key.thread_id] = {std::uint32_t{key.node_id} + 1, &it->second};
  }
  return it->second;
}

}  // namespace tempest::exporter
