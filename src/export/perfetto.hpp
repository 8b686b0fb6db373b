// Chrome Trace Event / Perfetto JSON emitter.
//
// One output process per rank (pid = node id, named after the rank's
// hostname), one track per recorded thread (tid = thread id), `B`/`E`
// duration events from function entry/exit, one counter track per
// sensor carrying the temperature series, and instant events at trace
// end for the recorder's dropped-event / missed-tick telemetry from
// the RUNSTATS trailer. A `metadata` section documents the per-rank
// clock correlation (skew, drift, residual) and what the export
// dropped — everything a user scrubbing the timeline needs to judge
// what they see. Open the file at https://ui.perfetto.dev or
// chrome://tracing.
//
// Streaming: events are written as batches arrive — peak memory is the
// per-thread stacks, the name table and the (small) sample stream,
// independent of event count. Sources emit samples before events, but
// the time base is the first fn event and the counter records follow
// every B/E record, so samples are held until on_end. Identical record
// streams produce byte-identical files, so tempest_parse --export and
// tempest-export compare equal with cmp.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "export/clock.hpp"
#include "export/export.hpp"
#include "pipeline/stage.hpp"
#include "symtab/resolver.hpp"

namespace tempest::exporter {

/// Everything about a B/E event that doesn't change per event,
/// preformatted once per (rank, thread) track: the per-event work is
/// two fragment memcpys around a single to_chars timestamp.
struct PerfettoTrack {
  std::string begin_prefix;  ///< {"ph":"B","pid":N,"tid":T,"ts":
  std::string end_prefix;    ///< {"ph":"E","pid":N,"tid":T,"ts":
};

class PerfettoExporter
    : public SpanExporter<PerfettoExporter, PerfettoTrack> {
 public:
  /// `resolver` may be null: addresses render as hex (synthetic region
  /// names still resolve). The correlator carries the sync records'
  /// fits; its base is set from the first record unless already fixed.
  PerfettoExporter(std::ostream& out, ClockCorrelator correlator,
                   const symtab::Resolver* resolver = nullptr);

  /// Mark these diff findings on the timeline: a thread-scoped instant
  /// at each function's first span plus a `tempest_diff` metadata
  /// block. Must be called before begin().
  void set_annotations(std::vector<DiffAnnotation> annotations);

  Status begin(const pipeline::TraceMeta& meta) override;
  Status on_batch(const pipeline::TraceMeta& meta,
                  const pipeline::EventBatch& batch) override;
  Status on_end(const pipeline::TraceMeta& meta) override;

 private:
  friend class SpanExporter<PerfettoExporter, PerfettoTrack>;

  /// Counter-event fragments, one per (rank, sensor) track.
  struct CounterFragments {
    std::string prefix;     ///< {"ph":"C","pid":N,"ts":
    std::string name_args;  ///< ,"name":"temp ...","args":{"celsius":
  };

  void open_track(TrackKey key, PerfettoTrack& track);
  void open(PerfettoTrack& track, const trace::FnEvent& e, double ts);
  void close(PerfettoTrack& track, std::uint64_t addr, double ts);

  /// Append one traceEvents entry (comma handling).
  void put_event(const std::string& json);
  const std::string& name_suffix(std::uint64_t addr);
  const CounterFragments& counter_fragments(std::uint16_t node_id,
                                            std::uint16_t sensor_id);

  /// addr -> ,"cat":"fn","name":"<escaped>"} — the escape runs once per
  /// distinct function, not once per event.
  std::unordered_map<std::uint64_t, std::string> name_suffixes_;
  std::unordered_map<std::uint32_t, CounterFragments> counters_;
  /// (node, sensor) -> counter-track name, from the sensor inventory.
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::string> sensor_names_;

  /// Pending diff annotations by function name; resolved to addresses
  /// lazily at each address's first B event (names are only knowable
  /// once the resolver has seen the address).
  std::map<std::string, DiffAnnotation> annotations_by_name_;
  std::vector<const DiffAnnotation*> annotations_marked_;
  std::unordered_map<std::uint64_t, const DiffAnnotation*> annotation_by_addr_;

  std::vector<trace::TempSample> held_samples_;  ///< counter records, written at on_end
  bool any_event_ = false;   ///< comma state for the traceEvents array
  std::string line_;         ///< reused per-event scratch buffer
};

}  // namespace tempest::exporter
