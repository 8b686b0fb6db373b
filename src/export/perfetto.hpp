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
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fastwrite.hpp"
#include "export/clock.hpp"
#include "export/export.hpp"
#include "pipeline/stage.hpp"
#include "symtab/resolver.hpp"

namespace tempest::exporter {

class PerfettoExporter : public pipeline::BatchSink {
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

  /// Valid after a successful on_end.
  const ExportStats& stats() const { return stats_; }
  /// Residual-skew lint findings (also embedded in the metadata
  /// section); the CLIs print them to stderr.
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  /// Everything about a B/E event that doesn't change per event,
  /// preformatted once per (rank, thread) track: the per-event work is
  /// two fragment memcpys around a single to_chars timestamp.
  struct TrackFragments {
    std::string begin_prefix;  ///< {"ph":"B","pid":N,"tid":T,"ts":
    std::string end_prefix;    ///< {"ph":"E","pid":N,"tid":T,"ts":
  };
  /// Counter-event fragments, one per (rank, sensor) track.
  struct CounterFragments {
    std::string prefix;     ///< {"ph":"C","pid":N,"ts":
    std::string name_args;  ///< ,"name":"temp ...","args":{"celsius":
  };

  void write(const std::string& s);
  /// Append one traceEvents entry (comma handling + byte accounting).
  void put_event(const std::string& json);
  void note_base(std::uint64_t tsc);
  const TrackFragments& track_fragments(std::uint16_t node_id,
                                        std::uint32_t thread_id);
  const std::string& name_suffix(std::uint64_t addr);
  const CounterFragments& counter_fragments(std::uint16_t node_id,
                                            std::uint16_t sensor_id);

  std::ostream* out_;
  fastwrite::BufferedWriter writer_;
  ClockCorrelator correlator_;
  const symtab::Resolver* resolver_;

  std::unordered_map<std::uint64_t, TrackFragments> tracks_;
  /// Dense thread-id -> track pointers (unordered_map values are
  /// pointer-stable); first is node_id + 1, 0 = empty. Per-event track
  /// lookup becomes an array index; mismatches fall back to the map.
  std::vector<std::pair<std::uint32_t, const TrackFragments*>> track_cache_;
  /// addr -> ,"cat":"fn","name":"<escaped>"} — the escape runs once per
  /// distinct function, not once per event.
  std::unordered_map<std::uint64_t, std::string> name_suffixes_;
  std::unordered_map<std::uint32_t, CounterFragments> counters_;

  std::optional<NameTable> names_;  ///< built in begin() (needs metadata)
  SpanScrubber scrubber_;
  SamplePeriodEstimator sample_period_;
  /// (node, sensor) -> counter-track name, from the sensor inventory.
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::string> sensor_names_;

  /// Pending diff annotations by function name; resolved to addresses
  /// lazily at each address's first B event (names are only knowable
  /// once the resolver has seen the address).
  std::map<std::string, DiffAnnotation> annotations_by_name_;
  std::vector<const DiffAnnotation*> annotations_marked_;
  std::unordered_map<std::uint64_t, const DiffAnnotation*> annotation_by_addr_;

  ExportStats stats_;
  std::vector<std::string> warnings_;
  std::vector<trace::TempSample> held_samples_;  ///< counter records, written at on_end
  std::uint64_t max_tsc_ = 0;
  bool any_event_ = false;   ///< comma state for the traceEvents array
  std::string line_;         ///< reused per-event scratch buffer
};

}  // namespace tempest::exporter
