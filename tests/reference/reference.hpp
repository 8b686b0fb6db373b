// Seed-pipeline reference implementations, kept verbatim from before
// the analysis fast path landed. They are the golden oracle: the
// equivalence tests assert the fast path (the recorder's one-pass drain
// merge, bulk trace I/O, dense-table clock alignment, the compact
// timeline fold with online sample attribution) produces
// byte-identical profiles, and bench_parser measures the speedup
// against them. Never "optimise" these — their value is that they stay
// the slow, obviously-correct originals. Test-only: nothing in src/
// links them, so the seed timeline keeps its own interval types.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "parser/profile.hpp"
#include "parser/timeline.hpp"
#include "trace/align.hpp"
#include "trace/trace.hpp"

namespace tempest::parser::reference {

/// Half-open tick interval [begin, end).
struct SeedInterval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t length() const { return end > begin ? end - begin : 0; }
};

/// The seed timeline's per-(node, function) entry: the union of the
/// function's activations across the node's threads.
struct SeedFunction {
  std::uint64_t addr = 0;
  std::uint16_t node_id = 0;
  std::vector<SeedInterval> merged;  ///< sorted, non-overlapping
  std::uint64_t total_ticks = 0;
  std::uint64_t calls = 0;

  /// True when `tsc` falls inside any merged interval.
  bool contains(std::uint64_t tsc) const;
};

/// Key: (node_id, function address).
using SeedTimeline = std::map<std::pair<std::uint16_t, std::uint64_t>, SeedFunction>;

/// Seed merge_intervals: sort by begin, coalesce overlaps/adjacency.
void merge_intervals_seed(std::vector<SeedInterval>* intervals);

/// Seed Trace::sort_by_time: global stable_sort of events and samples.
void sort_by_time_seed(trace::Trace* trace);

/// Seed per-record clock rewrite: each record's fit found by a std::map
/// lookup and evaluated out of line; records on nodes without a fit
/// keep their tsc.
void align_records_seed(const std::map<std::uint16_t, trace::ClockFit>& fits,
                        std::vector<trace::FnEvent>* events,
                        std::vector<trace::TempSample>* samples);

/// Seed align_clocks: fit, rewrite every record through the map, drop
/// the syncs and stable-sort (no-op without syncs).
void align_clocks_seed(trace::Trace* trace);

/// Seed build_timeline: std::map pair-key lookups per event.
SeedTimeline build_timeline_seed(const trace::Trace& trace,
                                 TimelineDiagnostics* diag = nullptr);

/// Seed ProfileBuilder::build: per-function scan over all node samples.
RunProfile build_profile_seed(
    const trace::Trace& trace, const SeedTimeline& timeline,
    const std::vector<std::pair<std::uint64_t, std::string>>& names,
    TimelineDiagnostics diagnostics, const ProfileOptions& options);

/// Seed trace writer/reader: per-field stream calls, format version 1.
/// (The v2 reader rejects these traces; the seed reader exists so the
/// old I/O path can still be measured and regression-tested against.)
Status write_trace_seed(std::ostream& out, const trace::Trace& trace);
Result<trace::Trace> read_trace_seed(std::istream& in);

}  // namespace tempest::parser::reference
