// speedscope JSON emitter (https://www.speedscope.app).
//
// One evented profile per recorded thread: `O` (open) / `C` (close)
// events against a shared frame table, `at` in microseconds on the
// correlated timebase. speedscope wants each profile's events as one
// contiguous array, which fights a streaming pipeline — so each
// thread's events spool to a small scratch file as batches arrive, and
// on_end stitches the spools into the final document. Peak memory is
// the per-thread stacks plus the frame table; disk holds the bulk.
//
// The same SpanScrubber policy as the Perfetto emitter keeps every O
// matched by a C (speedscope hard-errors on unbalanced events):
// orphan exits are dropped and counted, missing exits force-close.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/fastwrite.hpp"
#include "export/clock.hpp"
#include "export/export.hpp"
#include "pipeline/stage.hpp"
#include "symtab/resolver.hpp"

namespace tempest::exporter {

class SpeedscopeExporter : public pipeline::BatchSink {
 public:
  /// `spool_prefix` names the scratch files (`<prefix>.t<node>_<tid>.
  /// spool`), one per thread, removed on success and in the destructor.
  /// Put it next to the output file (or under /tmp when writing to
  /// stdout). `resolver` may be null: addresses render as hex.
  SpeedscopeExporter(std::ostream& out, ClockCorrelator correlator,
                     std::string spool_prefix,
                     const symtab::Resolver* resolver = nullptr);
  ~SpeedscopeExporter() override;

  Status begin(const pipeline::TraceMeta& meta) override;
  Status on_batch(const pipeline::TraceMeta& meta,
                  const pipeline::EventBatch& batch) override;
  Status on_end(const pipeline::TraceMeta& meta) override;

  /// Valid after a successful on_end.
  const ExportStats& stats() const { return stats_; }
  /// Residual-skew lint findings; the CLIs print them to stderr.
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  /// Per-thread spool: the profile's events array contents, comma-
  /// joined, plus the bookkeeping to write its profile header later.
  struct ThreadSpool {
    std::ofstream file;
    std::string path;
    /// Write-behind buffer: events append here and hit the file in
    /// coarse chunks instead of one write call per event.
    std::string buf;
    bool any_event = false;
    double first_at = 0.0;
    double last_at = 0.0;
    std::uint64_t event_count = 0;
  };

  ThreadSpool& spool_for(const SpanScrubber::ThreadKey& key);
  void spool_event(ThreadSpool& spool, char type, std::size_t frame,
                   double at);
  void flush_spool(ThreadSpool& spool);
  /// {"type":"O","frame":N,"at": — preformatted once per frame index so
  /// the per-event work is two memcpys plus one to_chars.
  const std::string& frame_prefix(char type, std::size_t frame);
  void write(const std::string& s);
  void remove_spools();

  std::ostream* out_;
  fastwrite::BufferedWriter writer_;
  ClockCorrelator correlator_;
  std::string spool_prefix_;
  const symtab::Resolver* resolver_;

  std::optional<NameTable> names_;  ///< built in begin() (needs metadata)
  SpanScrubber scrubber_;
  SamplePeriodEstimator sample_period_;
  std::map<SpanScrubber::ThreadKey, ThreadSpool> spools_;
  /// Dense thread-id -> spool pointers (map nodes are stable); first is
  /// node_id + 1, 0 = empty. Turns the per-event spool lookup into an
  /// array index; mismatches fall back to the map.
  std::vector<std::pair<std::uint32_t, ThreadSpool*>> spool_cache_;
  /// Thread -> "rank N thread T (core C)" profile names, from metadata.
  std::map<SpanScrubber::ThreadKey, std::string> thread_names_;

  ExportStats stats_;
  std::vector<std::string> warnings_;
  std::uint64_t max_tsc_ = 0;
  /// The time base when the trace has no fn events.
  std::uint64_t first_sample_tsc_ = 0;
  bool any_sample_ = false;
  std::string line_;  ///< reused per-event scratch buffer
  /// Frame-index event prefixes, grown on demand ([0] = open, [1] =
  /// close).
  std::vector<std::string> open_prefixes_;
  std::vector<std::string> close_prefixes_;
};

}  // namespace tempest::exporter
