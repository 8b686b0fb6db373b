// speedscope JSON emitter (https://www.speedscope.app).
//
// One evented profile per recorded thread: `O` (open) / `C` (close)
// events against a shared frame table, `at` in microseconds on the
// correlated timebase. speedscope wants each profile's events as one
// contiguous array, which fights a streaming pipeline — so each
// thread's events spool to a small scratch file as batches arrive, and
// on_end stitches the spools into the final document. Peak memory is
// the per-thread stacks plus the frame table; disk holds the bulk. A
// spool is unlinked as soon as it is opened and read back through the
// same stream, so an export that dies at any point leaves no scratch
// file behind.
//
// The span-export core's replay (export.hpp) keeps every O matched by
// a C (speedscope hard-errors on unbalanced events): orphan exits are
// dropped and counted, missing exits force-close.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "export/clock.hpp"
#include "export/export.hpp"
#include "pipeline/stage.hpp"
#include "symtab/resolver.hpp"

namespace tempest::exporter {

/// One thread's spool: the profile's events array contents, comma-
/// joined, plus the bookkeeping to write its profile header later.
struct SpeedscopeSpool {
  std::fstream file;  ///< unlinked scratch file, written then read back
  std::string path;   ///< the name it was created under, for errors
  /// Write-behind buffer: events append here and hit the file in
  /// coarse chunks instead of one write call per event.
  std::string buf;
  bool any_event = false;
  double first_at = 0.0;
  double last_at = 0.0;
};

class SpeedscopeExporter
    : public SpanExporter<SpeedscopeExporter, SpeedscopeSpool> {
 public:
  /// `spool_prefix` names the scratch files (`<prefix>.t<node>_<tid>.
  /// spool`), one per thread, each unlinked as soon as it is created.
  /// Put it next to the output file (or under /tmp when writing to
  /// stdout). `resolver` may be null: addresses render as hex.
  SpeedscopeExporter(std::ostream& out, ClockCorrelator correlator,
                     std::string spool_prefix,
                     const symtab::Resolver* resolver = nullptr);

  Status begin(const pipeline::TraceMeta& meta) override;
  Status on_end(const pipeline::TraceMeta& meta) override;

 private:
  friend class SpanExporter<SpeedscopeExporter, SpeedscopeSpool>;

  void open_track(TrackKey key, SpeedscopeSpool& spool);
  void open(SpeedscopeSpool& spool, const trace::FnEvent& e, double at) {
    spool_event(spool, 'O', names_->index_of(e.addr), at);
  }
  void close(SpeedscopeSpool& spool, std::uint64_t addr, double at) {
    spool_event(spool, 'C', names_->index_of(addr), at);
  }

  void spool_event(SpeedscopeSpool& spool, char type, std::size_t frame,
                   double at);
  void flush_spool(SpeedscopeSpool& spool);
  /// {"type":"O","frame":N,"at": — preformatted once per frame index so
  /// the per-event work is two memcpys plus one to_chars.
  const std::string& frame_prefix(char type, std::size_t frame);

  std::string spool_prefix_;
  /// Thread -> "rank N thread T (core C)" profile names, from metadata.
  std::map<TrackKey, std::string> thread_names_;
  std::string line_;  ///< reused scratch buffer
  /// Frame-index event prefixes, grown on demand.
  std::vector<std::string> open_prefixes_;
  std::vector<std::string> close_prefixes_;
};

}  // namespace tempest::exporter
