// The collector's fold plane: one ingest session's protocol as a state
// machine over frame payloads, which arrive in the order
//
//   HELLO, HEARTBEAT*, META, SYNCS?, SAMPLES*/EVENTS*, BYE
//
// with heartbeats anywhere between HELLO and BYE. apply() folds one
// frame and returns an error for any violation: a frame before HELLO
// or after BYE, a second HELLO or META, another protocol version, a
// malformed payload, records before META, a timestamp that goes back
// within the event or the sample stream, over 2^20 clock syncs, or a
// BYE whose counts disagree with what arrived. An error ends the
// session and its fold is discarded. Sessions fold in their own clock
// domain: SYNCS are checked and counted, not applied (per-function
// totals are alignment-invariant, as in `tempest_parse --no-align`).
// The fold keeps calls and time only (AnalysisOptions::thermal off):
// SAMPLES are unpacked, order-checked and counted and widen the run's
// bounds, but are not attributed, so a session's state is O(functions +
// open activations) whichever of SAMPLES and EVENTS comes first.
//
// No sockets, threads or atomics: the collector runs each fold on one
// shard thread and publishes counters(), hello() and heartbeat().
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "collectd/wire.hpp"
#include "common/json.hpp"
#include "common/status.hpp"
#include "parser/profile.hpp"
#include "pipeline/analysis.hpp"
#include "trace/trace.hpp"

namespace tempest::collectd {

/// Unpack buffers for EVENTS and SAMPLES; one per fold thread, so no
/// session keeps a buffer between frames.
struct FoldScratch {
  std::vector<trace::FnEvent> events;
  std::vector<trace::TempSample> samples;
};

/// What a session has folded so far, as /sessions reports it.
struct SessionCounters {
  std::uint64_t frames = 0;  ///< every frame applied, the failing one too
  std::uint64_t events = 0;
  std::uint64_t samples = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t heartbeat_gaps = 0;      ///< heartbeat seqs skipped (lost lines)
  std::uint64_t heartbeat_restarts = 0;  ///< heartbeat seq went backwards
  std::uint64_t last_seq = 0;
  double last_t = 0.0;  ///< "t" of the last heartbeat
};

class SessionFold {
 public:
  /// `scratch` must outlive the fold and serve one thread at a time.
  SessionFold(const parser::ProfileOptions& profile, FoldScratch* scratch);

  /// Fold one frame. An error is a protocol error.
  Status apply(FrameType type, std::string_view payload);

  /// BYE folded: result() holds the session's analysis.
  bool closed() const { return closed_; }
  const Hello& hello() const { return hello_; }
  const SessionCounters& counters() const { return counters_; }
  /// Numeric members of the last heartbeat line, parsed once.
  const json::NumberFields& heartbeat() const { return heartbeat_; }
  /// The session's profile and RUNSTATS trailer, once closed().
  const pipeline::AnalysisResult& result() const { return result_; }

 private:
  void fold_heartbeat(std::string_view line);
  template <typename Record>
  Status fold_records(const char* what, std::string_view payload,
                      std::vector<Record>* scratch, std::uint64_t* last_tsc,
                      std::uint64_t* folded);

  parser::ProfileOptions profile_;
  FoldScratch* scratch_;
  bool opened_ = false;
  bool closed_ = false;
  Hello hello_;
  SessionCounters counters_;
  json::NumberFields heartbeat_;
  std::unique_ptr<pipeline::AnalysisPipeline> pipeline_;  ///< built by META
  std::uint64_t syncs_ = 0;
  std::uint64_t last_event_tsc_ = 0;
  std::uint64_t last_sample_tsc_ = 0;
  pipeline::AnalysisResult result_;
};

}  // namespace tempest::collectd
