// The Tempest profiling session.
//
// One per process (like the paper's shared library): owns the node
// bindings, the tempd sampler, the per-thread event buffers, and the
// synthetic-symbol registry for the explicit API. Lifecycle mirrors the
// paper: start before the workload (the library constructor launches
// tempd "before the main function of the profiled application is
// invoked"), stop at exit ("the destructor ... sends a signal to tempd
// for termination and performs cleanup"), then the parser takes over.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "core/admission.hpp"
#include "core/config.hpp"
#include "core/tempd.hpp"
#include "core/thread_buffer.hpp"
#include "simnode/node.hpp"
#include "telemetry/heartbeat.hpp"
#include "trace/trace.hpp"

namespace tempest::collectd {
class CollectClient;
}  // namespace tempest::collectd

namespace tempest::common {
struct FilterFile;
}  // namespace tempest::common

namespace tempest::core {

class Session {
 public:
  /// The process-wide session (function-local static; never destroyed
  /// before hooks can fire).
  static Session& instance();

  // -- setup (only while inactive) --------------------------------------

  /// Register a simulated node; returns its node id. The node must
  /// outlive the session run.
  std::uint16_t register_sim_node(simnode::SimNode* node);

  /// Register this host as a node using real hwmon sensors. Fails when
  /// the host exposes none (callers then fall back to a simulated node).
  Result<std::uint16_t> register_hwmon_node(const std::string& hostname = "localhost");

  /// Drop all node bindings (between runs in one process).
  void clear_nodes();

  /// Install a per-sampling-tick hook on a registered node (used by the
  /// auto-profiling mode to feed measured CPU utilisation to the
  /// simulated node). Only while inactive.
  Status set_node_tick_hook(std::uint16_t node_id, std::function<void()> hook);

  // -- lifecycle ---------------------------------------------------------

  /// Start profiling: binds affinity per config, starts tempd, arms the
  /// instrumentation hooks. Error if already active or no nodes.
  Status start(const SessionConfig& config);

  /// Stop: disarms hooks, stops tempd, assembles the trace (events,
  /// samples, metadata, synthetic symbols) and writes it to
  /// config.output_path when set.
  Status stop();

  /// True from start() until stop(). A flight-recorder snapshot pauses
  /// only the hooks, so the session stays active through one.
  bool active() const { return running_.load(std::memory_order_acquire); }
  const SessionConfig& config() const { return config_; }

  /// The assembled trace of the last completed run.
  const trace::Trace& last_trace() const { return trace_; }
  trace::Trace take_trace() { return std::move(trace_); }

  const Tempd::Stats& tempd_stats() const { return tempd_.stats(); }

  /// Ask the tempd thread to write a flight-recorder snapshot and wait
  /// (polling) until it lands or `timeout_s` passes. Returns the
  /// snapshot file path. Requires an active session with an output path
  /// and a running sampler.
  Result<std::string> request_snapshot(double timeout_s = 5.0);

  /// Flight-recorder snapshots written so far this run.
  std::uint64_t snapshots_written() const {
    return snapshots_written_.load(std::memory_order_acquire);
  }

  // -- hot path (called by hooks / explicit API) --------------------------

  void record_enter(std::uint64_t addr) { record(addr, trace::FnEventKind::kEnter); }
  void record_exit(std::uint64_t addr) { record(addr, trace::FnEventKind::kExit); }

  /// The one hook body: admission, then a buffer push of `kind`.
  void record(std::uint64_t addr, trace::FnEventKind kind) {
    if (!armed_.load(std::memory_order_relaxed)) return;
    ThreadState* ts = registry_.current();
    const AdmissionPlan* plan = admission_.load(std::memory_order_acquire);
    if (plan != nullptr) {
      if (plan->filter.contains(addr)) {
        ++ts->suppressed;
        if (ts->suppressed - ts->published_suppressed >= kAdmissionPublishBlock) {
          ts->publish_rejections();
        }
        return;
      }
      if (plan->throttling) {
        record_throttled(ts, plan, addr, kind);
        return;
      }
    }
    ++ts->admitted;
    if ((++ts->probe_tick & (kProbeSamplePeriod - 1)) == 0) {
      record_probed(ts, addr, kind);
      return;
    }
    ts->events.push({ts->now(), addr, ts->thread_id, ts->node_id, kind});
  }

  // -- thread/node association -------------------------------------------

  /// Bind the calling thread's future events to a registered node and
  /// core (the message-passing runtime calls this as each rank starts).
  Status attach_current_thread(std::uint16_t node_id, std::uint16_t core);

  /// Synthetic address for a named region (explicit/per-block API).
  /// Stable for the process lifetime; same name -> same address.
  std::uint64_t synthetic_addr(const std::string& name) EXCLUDES(synth_mu_);

  ThreadRegistry& registry() { return registry_; }
  simnode::SimNode* sim_node(std::uint16_t node_id);

 private:
  Session() = default;

  /// Every kProbeSamplePeriod-th record_* call routes here: the push is
  /// bracketed by rdtsc reads and the measured cost lands in the
  /// kProbeCostNs histogram. Power of two so the hot-path check is a
  /// mask; 1-in-1024 keeps the self-measurement's own cost negligible.
  static constexpr std::uint32_t kProbeSamplePeriod = 1024;
  void record_probed(ThreadState* ts, std::uint64_t addr, trace::FnEventKind kind);

  /// Rejection counters publish to telemetry in blocks so the rejected
  /// hook path stays a TLS increment plus one predictable compare; the
  /// exact remainder flushes at drain.
  static constexpr std::uint64_t kAdmissionPublishBlock = 4096;

  void count_throttled(ThreadState* ts, std::uint64_t n);

  /// Slow lane for sessions with throttling enabled: rate-cap table,
  /// shadow stack for paired decisions, min-duration leaf elision.
  void record_throttled(ThreadState* ts, const AdmissionPlan* plan,
                        std::uint64_t addr, trace::FnEventKind kind);

  /// Push an admitted event stamped `now`, keeping the 1-in-1024
  /// probe-cost self-sampling alive on the throttled lane.
  void push_admitted(ThreadState* ts, std::uint64_t now, std::uint64_t addr,
                     trace::FnEventKind kind);

  /// Apply the rules start() read from config_.filter_path: resolve
  /// names against the ELF symtab (+ already-minted synthetic regions),
  /// build the suppression set into `plan`. Unresolved names wait in
  /// filter_names_ for synthetic_addr to mint them.
  void load_filter(const common::FilterFile& ff, AdmissionPlan* plan)
      EXCLUDES(synth_mu_);

  /// Runs on the tempd thread once per sampling tick: services snapshot
  /// requests (signal/API/watchdog) and the adaptive boost controller.
  void on_tempd_tick();
  void adaptive_tick();

  /// Fill `out` from the session: metadata, synthetic symbols and the
  /// filter declaration, the registry's merged events and tempd's
  /// samples and syncs. `drain` (stop) empties the buffers and moves the
  /// samples; otherwise (a snapshot, on the tempd thread) both are
  /// copied. `totals` receives the exact admission accounting.
  void seal_trace(trace::Trace* out, bool drain, DrainTotals* totals)
      EXCLUDES(synth_mu_);

  /// Write the current flight-recorder window as a standalone trace-v2
  /// file next to the output path. Called only from the tempd thread
  /// (which owns the sample vectors). The hooks are paused around the
  /// buffer copy and re-armed, before the count publishes, unless
  /// stop() is underway.
  void write_snapshot(const char* trigger);

  /// Fold exact drain totals + telemetry + tempd stats into `rs`.
  void assemble_run_stats(trace::RunStats* rs, const DrainTotals& totals);

  // Lifecycle members (config_, nodes_, trace_, ...) are mutated only
  // from the controlling thread while the session is inactive, or
  // published to worker threads through running_ / thread creation.
  // synthetic_ is the one structure the explicit API mutates from
  // arbitrary threads mid-run, hence its lock.
  SessionConfig config_;
  /// The lifecycle: set at the end of start(), cleared first in stop().
  std::atomic<bool> running_{false};
  /// The hooks' armed flag, which record() checks first. A snapshot
  /// clears it around its copy and re-arms while running_ holds; stop()
  /// clears it again once tempd has joined, undoing a re-arm that raced.
  std::atomic<bool> armed_{false};
  std::vector<NodeBinding> nodes_;
  Tempd tempd_;
  ThreadRegistry registry_;
  /// Live stream to a tempest-collectd daemon (TEMPEST_COLLECT); null
  /// when unset or unreachable — recording then stays file-only.
  /// Declared before heartbeat_ on purpose: the emitter's line sink
  /// captures this client raw, so the emitter must be destroyed (final
  /// snapshot emitted, thread joined) while the client is still alive —
  /// members destroy in reverse declaration order.
  std::unique_ptr<collectd::CollectClient> collect_;
  telemetry::HeartbeatEmitter heartbeat_;
  trace::Trace trace_;
  std::uint64_t start_tsc_ = 0;

  // -- admission pipeline -----------------------------------------------
  // plan_ is built at start() and published to the hooks through
  // admission_ (null = admit everything). Old plans are retired, never
  // freed mid-process, for the same reason retired ThreadStates are: a
  // hook that loaded the pointer just before stop() may still probe it.
  std::unique_ptr<AdmissionPlan> plan_;
  std::vector<std::unique_ptr<AdmissionPlan>> retired_plans_;
  std::atomic<const AdmissionPlan*> admission_{nullptr};
  trace::FilterDecl filter_decl_ GUARDED_BY(synth_mu_);
  /// Filter rules that did not match an ELF symbol: candidate synthetic
  /// region names, consulted (under synth_mu_) when regions are minted.
  std::vector<std::string> filter_names_ GUARDED_BY(synth_mu_);
  /// Global sampling boost: the throttle admits 1 in 2^(shift+boost).
  /// Written by the tempd-thread controller, read relaxed by hooks.
  std::atomic<std::uint32_t> boost_{0};
  double tsc_hz_ = 0.0;
  std::uint64_t ring_trim_ticks_ = 0;  ///< TEMPEST_RING_SECONDS in ticks

  // -- flight recorder ----------------------------------------------------
  std::atomic<bool> snapshot_requested_{false};
  std::atomic<std::uint64_t> snapshots_written_{0};
  bool watchdog_snapped_ = false;  ///< tempd thread only
  bool signal_installed_ = false;
  common::Mutex snap_mu_;
  std::string last_snapshot_path_ GUARDED_BY(snap_mu_);

  common::Mutex synth_mu_;
  std::vector<trace::SyntheticSymbol> synthetic_ GUARDED_BY(synth_mu_);
};

}  // namespace tempest::core
