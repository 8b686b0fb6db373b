// tempd: the temperature-measuring sampler.
//
// The paper launches a light-weight process that samples every thermal
// sensor four times per second for the lifetime of the profiled
// application, and validates that it uses < 1% CPU. Here tempd is a
// dedicated thread (a documented substitution: same sampling loop, same
// data path, no IPC needed because the trace is in-process); it also
// advances each simulated node's thermal model to "now" before reading,
// and emits the clock-sync observations used for cross-node alignment.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sensors/backend.hpp"
#include "simnode/node.hpp"
#include "trace/trace.hpp"

namespace tempest::core {

/// One profiled node as tempd sees it.
struct NodeBinding {
  std::uint16_t node_id = 0;
  std::string hostname;
  sensors::SensorBackend* backend = nullptr;              ///< never null
  std::unique_ptr<sensors::SensorBackend> owned_backend;  ///< set when session-owned
  simnode::SimNode* sim = nullptr;                        ///< null for physical nodes
  std::vector<sensors::SensorInfo> sensors;               ///< enumerated at registration
  /// Invoked at each sampling tick before the node advances; the
  /// transparent auto-profiling mode uses it to feed the node the
  /// process's measured CPU utilisation.
  std::function<void()> on_tick;
};

class Tempd {
 public:
  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t samples = 0;
    std::uint64_t read_errors = 0;
    /// Deadlines skipped because a sweep overran whole periods. The
    /// loop schedules against absolute deadlines (start + n*period), so
    /// an overrun skips forward instead of compressing later gaps —
    /// missed ticks are counted, never smeared into drift.
    std::uint64_t missed_ticks = 0;
    /// tempd thread CPU time, updated every tick before the tick hook
    /// runs, so the hook reads it current on the sampler thread.
    double cpu_seconds = 0.0;
  };

  ~Tempd() { stop(); }

  /// Install a hook the sampler thread invokes once per tick, after the
  /// sensor sweep (the session uses it to service flight-recorder
  /// snapshot requests and the adaptive controller from a thread that
  /// safely owns the sample vectors). Set while stopped; a running
  /// sampler keeps its current hook.
  void set_tick_hook(std::function<void()> hook) EXCLUDES(lifecycle_mu_);

  /// Begin sampling `nodes` at `hz`. The bindings must outlive the run.
  /// No-op when already running.
  void start(double hz, std::vector<NodeBinding>* nodes) EXCLUDES(lifecycle_mu_);

  /// Stop and join. Idempotent: safe to call repeatedly, from multiple
  /// threads concurrently, and when the sampler thread never started.
  void stop() EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Results; valid after stop() (or before start()). The join inside
  /// stop() is the happens-before edge that publishes them.
  std::vector<trace::TempSample>& samples() { return samples_; }
  std::vector<trace::ClockSync>& clock_syncs() { return clock_syncs_; }
  const Stats& stats() const { return stats_; }

 private:
  void run_loop(double hz);
  void sample_all_nodes();
  /// Read this thread's CPU time into stats_ and the kTempdCpuUs gauge.
  void publish_cpu();

  // Lifecycle lock: serialises start/stop (including concurrent stop()
  // racing the destructor) and guards the thread handle. The sampler
  // thread itself never takes it — it owns samples_/clock_syncs_/stats_
  // exclusively between start() and the join in stop(), and reads
  // nodes_ published by the thread-creation edge in start().
  common::Mutex lifecycle_mu_;
  std::thread thread_ GUARDED_BY(lifecycle_mu_);
  std::vector<NodeBinding>* nodes_ = nullptr;
  std::function<void()> tick_hook_;  ///< read only by the sampler thread
  std::atomic<bool> running_{false};
  /// stop() sets it under wake_mu_ (the loop reads it lock-free), so the
  /// sampler's wait for its next deadline cannot miss the wakeup.
  std::atomic<bool> stop_requested_{false};
  common::Mutex wake_mu_;
  std::condition_variable_any wake_;

  std::vector<trace::TempSample> samples_;
  std::vector<trace::ClockSync> clock_syncs_;
  Stats stats_;
};

}  // namespace tempest::core
