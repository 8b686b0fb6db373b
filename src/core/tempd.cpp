#include "core/tempd.hpp"

#include <chrono>
#include <cmath>

#include "common/tsc.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"

#if defined(__linux__)
#include <ctime>
#endif

namespace tempest::core {
namespace {

double thread_cpu_seconds() {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

void Tempd::set_tick_hook(std::function<void()> hook) {
  common::MutexLock lock(&lifecycle_mu_);
  if (thread_.joinable()) return;  // running sampler keeps its hook
  tick_hook_ = std::move(hook);
}

void Tempd::start(double hz, std::vector<NodeBinding>* nodes) {
  common::MutexLock lock(&lifecycle_mu_);
  if (thread_.joinable()) return;  // already running
  nodes_ = nodes;
  samples_.clear();
  clock_syncs_.clear();
  stats_ = Stats{};
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this, hz] { run_loop(hz); });
}

void Tempd::stop() {
  common::MutexLock lock(&lifecycle_mu_);
  // Request-before-join, and only ever join under the lifecycle lock:
  // a second stop() (or the destructor racing an explicit stop) sees a
  // non-joinable handle and falls through. Safe when start() never ran.
  // The request is stored under wake_mu_ so the sampler cannot miss the
  // notify between checking the flag and starting to wait.
  {
    common::MutexLock wake(&wake_mu_);
    stop_requested_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  const bool was_running = thread_.joinable();
  if (thread_.joinable()) {
    thread_.join();
    thread_ = std::thread();
  }
  running_.store(false, std::memory_order_release);
  if (was_running) {
    // The Stats used to be join-published and then silently discarded;
    // one line makes the sampler's health part of every run's record.
    telemetry::log_info(
        "tempd", "stopped: " + std::to_string(stats_.ticks) + " ticks (" +
                     std::to_string(stats_.missed_ticks) + " missed), " +
                     std::to_string(stats_.samples) + " samples, " +
                     std::to_string(stats_.read_errors) + " read errors, " +
                     std::to_string(stats_.cpu_seconds) + " cpu sec");
  }
}

void Tempd::run_loop(double hz) {
  using clock = std::chrono::steady_clock;
  using telemetry::Counter;
  using telemetry::Gauge;
  using telemetry::Histogram;
  const auto period = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(1.0 / hz));
  // Absolute deadline schedule: every deadline is start + n*period. A
  // late tick does not push later deadlines back (no cumulative drift);
  // an overrun past whole periods skips them and counts the misses.
  auto next = clock::now();

  // One sample immediately: short functions at the very start of a run
  // should still see a reading at-or-before their window.
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const auto tick_start = clock::now();
    // Jitter = how late the sweep starts relative to its deadline
    // (early wakeups clamp to 0 — the wait below never overshoots by
    // design, scheduling noise does).
    const double late_us = to_us(tick_start - next);
    telemetry::observe(Histogram::kCadenceJitterUs,
                       late_us < 0.0 ? 0.0 : late_us);
    sample_all_nodes();
    ++stats_.ticks;
    telemetry::count(Counter::kTempdTicks);
    // Before the hook, which runs on this thread: the session's live
    // overhead checks read tempd's CPU from stats_.
    publish_cpu();
    // After the sweep so a snapshot taken from the hook sees samples up
    // to and including this tick.
    if (tick_hook_) tick_hook_();
    const auto tick_end = clock::now();
    telemetry::observe(Histogram::kTickWallUs, to_us(tick_end - tick_start));
    // Piggyback the RSS high-water mark on the tick so live heartbeats
    // carry it; one status read per period is noise.
    telemetry::gauge_set(Gauge::kPeakRssKb, telemetry::read_peak_rss_kb());

    next += period;
    while (next <= tick_end) {  // sweep overran one or more whole periods
      next += period;
      ++stats_.missed_ticks;
      telemetry::count(Counter::kTempdMissedTicks);
    }
    // Wait for the absolute deadline; stop() notifies, so it never waits
    // out the period.
    common::MutexLock wake(&wake_mu_);
    wake_.wait_until(wake_mu_, next, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
  }
  // Final sample so every function interval is bracketed by readings.
  sample_all_nodes();
  ++stats_.ticks;
  telemetry::count(Counter::kTempdTicks);
  publish_cpu();
}

void Tempd::publish_cpu() {
  stats_.cpu_seconds = thread_cpu_seconds();
  telemetry::gauge_set(
      telemetry::Gauge::kTempdCpuUs,
      static_cast<std::int64_t>(std::llround(stats_.cpu_seconds * 1e6)));
}

void Tempd::sample_all_nodes() {
  using clock = std::chrono::steady_clock;
  using telemetry::Counter;
  using telemetry::Gauge;
  using telemetry::Histogram;
  std::size_t sensor_index = 0;  // global across nodes, for the gauges
  for (NodeBinding& node : *nodes_) {
    if (node.on_tick) node.on_tick();
    const std::uint64_t global_now = rdtsc();
    std::uint64_t node_now = global_now;
    if (node.sim != nullptr) {
      node.sim->advance_to(global_now);
      node_now = node.sim->clock().translate(global_now);
      clock_syncs_.push_back({node_now, global_now, node.node_id});
    }
    for (const auto& sensor : node.sensors) {
      const auto read_start = clock::now();
      auto reading = node.backend->read_celsius(sensor.id);
      telemetry::observe(Histogram::kSensorReadUs,
                         to_us(clock::now() - read_start));
      telemetry::count(Counter::kSensorReads);
      const std::size_t idx = sensor_index++;
      if (!reading.is_ok()) {
        ++stats_.read_errors;
        telemetry::count(Counter::kSensorReadFailures);
        continue;
      }
      samples_.push_back({node_now, reading.value(), node.node_id, sensor.id});
      ++stats_.samples;
      telemetry::count(Counter::kTempdSamples);
      if (idx < 8) {
        telemetry::gauge_set(
            static_cast<Gauge>(static_cast<std::size_t>(Gauge::kSensorTemp0MilliC) + idx),
            static_cast<std::int64_t>(std::llround(reading.value() * 1000.0)));
      }
    }
  }
}

}  // namespace tempest::core
