#include "core/session.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>
#include <unordered_map>

#include "collectd/client.hpp"
#include "common/affinity.hpp"
#include "common/filter_file.hpp"
#include "common/tsc.hpp"
#include "sensors/hwmon.hpp"
#include "symtab/elf.hpp"
#include "symtab/resolver.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/watchdog.hpp"
#include "trace/writer.hpp"

namespace tempest::core {
namespace {

std::string self_exe_path() {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return {};
}

// Snapshot-signal plumbing. The handler only flips an atomic flag
// (async-signal-safe); the tempd thread notices on its next tick and
// does the actual work. File-scope because sigaction wants a plain
// function, and there is exactly one Session per process.
std::atomic<bool> g_signal_snapshot{false};

void snapshot_signal_handler(int /*signo*/) {
  g_signal_snapshot.store(true, std::memory_order_relaxed);
}

struct sigaction g_prev_snapshot_action;

/// Estimated event rate used to size a TEMPEST_RING_SECONDS ring when
/// TEMPEST_RING_EVENTS is unset: one chunk (64Ki events) per window
/// second is plenty for instrumented code while keeping memory modest
/// (1 MiB/s of window at 16 bytes/event).
constexpr std::size_t kRingEventsPerSecond = EventBuffer::kChunkSize;

/// Auto-promotion ceiling: 1-in-2^20 sampling is already "almost off".
constexpr std::uint8_t kMaxShift = 20;
constexpr std::uint32_t kMaxBoost = 8;

/// When the probe-cost histogram is still empty (throttled lanes sample
/// it more sparsely), assume a conservative per-event cost.
constexpr double kDefaultProbeCostNs = 25.0;

}  // namespace

Session& Session::instance() {
  static Session* session = new Session();  // intentionally leaked: hooks
  return *session;                          // may fire during static dtors
}

std::uint16_t Session::register_sim_node(simnode::SimNode* node) {
  const auto id = static_cast<std::uint16_t>(nodes_.size());
  NodeBinding binding;
  binding.node_id = id;
  binding.hostname = node->hostname();
  binding.backend = &node->sensor_backend();
  binding.sim = node;
  binding.sensors = binding.backend->enumerate();
  nodes_.push_back(std::move(binding));
  return id;
}

Result<std::uint16_t> Session::register_hwmon_node(const std::string& hostname) {
  auto backend = std::make_unique<sensors::HwmonBackend>();
  if (!backend->available()) {
    return Result<std::uint16_t>::error(
        "no hwmon temperature sensors on this host (is /sys/class/hwmon populated?)");
  }
  const auto id = static_cast<std::uint16_t>(nodes_.size());
  NodeBinding binding;
  binding.node_id = id;
  binding.hostname = hostname;
  binding.backend = backend.get();
  binding.owned_backend = std::move(backend);
  binding.sensors = binding.backend->enumerate();
  nodes_.push_back(std::move(binding));
  return id;
}

void Session::clear_nodes() {
  if (active()) return;  // refuse while running
  nodes_.clear();
}

Status Session::set_node_tick_hook(std::uint16_t node_id, std::function<void()> hook) {
  if (active()) return Status::error("cannot install tick hook while active");
  if (node_id >= nodes_.size()) return Status::error("tick hook: unknown node id");
  nodes_[node_id].on_tick = std::move(hook);
  return Status::ok();
}

Status Session::start(const SessionConfig& config) {
  if (active()) return Status::error("Tempest session already active");
  if (nodes_.empty()) return Status::error("no nodes registered");
  config_ = config;

  if (config_.bind_affinity) {
    // Best effort: containers may restrict the mask; profiling proceeds
    // (with the §3.3 skew caveat) when binding fails.
    (void)bind_current_thread_to_cpu(config_.bind_cpu);
  }

  registry_.reset();
  trace_ = trace::Trace{};
  // New telemetry epoch: every counter in this run's RUNSTATS describes
  // this run only.
  telemetry::metrics().reset();
  telemetry::count(telemetry::Counter::kSessionStarts);
  // Calibrate the TSC on this thread now, so the one-time busy-spin
  // never lands on the tempd thread (it would show up as tempd CPU).
  tsc_hz_ = tsc_ticks_per_second();

  // Per-run admission/flight-recorder state. The previous run's plan is
  // retired (hooks racing the last stop() may still hold its pointer).
  if (plan_ != nullptr) retired_plans_.push_back(std::move(plan_));
  admission_.store(nullptr, std::memory_order_release);
  boost_.store(0, std::memory_order_relaxed);
  snapshot_requested_.store(false, std::memory_order_relaxed);
  g_signal_snapshot.store(false, std::memory_order_relaxed);
  snapshots_written_.store(0, std::memory_order_relaxed);
  watchdog_snapped_ = false;
  {
    common::MutexLock lock(&synth_mu_);
    filter_decl_ = trace::FilterDecl{};
    filter_names_.clear();
  }

  // Buffer posture: flight-recorder ring wins over the hard cap.
  ring_trim_ticks_ = 0;
  std::size_t ring_events = config_.ring_events;
  if (config_.ring_seconds > 0.0) {
    ring_trim_ticks_ =
        static_cast<std::uint64_t>(config_.ring_seconds * tsc_hz_);
    if (ring_events == 0) {
      ring_events = static_cast<std::size_t>(config_.ring_seconds *
                                             kRingEventsPerSecond) +
                    EventBuffer::kChunkSize;
    }
  }
  if (ring_events != 0 && config_.max_events_per_thread != 0) {
    telemetry::log_warn("session",
                        "TEMPEST_MAX_EVENTS ignored: flight-recorder ring "
                        "mode bounds memory by recycling instead");
  }
  config_.ring_events = ring_events;  // effective size (window-derived)
  registry_.set_buffer_ring(ring_events);
  registry_.set_buffer_limit(config_.max_events_per_thread);

  // Build the admission plan from one read of the filter file: the set
  // sized for its rule count plus headroom for synthetic regions minted
  // mid-run, then filled from the same rules.
  common::FilterFile filter_file;
  if (!config_.filter_path.empty()) {
    auto parsed = common::read_filter_file(config_.filter_path);
    if (parsed.is_ok()) {
      filter_file = std::move(parsed).value();
    } else {
      telemetry::log_warn("session", "TEMPEST_FILTER ignored: " +
                                         parsed.status().message());
      config_.filter_path.clear();
    }
  }
  auto plan =
      std::make_unique<AdmissionPlan>(filter_file.rules.size() + 32);
  if (!config_.filter_path.empty()) load_filter(filter_file, plan.get());
  ThrottleSettings& th = plan->throttle;
  th.min_duration_ticks = static_cast<std::uint64_t>(
      static_cast<double>(config_.min_duration_ns) * tsc_hz_ * 1e-9);
  th.window_ticks = static_cast<std::uint64_t>(0.1 * tsc_hz_);
  th.rate_cap = config_.rate_cap < 0
                    ? 0
                    : static_cast<std::uint32_t>(std::min<long>(
                          config_.rate_cap, 0x7FFF'FFFFL));
  th.adaptive = config_.adaptive;
  plan->throttling = th.enabled();
  bool filter_pending = false;
  {
    common::MutexLock lock(&synth_mu_);
    filter_pending = !filter_names_.empty();
  }
  // Publish when anything can ever reject: a resolved suppression, a
  // throttle, or rules waiting for synthetic_addr to mint their region.
  if (plan->filter.size() != 0 || filter_pending || plan->throttling) {
    plan_ = std::move(plan);
    admission_.store(plan_.get(), std::memory_order_release);
  }

  // Flight-recorder snapshot triggers: signal + tempd-tick servicing.
  if (config_.snapshot_signal > 0) {
    struct sigaction sa {};
    sa.sa_handler = snapshot_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    signal_installed_ =
        ::sigaction(config_.snapshot_signal, &sa, &g_prev_snapshot_action) == 0;
    if (!signal_installed_) {
      telemetry::log_warn("session", "TEMPEST_SNAPSHOT_SIGNAL: sigaction "
                                     "failed; signal snapshots disabled");
    }
  }
  tempd_.set_tick_hook([this] { on_tempd_tick(); });

  // Live collector stream (TEMPEST_COLLECT). Unreachable is not an
  // error: the run degrades to file-only recording.
  collect_.reset();
  heartbeat_.set_line_sink(nullptr);
  if (!config_.collect_spec.empty()) {
    auto client = std::make_unique<collectd::CollectClient>();
    const Status conn = client->connect(config_.collect_spec);
    if (conn.is_ok()) {
      client->send_hello(static_cast<std::uint64_t>(::getpid()),
                         self_exe_path());
      collect_ = std::move(client);
      collectd::CollectClient* raw = collect_.get();
      heartbeat_.set_line_sink(
          [raw](const std::string& line) { raw->send_heartbeat(line); });
    } else {
      telemetry::log_warn("session", "TEMPEST_COLLECT unreachable (" +
                                         conn.message() +
                                         "); recording file-only");
    }
  }

  start_tsc_ = rdtsc();
  tempd_.start(config_.sample_hz, &nodes_);
  if (config_.heartbeat_period_s > 0.0 &&
      (!config_.output_path.empty() || collect_ != nullptr)) {
    const std::string hb_path =
        config_.output_path.empty()
            ? std::string()
            : telemetry::HeartbeatEmitter::path_for_trace(config_.output_path);
    const Status hb = heartbeat_.start(hb_path, config_.heartbeat_period_s);
    if (!hb.is_ok()) {
      telemetry::log_warn("session", "heartbeat disabled: " + hb.message());
    }
  }
  running_.store(true, std::memory_order_release);
  armed_.store(true, std::memory_order_release);
  return Status::ok();
}

Status Session::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::error("Tempest session not active");
  }
  armed_.store(false, std::memory_order_release);
  tempd_.stop();
  // A snapshot that was mid-write when stop() began may have re-armed
  // the hooks after the store above; tempd has joined, so it is done.
  armed_.store(false, std::memory_order_release);
  if (signal_installed_) {
    (void)::sigaction(config_.snapshot_signal, &g_prev_snapshot_action,
                      nullptr);
    signal_installed_ = false;
  }

  DrainTotals totals;
  seal_trace(&trace_, /*drain=*/true, &totals);

  // Stop the heartbeat after the drain published exact event totals, so
  // its final JSONL line is the run's true summary; then fold the same
  // numbers into the trace's RUNSTATS section.
  heartbeat_.stop();
  telemetry::count(telemetry::Counter::kSessionStops);
  assemble_run_stats(&trace_.run_stats, totals);

  // Ship the sealed run to the collector: full metadata (with the just
  // assembled RUNSTATS) first, then the bulk sections — samples ahead
  // of events, so the collector's fold credits them as it replays —
  // then BYE with the exact counts so the daemon can verify it folded
  // everything. The heartbeat thread is already joined, so the stream
  // is ours alone.
  if (collect_ != nullptr) {
    collect_->send_meta(trace_);
    collect_->send_clock_syncs(trace_.clock_syncs);
    collect_->send_temp_samples(trace_.temp_samples.data(),
                                trace_.temp_samples.size());
    collect_->send_fn_events(trace_.fn_events.data(), trace_.fn_events.size());
    collect_->send_bye(trace_.fn_events.size(), trace_.temp_samples.size());
    collect_->close();
    heartbeat_.set_line_sink(nullptr);
    collect_.reset();
  }

  Status write_status = Status::ok();
  if (!config_.output_path.empty()) {
    write_status = trace::write_trace_file(config_.output_path, trace_);
  }

  // The watchdog's verdict never blocks the trace from being written —
  // an over-budget run's data is still data, just suspect.
  const telemetry::WatchdogReport report =
      telemetry::evaluate_overhead(trace_.run_stats, config_.watchdog_budget);
  if (report.tripped()) {
    telemetry::log_warn("watchdog", report.describe());
  } else {
    telemetry::log_info("watchdog", report.describe());
  }
  if (!write_status.is_ok()) return write_status;
  if (config_.watchdog && report.tripped()) {
    return Status::error("overhead watchdog tripped: " + report.describe());
  }
  return Status::ok();
}

void Session::record_probed(ThreadState* ts, std::uint64_t addr,
                            trace::FnEventKind kind) {
  const std::uint64_t t0 = rdtsc();
  ts->events.push({ts->now(), addr, ts->thread_id, ts->node_id, kind});
  const std::uint64_t t1 = rdtsc();
  telemetry::observe(
      telemetry::Histogram::kProbeCostNs,
      static_cast<double>(t1 - t0) * 1e9 / tsc_ticks_per_second());
}

void Session::count_throttled(ThreadState* ts, std::uint64_t n) {
  ts->throttled += n;
  if (ts->throttled - ts->published_throttled >= kAdmissionPublishBlock) {
    ts->publish_rejections();
  }
}

void Session::push_admitted(ThreadState* ts, std::uint64_t now,
                            std::uint64_t addr, trace::FnEventKind kind) {
  ++ts->admitted;
  if ((++ts->probe_tick & (kProbeSamplePeriod - 1)) == 0) {
    const std::uint64_t t0 = rdtsc();
    ts->events.push({now, addr, ts->thread_id, ts->node_id, kind});
    const std::uint64_t t1 = rdtsc();
    telemetry::observe(
        telemetry::Histogram::kProbeCostNs,
        static_cast<double>(t1 - t0) * 1e9 / tsc_ticks_per_second());
    return;
  }
  ts->events.push({now, addr, ts->thread_id, ts->node_id, kind});
}

void Session::record_throttled(ThreadState* ts, const AdmissionPlan* plan,
                               std::uint64_t addr, trace::FnEventKind kind) {
  if (ts->throttle == nullptr) ts->throttle = std::make_unique<ThrottleState>();
  ThrottleState& th = *ts->throttle;
  const ThrottleSettings& s = plan->throttle;

  if (kind == trace::FnEventKind::kEnter) {
    if (th.stack.size() >= ThrottleState::kMaxDepth) {
      // Pathologically deep recursion: stop tracking frames and admit
      // unconditionally — losing throttling beats unbounded state.
      push_admitted(ts, ts->now(), addr, kind);
      return;
    }
    const std::uint64_t now = ts->now();
    FnThrottle* cell = th.cell(addr);
    if (s.window_ticks != 0 && now - cell->window_start >= s.window_ticks) {
      // Window roll with auto-promotion: a function whose sampled call
      // count still overflows the cap gets coarser 1-in-2^k sampling;
      // one that would fit at the next-finer level gets demoted back.
      if (s.rate_cap != 0) {
        if ((cell->calls >> cell->shift) > s.rate_cap &&
            cell->shift < kMaxShift) {
          ++cell->shift;
        } else if (cell->shift > 0 &&
                   (cell->calls >> (cell->shift - 1)) <= s.rate_cap) {
          --cell->shift;
        }
      }
      cell->window_start = now;
      cell->calls = 0;
      cell->admitted = 0;
    }
    ++cell->calls;
    const std::uint32_t shift =
        cell->shift + boost_.load(std::memory_order_relaxed);
    // Admit 1 in 2^shift of this function's calls, then apply the hard
    // per-window cap on top. The decision is remembered on the shadow
    // stack so the matching exit follows it — pairs drop together.
    bool admit = shift == 0 ||
                 (cell->calls & ((1u << std::min(shift, 31u)) - 1)) == 0;
    if (admit && s.rate_cap != 0 && cell->admitted >= s.rate_cap) {
      admit = false;
    }
    PendingFrame frame;
    frame.addr = addr;
    frame.enter_tsc = now;
    frame.admitted = admit;
    if (admit) {
      ++cell->admitted;
      push_admitted(ts, now, addr, kind);
      frame.cursor = ts->events.cursor();
    } else {
      count_throttled(ts, 1);
    }
    th.stack.push_back(frame);
    return;
  }

  // Exit: find the matching frame near the top. A short scan tolerates
  // frames abandoned by longjmp/exception unwinds; anything deeper is
  // treated as unmatched.
  std::size_t idx = th.stack.size();
  const std::size_t scan_floor =
      th.stack.size() > ThrottleState::kUnwindScan
          ? th.stack.size() - ThrottleState::kUnwindScan
          : 0;
  for (std::size_t i = th.stack.size(); i > scan_floor; --i) {
    if (th.stack[i - 1].addr == addr) {
      idx = i - 1;
      break;
    }
  }
  if (idx == th.stack.size()) {
    // Unmatched exit (over-depth enter, unwind past the scan, or an
    // unbalanced explicit region): admit conservatively — analysis
    // already tolerates unbalanced traces, silence would hide data.
    push_admitted(ts, ts->now(), addr, kind);
    return;
  }
  const PendingFrame frame = th.stack[idx];
  th.stack.resize(idx);  // frames above were unwound; their exits never come
  if (!frame.admitted) {
    count_throttled(ts, 1);
    return;
  }
  const std::uint64_t now = ts->now();
  if (s.min_duration_ticks != 0 && now - frame.enter_tsc < s.min_duration_ticks &&
      ts->events.cursor() == frame.cursor && ts->events.try_pop_last(addr)) {
    // Leaf pair shorter than the cutoff: retract the enter (the cursor
    // match proves it is still the newest event) and drop the exit.
    --ts->admitted;
    count_throttled(ts, 2);
    return;
  }
  push_admitted(ts, now, addr, kind);
}

void Session::load_filter(const common::FilterFile& ff, AdmissionPlan* plan) {
  common::MutexLock lock(&synth_mu_);
  filter_decl_.present = true;
  filter_decl_.source = config_.filter_path;
  filter_decl_.suppressed.reserve(ff.rules.size());
  for (const auto& rule : ff.rules) filter_decl_.suppressed.push_back(rule.symbol);

  // Resolve rule names to runtime addresses: ELF symtab + load bias
  // (the same translation the offline resolver applies in reverse).
  std::unordered_map<std::string, std::uint64_t> by_name;
  const std::string exe = self_exe_path();
  if (!exe.empty()) {
    auto symbols = symtab::read_function_symbols(exe);
    if (symbols.is_ok()) {
      const std::uint64_t bias = symtab::current_load_bias();
      for (const auto& sym : symbols.value()) {
        if (sym.value != 0) by_name.emplace(sym.name, sym.value + bias);
      }
    } else {
      telemetry::log_warn("session",
                          "TEMPEST_FILTER: cannot read symbols from " + exe +
                              ": " + symbols.status().message());
    }
  }
  std::uint64_t resolved = 0;
  for (const auto& rule : ff.rules) {
    const auto it = by_name.find(rule.symbol);
    if (it != by_name.end() && plan->filter.insert(it->second)) {
      ++resolved;
      continue;
    }
    // Synthetic regions live in a private address space: match any
    // already-minted name now, and remember the rest so synthetic_addr
    // can suppress regions minted later in the run.
    bool synthetic = false;
    for (const auto& s : synthetic_) {
      if (s.name == rule.symbol) {
        if (plan->filter.insert(s.addr)) ++resolved;
        synthetic = true;
        break;
      }
    }
    if (!synthetic) filter_names_.push_back(rule.symbol);
  }
  filter_decl_.resolved = resolved;
  telemetry::log_info(
      "session", "TEMPEST_FILTER " + config_.filter_path + ": " +
                     std::to_string(resolved) + "/" +
                     std::to_string(ff.rules.size()) +
                     " rules resolved to addresses");
}

void Session::on_tempd_tick() {
  if (!active()) return;
  if (g_signal_snapshot.exchange(false, std::memory_order_acq_rel)) {
    write_snapshot("signal");
  } else if (snapshot_requested_.exchange(false, std::memory_order_acq_rel)) {
    write_snapshot("api");
  }
  adaptive_tick();
}

void Session::adaptive_tick() {
  const bool adaptive = plan_ != nullptr && plan_->throttle.adaptive;
  const bool watchdog_ring = config_.watchdog && config_.ring_events != 0;
  if (!adaptive && !watchdog_ring) return;

  const double wall = tsc_to_seconds(rdtsc() - start_tsc_);
  if (wall < 0.05) return;
  const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
  double probe_ns =
      snap.histogram(telemetry::Histogram::kProbeCostNs).mean();
  if (probe_ns <= 0.0) probe_ns = kDefaultProbeCostNs;
  const double recorded = static_cast<double>(
      snap.counter(telemetry::Counter::kEventsRecorded));
  const double probe_share = recorded * probe_ns * 1e-9 / wall;
  const double tempd_share = tempd_.stats().cpu_seconds / wall;
  const double share = probe_share + tempd_share;

  if (adaptive) {
    // Bang-bang controller with hysteresis: over budget -> coarser
    // global sampling; under half budget -> finer. One step per tick
    // keeps it stable at 4 Hz.
    const std::uint32_t boost = boost_.load(std::memory_order_relaxed);
    if (share > config_.watchdog_budget && boost < kMaxBoost) {
      boost_.store(boost + 1, std::memory_order_relaxed);
      telemetry::log_info(
          "session",
          "adaptive: overhead " + std::to_string(share * 100.0) +
              "% of wall over budget; sampling boost -> 1 in " +
              std::to_string(1u << (boost + 1)));
    } else if (share < config_.watchdog_budget * 0.5 && boost > 0) {
      boost_.store(boost - 1, std::memory_order_relaxed);
    }
  }
  if (watchdog_ring && !watchdog_snapped_ &&
      share > config_.watchdog_budget) {
    // The flight recorder's reason to exist: capture the window around
    // the moment the run went over budget, once.
    watchdog_snapped_ = true;
    write_snapshot("watchdog");
  }
}

void Session::seal_trace(trace::Trace* out, bool drain, DrainTotals* totals) {
  out->tsc_ticks_per_second = tsc_hz_;
  out->executable = self_exe_path();
  out->load_bias = symtab::current_load_bias();
  for (const auto& node : nodes_) {
    out->nodes.push_back({node.node_id, node.hostname});
    for (const auto& s : node.sensors) {
      out->sensors.push_back({node.node_id, s.id, s.name, s.quant_step_c});
    }
  }
  {
    common::MutexLock lock(&synth_mu_);
    out->synthetic_symbols = synthetic_;
    out->filter = filter_decl_;
  }
  // The merge writes the events in time order, so only the samples need
  // sorting. Between start and join the sample vectors belong to the
  // tempd thread, where a snapshot runs, so copying them is race-free.
  if (drain) {
    registry_.drain_into(out, ring_trim_ticks_, totals);
    out->temp_samples = std::move(tempd_.samples());
    out->clock_syncs = std::move(tempd_.clock_syncs());
  } else {
    registry_.snapshot_into(out, ring_trim_ticks_, totals);
    out->temp_samples = tempd_.samples();
    out->clock_syncs = tempd_.clock_syncs();
  }
  out->sort_samples_by_time();
}

void Session::write_snapshot(const char* trigger) {
  if (config_.output_path.empty()) {
    telemetry::log_warn("session",
                        "snapshot requested but TEMPEST_OUT is unset");
    return;
  }
  // Pause the hooks so recording threads quiesce; a short settle lets
  // hooks that already passed the armed_ check finish their push (see
  // DESIGN.md §13 for the residual in-flight approximation).
  armed_.store(false, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  trace::Trace snap;
  DrainTotals totals;
  seal_trace(&snap, /*drain=*/false, &totals);
  // A snapshot quiesces by flag + settle, not by join, so a thread
  // descheduled mid-hook can leave `admitted` a few events out of step
  // with what the buffers actually hold. Derive it from what was
  // actually copied so the snapshot's RUNSTATS satisfy the conservation
  // invariant by construction (stop() asserts the real thing exactly).
  totals.admitted = totals.retained + totals.dropped + totals.overwritten;
  assemble_run_stats(&snap.run_stats, totals);
  const std::uint64_t n = snapshots_written_.load(std::memory_order_relaxed);
  snap.run_stats.ring_snapshots = n + 1;

  std::string path = config_.output_path + ".snapshot";
  if (n > 0) path += "." + std::to_string(n);
  const Status written = trace::write_trace_file(path, snap);
  // Re-arm before the count publishes, so a request_snapshot() that sees
  // the new count finds recording running again. A stop() that began
  // meanwhile disarms once more after tempd has joined.
  if (active()) armed_.store(true, std::memory_order_release);
  if (written.is_ok()) {
    {
      common::MutexLock lock(&snap_mu_);
      last_snapshot_path_ = path;
    }
    snapshots_written_.fetch_add(1, std::memory_order_acq_rel);
    telemetry::count(telemetry::Counter::kRingSnapshots);
    telemetry::log_info(
        "session", std::string("flight-recorder snapshot (") + trigger +
                       ") -> " + path + ": " +
                       std::to_string(snap.fn_events.size()) + " events");
  } else {
    telemetry::log_warn("session",
                        "snapshot write failed: " + written.message());
  }
}

Result<std::string> Session::request_snapshot(double timeout_s) {
  using Out = Result<std::string>;
  if (!active()) return Out::error("Tempest session not active");
  if (config_.output_path.empty()) {
    return Out::error("snapshot needs TEMPEST_OUT (no output path set)");
  }
  const std::uint64_t before =
      snapshots_written_.load(std::memory_order_acquire);
  snapshot_requested_.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (snapshots_written_.load(std::memory_order_acquire) == before) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Out::error("snapshot timed out after " +
                        std::to_string(timeout_s) +
                        "s (is the sampler thread running?)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  common::MutexLock lock(&snap_mu_);
  return Out(last_snapshot_path_);
}

void Session::assemble_run_stats(trace::RunStats* out,
                                 const DrainTotals& totals) {
  using telemetry::Counter;
  using telemetry::Histogram;
  const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
  const Tempd::Stats& td = tempd_.stats();
  trace::RunStats& rs = *out;
  // Admission accounting comes from the exact drain totals, not the
  // telemetry counters: those publish at chunk/block granularity for the
  // live heartbeat and, in ring mode, have already counted events that a
  // recycled chunk later destroyed. The conservation invariants
  //   calls_observed == recorded + suppressed + throttled
  //                     + dropped + overwritten
  // only hold with the quiesced per-thread numbers.
  rs.events_recorded = totals.retained;
  rs.events_dropped = totals.dropped;
  rs.events_suppressed = totals.suppressed;
  rs.events_throttled = totals.throttled;
  rs.events_overwritten = totals.overwritten;
  rs.calls_observed = totals.observed();
  rs.ring_snapshots = snapshots_written_.load(std::memory_order_acquire);
  rs.buffer_flushes = snap.counter(Counter::kBufferFlushes);
  rs.threads_registered = snap.counter(Counter::kThreadsRegistered);
  // tempd's own Stats are authoritative (single-writer, join-published);
  // the counters mirror them for the live heartbeat view.
  rs.tempd_ticks = td.ticks;
  rs.tempd_missed_ticks = td.missed_ticks;
  rs.tempd_samples = td.samples;
  rs.tempd_read_errors = td.read_errors;
  rs.sensor_read_failures = snap.counter(Counter::kSensorReadFailures);
  rs.heartbeats = snap.counter(Counter::kHeartbeats);
  rs.peak_rss_kb = static_cast<std::uint64_t>(telemetry::read_peak_rss_kb());
  rs.wall_seconds = tsc_to_seconds(rdtsc() - start_tsc_);
  rs.tempd_cpu_seconds = td.cpu_seconds;
  rs.probe_cost_ns_mean = snap.histogram(Histogram::kProbeCostNs).mean();
  rs.cadence_jitter_us_mean =
      snap.histogram(Histogram::kCadenceJitterUs).mean();
  rs.present = true;
}

Status Session::attach_current_thread(std::uint16_t node_id, std::uint16_t core) {
  if (node_id >= nodes_.size()) return Status::error("attach: unknown node id");
  const NodeBinding& node = nodes_[node_id];
  const VirtualTsc* clock = node.sim != nullptr ? &node.sim->clock() : nullptr;
  registry_.bind_current(node_id, core, clock);
  return Status::ok();
}

std::uint64_t Session::synthetic_addr(const std::string& name) {
  common::MutexLock lock(&synth_mu_);
  for (const auto& s : synthetic_) {
    if (s.name == name) return s.addr;
  }
  const std::uint64_t addr = trace::kSyntheticAddrBase + synthetic_.size();
  synthetic_.push_back({addr, name});
  // A filter rule that matched no ELF symbol may name an explicit-API
  // region; suppress it from the moment it is minted (CAS insert — the
  // hooks may be probing the set concurrently).
  if (!filter_names_.empty() && plan_ != nullptr &&
      std::find(filter_names_.begin(), filter_names_.end(), name) !=
          filter_names_.end()) {
    if (plan_->filter.insert(addr)) ++filter_decl_.resolved;
  }
  return addr;
}

simnode::SimNode* Session::sim_node(std::uint16_t node_id) {
  if (node_id >= nodes_.size()) return nullptr;
  return nodes_[node_id].sim;
}

}  // namespace tempest::core
