// Admission hot-path cost: rejecting a call must be much cheaper than
// recording it, or filtering would not buy the overhead back.
//
//   bench_record [--calls N] [--reps R] [--out PATH] [--allow-debug]
//
// Measures (best of R reps, single thread, flight-recorder ring so
// memory stays flat):
//   * the accepted path — enter/exit through filter probe + timestamp +
//     buffer push,
//   * the rejected path — the same pair landing in the suppression set,
//   * the null-plan baseline — no filter or throttle configured (what
//     every pre-admission caller pays),
//   * the inactive path — hooks with no session running.
//
// The regression gate is the tentpole's contract: a rejected call costs
// <= 25% of an accepted one. tempest-audit's --filter-out suggestions
// assume suppression is nearly free; this is where that assumption is
// continuously measured (BENCH_record.json, SHAPE CHECK + exit code).
//
// A second gate bounds what Session::stop holds at once: four threads
// record ~4M events unbounded, and the process's peak RSS (VmHWM) may
// rise above its pre-session VmRSS by at most 1.25x the drained events'
// bytes. The one-pass drain unmaps each chunk as it merges it, so the
// peak is one copy of the events plus a few chunks; a change that
// brings back a second copy (a staging vector, a merge scratch) fails.
// It runs first, so no earlier phase sets the high-water mark.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_provenance.hpp"
#include "common/cli.hpp"
#include "common/filter_file.hpp"
#include "core/session.hpp"
#include "simnode/cluster.hpp"
#include "telemetry/log.hpp"

namespace {

using tempest::core::Session;
using tempest::core::SessionConfig;

void shape_check(const std::string& claim, bool ok) {
  std::cout << "SHAPE CHECK [" << (ok ? "ok" : "MISMATCH") << "] " << claim
            << "\n";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A `Vm*:` field of /proc/self/status in KiB, or -1 where unavailable.
long status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

/// Outcome of the stop-time memory gate.
struct StopPeak {
  bool measured = false;
  std::size_t events = 0;
  double drained_mib = 0.0;
  double rise_mib = 0.0;  ///< VmHWM after stop() minus VmRSS before start()
};

/// Record `pairs_per_thread` enter/exit pairs on each of `threads`
/// threads in one unbounded session, then stop it and read how far the
/// high-water mark rose.
StopPeak measure_stop_peak(Session& session, std::size_t threads,
                           std::size_t pairs_per_thread) {
  StopPeak out;
  const long before_kib = status_kib("VmRSS");
  SessionConfig config;
  config.sample_hz = 4.0;
  config.bind_affinity = false;
  config.auto_report = false;
  if (before_kib < 0 || !session.start(config)) return out;
  const std::uint64_t addr = session.synthetic_addr("bench_record_stop_peak");
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&session, addr, pairs_per_thread] {
      for (std::size_t i = 0; i < pairs_per_thread; ++i) {
        session.record_enter(addr);
        session.record_exit(addr);
      }
    });
  }
  for (auto& w : workers) w.join();
  const bool stopped = session.stop().is_ok();
  const long peak_kib = status_kib("VmHWM");
  out.events = session.take_trace().fn_events.size();
  out.measured = stopped && peak_kib >= 0;
  out.drained_mib = static_cast<double>(out.events * sizeof(tempest::trace::FnEvent)) /
                    (1024.0 * 1024.0);
  out.rise_mib = static_cast<double>(peak_kib - before_kib) / 1024.0;
  return out;
}

/// ns per hook call (not per pair), best of `reps` runs of `calls`
/// enter/exit pairs against `addr`.
double pair_ns_per_call(Session& session, std::uint64_t addr,
                        std::size_t calls, int reps) {
  const std::size_t pairs = calls / 2;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < pairs; ++i) {
      session.record_enter(addr);
      session.record_exit(addr);
    }
    const double dt = now_s() - t0;
    best = std::min(best, dt * 1e9 / static_cast<double>(pairs * 2));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t calls = 20'000'000;
  int reps = 5;
  bool allow_debug = false;
  std::string out_path = "BENCH_record.json";

  tempest::cli::ArgParser args(
      "[--calls N] [--reps R] [--out PATH] [--allow-debug]");
  args.add_value("--calls", [&](const std::string& v) {
    return tempest::cli::parse_size(v, &calls);
  });
  args.add_value("--reps", [&](const std::string& v) {
    std::size_t r = 0;
    auto st = tempest::cli::parse_size(v, &r);
    if (st.is_ok()) reps = static_cast<int>(r == 0 ? 1 : r);
    return st;
  });
  args.add_value("--out", [&](const std::string& v) {
    out_path = v;
    return tempest::Status::ok();
  });
  args.add_flag("--allow-debug", [&] { allow_debug = true; });
  const auto parsed = args.parse(argc, argv);
  if (!parsed.is_ok() || args.help_requested()) {
    if (!parsed.is_ok()) std::cerr << "error: " << parsed.message() << "\n";
    args.print_usage(std::cerr, argv[0]);
    return 2;
  }
  if (!bench_prov::check_build("bench_record", allow_debug)) return 2;

  // The ring recycles chunks mid-measurement by design; the session
  // logs each posture change once — noise at bench cadence.
  tempest::telemetry::Logger::instance().set_threshold(
      tempest::telemetry::LogLevel::kError);

  auto& session = Session::instance();
  session.clear_nodes();
  auto node_config =
      tempest::simnode::make_node_config(tempest::simnode::NodeKind::kX86Basic);
  tempest::simnode::SimNode node(node_config);
  session.register_sim_node(&node);

  const StopPeak stop_peak = measure_stop_peak(session, 4, 500'000);

  // Inactive baseline needs no session at all.
  const double inactive_ns = pair_ns_per_call(session, 0x1234, calls, reps);

  // Null-plan baseline: active session, no admission configured.
  SessionConfig base;
  base.sample_hz = 4.0;
  base.bind_affinity = false;
  base.auto_report = false;
  base.ring_events = 1;  // flight recorder: memory stays at ~2 chunks
  if (!session.start(base)) {
    std::cerr << "bench_record: session start failed\n";
    return 2;
  }
  const std::uint64_t plain = session.synthetic_addr("bench_record_plain");
  const double baseline_ns = pair_ns_per_call(session, plain, calls, reps);
  (void)session.stop();

  // Admission run: one suppressed region, one admitted.
  const std::string filter_path = out_path + ".filter";
  tempest::common::FilterFile ff;
  ff.rules.push_back({"bench_record_rejected", "bench suppression target"});
  if (!tempest::common::write_filter_file(filter_path, ff).is_ok()) {
    std::cerr << "bench_record: cannot write " << filter_path << "\n";
    return 2;
  }
  SessionConfig admitted = base;
  admitted.filter_path = filter_path;
  if (!session.start(admitted)) {
    std::cerr << "bench_record: filtered session start failed\n";
    return 2;
  }
  const std::uint64_t hot = session.synthetic_addr("bench_record_accepted");
  const std::uint64_t cold = session.synthetic_addr("bench_record_rejected");
  const double accepted_ns = pair_ns_per_call(session, hot, calls, reps);
  const double rejected_ns = pair_ns_per_call(session, cold, calls, reps);
  (void)session.stop();
  session.clear_nodes();
  std::remove(filter_path.c_str());

  const double ratio = accepted_ns > 0.0 ? rejected_ns / accepted_ns : 1e300;
  const double probe_tax_ns = accepted_ns - baseline_ns;

  std::printf("hook pair, inactive   %8.2f ns/call\n", inactive_ns);
  std::printf("hook pair, no plan    %8.2f ns/call\n", baseline_ns);
  std::printf("hook pair, accepted   %8.2f ns/call  (filter probe tax %+.2f ns)\n",
              accepted_ns, probe_tax_ns);
  std::printf("hook pair, rejected   %8.2f ns/call  (%.1f%% of accepted)\n",
              rejected_ns, 100.0 * ratio);

  const bool gate = ratio <= 0.25;
  shape_check("rejected call costs <= 25% of an accepted call", gate);

  const double peak_ratio =
      stop_peak.drained_mib > 0.0 ? stop_peak.rise_mib / stop_peak.drained_mib : 1e300;
  bool peak_gate = true;
  if (stop_peak.measured) {
    std::printf("stop peak            %8.1f MiB over %.1f MiB drained "
                "(%zu events, %.2fx)\n",
                stop_peak.rise_mib, stop_peak.drained_mib, stop_peak.events,
                peak_ratio);
    peak_gate = peak_ratio <= 1.25;
    shape_check("peak RSS rise through stop() <= 1.25x the drained events", peak_gate);
  } else {
    std::cout << "SHAPE CHECK [SKIP] stop peak: no VmRSS/VmHWM in /proc/self/status "
                 "on this host, or the session failed\n";
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"build_type\": \"" << bench_prov::kBuildType << "\",\n"
      << "  \"calls\": " << calls << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"inactive_ns_per_call\": " << inactive_ns << ",\n"
      << "  \"baseline_ns_per_call\": " << baseline_ns << ",\n"
      << "  \"accepted_ns_per_call\": " << accepted_ns << ",\n"
      << "  \"rejected_ns_per_call\": " << rejected_ns << ",\n"
      << "  \"rejected_over_accepted\": " << ratio << ",\n"
      << "  \"stop_peak_events\": " << stop_peak.events << ",\n"
      << "  \"stop_peak_drained_mib\": " << stop_peak.drained_mib << ",\n"
      << "  \"stop_peak_rise_mib\": " << stop_peak.rise_mib << ",\n"
      << "  \"stop_peak_over_drained\": " << peak_ratio << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return gate && peak_gate ? 0 : 1;
}
