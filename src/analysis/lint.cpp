#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "audit/audit.hpp"
#include "common/json.hpp"
#include "trace/reader.hpp"

namespace tempest::analysis {
namespace {

std::string fmt_thread(std::uint32_t tid) { return "thread " + std::to_string(tid); }

/// Findings under the per-check cap: each check keeps its first `cap`
/// findings, its next one becomes the suppression line, and the rest
/// drop. The report is one of these, filled in report order; a held
/// list is another, keeping what the report can still need of findings
/// that arrive before their turn (at most cap + 1 per check).
struct CappedFindings {
  std::vector<Finding> findings;
  std::map<std::string, std::size_t> per_check;

  void add(Finding f, std::size_t cap) {
    const std::size_t n = ++per_check[f.check];
    if (n <= cap) {
      findings.push_back(std::move(f));
    } else if (n == cap + 1) {
      findings.push_back(
          {f.check, f.severity, "(further " + f.check + " findings suppressed)"});
    }
  }
};

/// One lint pass, fed in the order every trace input has: the complete
/// header (trailers included) at construction, the events in file order
/// through add_events(), in as many batches as the input likes, then
/// finish() with the samples, the clock syncs and the count of trailing
/// bytes. Findings go into the report in report order as they are
/// found, except two kinds: the events' monotonic-timestamp findings
/// wait in a held list for the sample and sync references that come
/// before them, and tsc-rate / empty-trace lead the report but need the
/// record counts.
class LintPass {
 public:
  LintPass(const trace::TraceHeader& header, const LintOptions& options,
           const audit::Inventory* coverage);

  void add_events(const trace::FnEvent* events, std::size_t n);

  LintReport finish(const std::vector<trace::TempSample>& samples,
                    const std::vector<trace::ClockSync>& syncs,
                    std::uint64_t trailing_bytes);

 private:
  /// Count a finding toward the exact totals and file it in `to`.
  void add(CappedFindings* to, const std::string& check, Severity severity,
           std::string message);

  const trace::TraceHeader& header_;
  const LintOptions options_;
  const audit::Inventory* coverage_;

  std::size_t error_count_ = 0;
  std::size_t warning_count_ = 0;
  CappedFindings report_;
  CappedFindings held_monotonic_;  ///< the events', until finish()

  std::set<std::uint16_t> node_ids_;
  std::set<std::uint32_t> thread_ids_;
  std::set<std::pair<std::uint16_t, std::uint16_t>> sensor_ids_;
  std::set<std::uint64_t> synthetic_;

  std::size_t n_events_ = 0;

  // Monotonicity state.
  std::map<std::uint32_t, std::uint64_t> last_event_;
  std::uint64_t last_global_ = 0;
  bool globally_sorted_ = true;

  // Nesting / conservation state (mirror of the parser's Table 1
  // semantics: per (thread, addr) open depth with outermost-activation
  // intervals).
  struct OpenState {
    std::uint64_t depth = 0;
    std::uint64_t first_enter = 0;
  };
  struct ThreadAgg {
    std::uint64_t first_tsc = 0;
    std::uint64_t last_tsc = 0;
    bool seen = false;
    std::uint64_t unmatched_exits = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, OpenState> open_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> inclusive_;
  std::map<std::uint32_t, ThreadAgg> per_thread_;

  /// Events per unique runtime address for the coverage cross-check, so
  /// memory stays O(functions), not O(events).
  std::map<std::uint64_t, std::uint64_t> addr_events_;
};

LintPass::LintPass(const trace::TraceHeader& header, const LintOptions& options,
                   const audit::Inventory* coverage)
    : header_(header), options_(options), coverage_(coverage) {
  for (const auto& n : header.nodes) {
    if (!node_ids_.insert(n.node_id).second) {
      add(&report_, "duplicate-node", Severity::kError,
          "node id " + std::to_string(n.node_id) + " declared twice");
    }
  }
  for (const auto& t : header.threads) {
    if (!thread_ids_.insert(t.thread_id).second) {
      add(&report_, "duplicate-thread", Severity::kError,
          "thread id " + std::to_string(t.thread_id) + " declared twice");
    }
    if (node_ids_.count(t.node_id) == 0) {
      add(&report_, "node-unresolved", Severity::kError,
          fmt_thread(t.thread_id) + " bound to unknown node " +
              std::to_string(t.node_id));
    }
  }
  for (const auto& s : header.sensors) {
    if (!sensor_ids_.insert({s.node_id, s.sensor_id}).second) {
      add(&report_, "duplicate-sensor", Severity::kError,
          "sensor " + std::to_string(s.sensor_id) + " on node " +
              std::to_string(s.node_id) + " declared twice");
    }
    if (node_ids_.count(s.node_id) == 0) {
      add(&report_, "node-unresolved", Severity::kError,
          "sensor '" + s.name + "' attached to unknown node " +
              std::to_string(s.node_id));
    }
  }
  for (const auto& s : header.synthetic_symbols) synthetic_.insert(s.addr);
}

void LintPass::add(CappedFindings* to, const std::string& check, Severity severity,
                   std::string message) {
  ++(severity == Severity::kError ? error_count_ : warning_count_);
  to->add({check, severity, std::move(message)}, options_.max_findings_per_check);
}

void LintPass::add_events(const trace::FnEvent* events, std::size_t n) {
  n_events_ += n;
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FnEvent& e = events[i];

    // References.
    if (node_ids_.count(e.node_id) == 0) {
      add(&report_, "node-unresolved", Severity::kError,
          "fn event references unknown node " + std::to_string(e.node_id));
    }
    if (thread_ids_.count(e.thread_id) == 0) {
      add(&report_, "thread-unresolved", Severity::kError,
          "fn event references undeclared " + fmt_thread(e.thread_id));
    }
    if (e.addr >= trace::kSyntheticAddrBase && synthetic_.count(e.addr) == 0) {
      std::ostringstream os;
      os << "synthetic address 0x" << std::hex << e.addr
         << " has no name in the synthetic symbol table";
      add(&report_, "synthetic-unresolved", Severity::kError, os.str());
    }
    if (coverage_ != nullptr && e.addr < trace::kSyntheticAddrBase) {
      ++addr_events_[e.addr];
    }

    // Per-thread monotonicity; each thread stamps from one clock
    // domain, so its stream must be non-decreasing.
    auto [it, inserted] = last_event_.try_emplace(e.thread_id, e.tsc);
    if (!inserted) {
      if (e.tsc < it->second) {
        add(&held_monotonic_, "monotonic-timestamps", Severity::kError,
            fmt_thread(e.thread_id) + " timestamp goes backwards (" +
                std::to_string(e.tsc) + " after " + std::to_string(it->second) +
                ")");
      }
      it->second = std::max(it->second, e.tsc);
    }
    if (e.tsc < last_global_) globally_sorted_ = false;
    last_global_ = std::max(last_global_, e.tsc);

    // Nesting / conservation.
    ThreadAgg& agg = per_thread_[e.thread_id];
    if (!agg.seen) {
      agg.first_tsc = e.tsc;
      agg.seen = true;
    }
    agg.last_tsc = std::max(agg.last_tsc, e.tsc);

    const auto key = std::make_pair(e.thread_id, e.addr);
    if (e.kind == trace::FnEventKind::kEnter) {
      OpenState& st = open_[key];
      if (st.depth == 0) st.first_enter = e.tsc;
      ++st.depth;
    } else {
      auto oit = open_.find(key);
      if (oit == open_.end() || oit->second.depth == 0) {
        ++agg.unmatched_exits;  // frame already open when profiling began
        continue;
      }
      if (--oit->second.depth == 0 && e.tsc > oit->second.first_enter) {
        inclusive_[key] += e.tsc - oit->second.first_enter;
      }
    }
  }
}

LintReport LintPass::finish(const std::vector<trace::TempSample>& samples,
                            const std::vector<trace::ClockSync>& syncs,
                            std::uint64_t trailing_bytes) {
  // tsc-rate and empty-trace lead the report, but only now is it known
  // whether any record arrived. No other group uses their check ids, so
  // filing them apart and putting them first moves no cap.
  CappedFindings lead;
  const bool has_data = n_events_ > 0 || !samples.empty();
  if (has_data && !(header_.tsc_ticks_per_second > 0.0)) {
    add(&lead, "tsc-rate", Severity::kError,
        "trace carries events/samples but no positive tsc_ticks_per_second");
  }
  if (!has_data) {
    add(&lead, "empty-trace", Severity::kWarning,
        "trace contains no function events and no temperature samples");
  }

  // References: the samples', then the syncs' (the events' are filed).
  for (const trace::TempSample& s : samples) {
    if (node_ids_.count(s.node_id) == 0) {
      add(&report_, "node-unresolved", Severity::kError,
          "temp sample references unknown node " + std::to_string(s.node_id));
    } else if (sensor_ids_.count({s.node_id, s.sensor_id}) == 0) {
      add(&report_, "sensor-unresolved", Severity::kError,
          "temp sample references unknown sensor " + std::to_string(s.sensor_id) +
              " on node " + std::to_string(s.node_id));
    }
  }
  for (const trace::ClockSync& c : syncs) {
    if (node_ids_.count(c.node_id) == 0) {
      add(&report_, "node-unresolved", Severity::kError,
          "clock sync references unknown node " + std::to_string(c.node_id));
    }
  }

  // Monotonic timestamps: the events', the global sort, the samples',
  // then the syncs'.
  for (Finding& f : held_monotonic_.findings) {
    report_.add(std::move(f), options_.max_findings_per_check);
  }
  if (!globally_sorted_) {
    add(&report_, "global-sort", Severity::kWarning,
        "fn events are not globally time-sorted (the parser expects "
        "Trace::sort_by_time order)");
  }
  // The samples' walk also collects the cadence gaps: tempd reads every
  // sensor once per tick, so per-(node,sensor) gaps measure the tick
  // period directly.
  struct SensorStream {
    std::uint64_t max_tsc = 0;
    std::uint64_t last_tsc = 0;
    std::vector<std::uint64_t> gaps;
  };
  std::map<std::pair<std::uint16_t, std::uint16_t>, SensorStream> streams;
  for (const trace::TempSample& s : samples) {
    auto [it, inserted] =
        streams.try_emplace({s.node_id, s.sensor_id}, SensorStream{s.tsc, s.tsc, {}});
    if (inserted) continue;
    SensorStream& st = it->second;
    if (s.tsc < st.max_tsc) {
      add(&report_, "monotonic-timestamps", Severity::kError,
          "sensor " + std::to_string(s.sensor_id) + " on node " +
              std::to_string(s.node_id) + " sample timestamp goes backwards");
    }
    st.max_tsc = std::max(st.max_tsc, s.tsc);
    if (s.tsc >= st.last_tsc) st.gaps.push_back(s.tsc - st.last_tsc);
    st.last_tsc = s.tsc;
  }
  std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> last_sync;
  for (const trace::ClockSync& c : syncs) {
    // Both domains must advance together.
    auto [it, inserted] =
        last_sync.try_emplace(c.node_id, std::make_pair(c.node_tsc, c.global_tsc));
    if (inserted) continue;
    if (c.node_tsc < it->second.first || c.global_tsc < it->second.second) {
      add(&report_, "monotonic-timestamps", Severity::kError,
          "clock sync for node " + std::to_string(c.node_id) +
              " goes backwards in node or global domain");
    }
    it->second = {std::max(it->second.first, c.node_tsc),
                  std::max(it->second.second, c.global_tsc)};
  }

  // Nesting: activations still open force-close at their thread's own
  // end for the conservation check.
  std::map<std::uint32_t, std::uint64_t> unclosed;
  for (const auto& [key, st] : open_) {
    if (st.depth == 0) continue;
    unclosed[key.first] += st.depth;
    const auto tit = per_thread_.find(key.first);
    if (tit != per_thread_.end() && tit->second.last_tsc > st.first_enter) {
      inclusive_[key] += tit->second.last_tsc - st.first_enter;
    }
  }
  for (const auto& [tid, agg] : per_thread_) {
    if (agg.unmatched_exits > 0) {
      add(&report_, "balanced-nesting", Severity::kWarning,
          fmt_thread(tid) + " has " + std::to_string(agg.unmatched_exits) +
              " exit(s) without a recorded entry (frames open at session start)");
    }
  }
  for (const auto& [tid, count] : unclosed) {
    add(&report_, "balanced-nesting", Severity::kWarning,
        fmt_thread(tid) + " ends with " + std::to_string(count) +
            " activation(s) still open (frames open at session stop)");
  }
  for (const auto& [key, ticks] : inclusive_) {
    const ThreadAgg& agg = per_thread_[key.first];
    const std::uint64_t span = agg.last_tsc - agg.first_tsc;
    if (ticks > span) {
      std::ostringstream os;
      os << fmt_thread(key.first) << " spends " << ticks << " inclusive ticks in addr 0x"
         << std::hex << key.second << std::dec << " but only spans " << span
         << " ticks";
      add(&report_, "time-conservation", Severity::kError, os.str());
    }
  }

  // Cadence.
  const double tsc_hz = header_.tsc_ticks_per_second;
  for (auto& [key, stream] : streams) {
    std::vector<std::uint64_t>& g = stream.gaps;
    if (!(tsc_hz > 0.0) || g.empty() || g.size() < options_.min_cadence_gaps) continue;
    std::sort(g.begin(), g.end());
    const std::uint64_t median = g[g.size() / 2];
    if (median == 0) continue;
    const double median_s = static_cast<double>(median) / tsc_hz;
    if (options_.expected_hz > 0.0) {
      const double expected_s = 1.0 / options_.expected_hz;
      if (median_s > expected_s * options_.cadence_tolerance ||
          median_s < expected_s / options_.cadence_tolerance) {
        std::ostringstream os;
        os << "sensor " << key.second << " on node " << key.first << " samples every "
           << median_s << " s (expected ~" << expected_s << " s at "
           << options_.expected_hz << " Hz)";
        add(&report_, "sample-cadence", Severity::kWarning, os.str());
      }
    }
    // Regularity regardless of the configured rate: a healthy tempd tick
    // loop produces gaps clustered around the median.
    std::size_t outliers = 0;
    for (const std::uint64_t gap : g) {
      if (gap > median * 4 || gap * 4 < median) ++outliers;
    }
    if (outliers * 10 > g.size() * 3) {  // > 30 %
      std::ostringstream os;
      os << "sensor " << key.second << " on node " << key.first << ": " << outliers
         << "/" << g.size() << " inter-sample gaps deviate >4x from the median "
         << "(irregular tempd cadence)";
      add(&report_, "sample-cadence", Severity::kWarning, os.str());
    }
  }

  // Trace<->binary cross-check: every probe-generated event must land
  // inside a function the static audit classified as instrumented
  // (errors — the trace claims probes the binary cannot have fired),
  // and every instrumented function should have fired at least once
  // (warnings — never called, or its events were dropped).
  if (coverage_ != nullptr) {
    std::set<int> fns_seen;
    for (const auto& [runtime_addr, count] : addr_events_) {
      const int fn = runtime_addr >= header_.load_bias
                         ? coverage_->find_index(runtime_addr - header_.load_bias)
                         : -1;
      if (fn < 0) {
        std::ostringstream os;
        os << "trace holds " << count << " event(s) at 0x" << std::hex << runtime_addr
           << std::dec
           << " but the binary has no function there (stale binary, wrong "
              "--symtab executable, or stripped symbol)";
        add(&report_, "instrumentation-coverage", Severity::kError, os.str());
        continue;
      }
      fns_seen.insert(fn);
      const audit::FunctionRecord& f = coverage_->functions[static_cast<std::size_t>(fn)];
      if (!f.instrumented) {
        add(&report_, "instrumentation-coverage", Severity::kError,
            "function '" + f.name + "' emits " + std::to_string(count) +
                " trace event(s) but carries no instrumentation hooks in the binary");
      }
    }
    // Functions the trace's declared filter suppresses are exempt: their
    // silence is the admission pipeline working as configured.
    std::set<std::string> filtered;
    if (header_.filter.present) {
      filtered.insert(header_.filter.suppressed.begin(), header_.filter.suppressed.end());
    }
    for (std::size_t i = 0; i < coverage_->functions.size(); ++i) {
      const audit::FunctionRecord& f = coverage_->functions[i];
      if (f.instrumented && fns_seen.count(static_cast<int>(i)) == 0 &&
          filtered.count(f.name) == 0) {
        add(&report_, "instrumentation-unused", Severity::kWarning,
            "function '" + f.name +
                "' is instrumented but recorded zero events (never called, or "
                "its events were dropped)");
      }
    }
  }

  // RUNSTATS cross-checks: the recorder's own accounting vs what the
  // trace holds. These are the "overhead of the overhead" trust anchors
  // — if the runtime says it recorded N events and the trace has M != N,
  // either the buffers lost data silently (beyond the declared drops) or
  // the trailer is stale/corrupt.
  if (header_.run_stats.present) {
    const trace::RunStats& rs = header_.run_stats;
    const std::size_t n_sensors = header_.sensors.size();
    if (rs.events_recorded != n_events_) {
      add(&report_, "runstats-consistency", Severity::kError,
          "runstats claim " + std::to_string(rs.events_recorded) +
              " recorded fn events but the trace holds " + std::to_string(n_events_));
    }
    if (rs.tempd_samples != samples.size()) {
      add(&report_, "runstats-consistency", Severity::kError,
          "runstats claim " + std::to_string(rs.tempd_samples) +
              " tempd samples but the trace holds " + std::to_string(samples.size()));
    }
    if (n_sensors > 0 && rs.tempd_samples > rs.tempd_ticks * n_sensors) {
      add(&report_, "runstats-consistency", Severity::kError,
          "runstats claim " + std::to_string(rs.tempd_samples) + " samples from only " +
              std::to_string(rs.tempd_ticks) + " ticks over " +
              std::to_string(n_sensors) + " sensor(s) (more samples than reads)");
    }
    if (rs.events_dropped > 0) {
      add(&report_, "events-dropped", Severity::kWarning,
          "recorder dropped " + std::to_string(rs.events_dropped) +
              " fn event(s) at the thread-buffer cap; hot spots may be "
              "under-counted (raise TEMPEST_MAX_EVENTS)");
    }
    // Admission conservation: every hook call must be accounted for
    // exactly once. calls_observed == 0 means a pre-admission recorder
    // (or an empty run) — nothing to check.
    if (rs.calls_observed > 0 && rs.calls_observed != rs.accounted()) {
      add(&report_, "admission-conservation", Severity::kError,
          "runstats observe " + std::to_string(rs.calls_observed) +
              " hook calls but account for " + std::to_string(rs.accounted()) +
              " (recorded + suppressed + throttled + dropped + overwritten) — the "
              "admission pipeline lost or invented events");
    }
    if (rs.events_suppressed > 0 && !header_.filter.present) {
      add(&report_, "filter-undeclared", Severity::kWarning,
          "recorder suppressed " + std::to_string(rs.events_suppressed) +
              " event(s) but the trace declares no filter (FLTR trailer missing) — "
              "downstream tools cannot tell suppression from loss");
    }
    if (rs.events_overwritten > 0) {
      add(&report_, "events-overwritten", Severity::kWarning,
          "flight-recorder ring recycled " + std::to_string(rs.events_overwritten) +
              " event(s); the trace holds only the newest window (expected in "
              "TEMPEST_RING_* mode)");
    }
  }

  // Trailing bytes mean concatenation or partial overwrite — something
  // no healthy pipeline writes, so the file fails the lint even though
  // the leading trace parsed.
  if (trailing_bytes > 0) {
    add(&report_, "file-trailing-bytes", Severity::kError,
        std::to_string(trailing_bytes) + " trailing byte(s) after the trace");
  }

  LintReport report;
  report.findings = std::move(lead.findings);
  report.findings.insert(report.findings.end(),
                         std::make_move_iterator(report_.findings.begin()),
                         std::make_move_iterator(report_.findings.end()));
  report.error_count = error_count_;
  report.warning_count = warning_count_;
  report.fn_events = n_events_;
  report.temp_samples = samples.size();
  report.threads = header_.threads.size();
  report.nodes = header_.nodes.size();
  report.sensors = header_.sensors.size();
  return report;
}

}  // namespace

LintReport lint_trace(const trace::Trace& trace, const LintOptions& options,
                      const audit::Inventory* coverage) {
  LintPass pass(trace, options, coverage);
  pass.add_events(trace.fn_events.data(), trace.fn_events.size());
  return pass.finish(trace.temp_samples, trace.clock_syncs, 0);
}

Result<LintReport> lint_trace_file(const std::string& path,
                                   const LintOptions& options,
                                   const audit::Inventory* coverage) {
  auto opened = trace::TraceStreamReader::open_file(path);
  if (!opened.is_ok()) return Result<LintReport>::error(opened.message());
  trace::TraceStreamReader reader = std::move(opened).value();
  // Lint wants the raw file order (no alignment, no sorting —
  // sortedness is itself one of the checks).
  LintPass pass(reader.header(), options, coverage);
  constexpr std::size_t kBatch = std::size_t{1} << 16;
  std::vector<trace::FnEvent> events;
  for (std::size_t appended = 1; appended > 0;) {
    events.clear();
    const Status read = reader.next_fn_events(&events, kBatch, &appended);
    if (!read) return Result<LintReport>::error(read.message());
    pass.add_events(events.data(), events.size());
  }
  return pass.finish(reader.temp_samples(), reader.clock_syncs(), reader.trailing_bytes());
}

std::string to_json(const LintReport& report) {
  std::ostringstream os;
  os << "{\"clean\":" << (report.clean() ? "true" : "false")
     << ",\"errors\":" << report.error_count
     << ",\"warnings\":" << report.warning_count << ",\"inventory\":{"
     << "\"fn_events\":" << report.fn_events
     << ",\"temp_samples\":" << report.temp_samples
     << ",\"threads\":" << report.threads << ",\"nodes\":" << report.nodes
     << ",\"sensors\":" << report.sensors << "},\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) os << ",";
    os << "{\"check\":" << json::quote(f.check) << ",\"severity\":\""
       << (f.severity == Severity::kError ? "error" : "warning")
       << "\",\"message\":" << json::quote(f.message) << "}";
  }
  os << "]}";
  return os.str();
}

void write_human(std::ostream& out, const LintReport& report) {
  for (const Finding& f : report.findings) {
    out << (f.severity == Severity::kError ? "error" : "warning") << " ["
        << f.check << "] " << f.message << "\n";
  }
  out << (report.clean() ? "clean" : "NOT clean") << ": " << report.error_count
      << " error(s), " << report.warning_count << " warning(s) over "
      << report.fn_events << " events, " << report.temp_samples << " samples, "
      << report.threads << " threads, " << report.nodes << " node(s), "
      << report.sensors << " sensor(s)\n";
}

}  // namespace tempest::analysis
