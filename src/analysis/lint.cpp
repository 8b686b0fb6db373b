#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "trace/reader.hpp"

namespace tempest::analysis {
namespace {

std::string fmt_thread(std::uint32_t tid) { return "thread " + std::to_string(tid); }

}  // namespace

/// Streaming lint state. Findings are gathered into one bucket per
/// check family and record kind, and concatenated in the canonical
/// order (metadata, references, monotonic, nesting, cadence, trailing
/// bytes) at finish(). Each bucket is fed by one record kind alone (or
/// by the constructor or finish()), and the per-check message cap is
/// applied across buckets in that same order at finish(), so the report
/// is the same whichever way the record kinds interleave: the streamed
/// report is indistinguishable from the batch one.
struct LintEngine::Impl {
  /// One bucket's findings: at most max_findings_per_check + 1 per
  /// check, all that finish() can need to keep the cap's worth across
  /// buckets and turn the next one into the suppression line.
  struct Bucket {
    std::vector<Finding> findings;
    std::map<std::string, std::size_t> per_check;
  };

  /// Appends findings to one bucket while counting the engine-wide
  /// error/warning totals (they stay exact past the message cap).
  class Collector {
   public:
    Collector(Impl* impl, Bucket* bucket) : impl_(impl), bucket_(bucket) {}

    void add(const std::string& check, Severity severity, std::string message) {
      if (severity == Severity::kError) {
        ++impl_->error_count;
      } else {
        ++impl_->warning_count;
      }
      const std::size_t cap = impl_->options.max_findings_per_check;
      const std::size_t n = ++bucket_->per_check[check];
      if (n <= cap || n == cap + 1) {
        bucket_->findings.push_back({check, severity, std::move(message)});
      }
    }

   private:
    Impl* impl_;
    Bucket* bucket_;
  };

  LintOptions options;

  std::size_t error_count = 0;
  std::size_t warning_count = 0;

  // Buckets in canonical emission order. `metadata_deferred` holds the
  // has-data-dependent findings (tsc-rate, empty-trace) that the batch
  // path emits first but streaming can only decide at finish().
  // The reference and monotonic families keep one sub-bucket per record
  // kind, in the batch path's kind order (events, samples, syncs), with
  // the global-sort warning wedged between monotonic events and samples.
  Bucket metadata_deferred;
  Bucket metadata;
  Bucket ref_events;
  Bucket ref_samples;
  Bucket ref_syncs;
  Bucket mono_events;
  Bucket mono_global;
  Bucket mono_samples;
  Bucket mono_syncs;
  Bucket nesting;
  Bucket cadence;
  Bucket coverage;
  Bucket runstats;
  Bucket trailing;

  // RUNSTATS trailer (absent in pre-RUNSTATS traces).
  trace::RunStats run_stats;

  // FLTR trailer (absent when no filter was active). filtered_names
  // indexes the suppressed list for the instrumentation-unused
  // exemption.
  trace::FilterDecl filter;
  std::set<std::string> filtered_names;

  // Header-derived context.
  double tsc_ticks_per_second = 0.0;
  std::set<std::uint16_t> node_ids;
  std::set<std::uint32_t> thread_ids;
  std::set<std::pair<std::uint16_t, std::uint16_t>> sensor_ids;
  std::set<std::uint64_t> synthetic;
  std::size_t n_threads = 0;
  std::size_t n_nodes = 0;
  std::size_t n_sensors = 0;

  // Inventory.
  std::size_t n_events = 0;
  std::size_t n_samples = 0;

  // Monotonicity state.
  std::map<std::uint32_t, std::uint64_t> last_event;
  std::uint64_t last_global = 0;
  bool globally_sorted = true;
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t> last_sample;
  std::map<std::uint16_t, std::pair<std::uint64_t, std::uint64_t>> last_sync;

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
  std::map<std::pair<std::uint32_t, std::uint64_t>, OpenState> open;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> inclusive;
  std::map<std::uint32_t, ThreadAgg> per_thread;

  // Cadence state: per-(node, sensor) inter-sample gaps. O(samples)
  // u64s — the one per-record cost the streamed lint keeps, and samples
  // are ~1% of events in practice.
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::vector<std::uint64_t>> gaps;
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t> last_gap_tsc;

  // Trace<->binary cross-check state (set_coverage_inventory). Sorted
  // by addr for binary search; event counts are per unique runtime
  // address, so memory stays O(functions), not O(events).
  bool coverage_enabled = false;
  std::uint64_t load_bias = 0;
  std::vector<CoverageFunction> coverage_fns;  ///< sorted by addr
  std::map<std::uint64_t, std::uint64_t> addr_events;  ///< runtime addr -> count

  /// Index of the coverage function covering a link-time address; -1
  /// when none.
  int find_coverage_fn(std::uint64_t link_addr) const {
    const auto it = std::upper_bound(
        coverage_fns.begin(), coverage_fns.end(), link_addr,
        [](std::uint64_t a, const CoverageFunction& f) { return a < f.addr; });
    if (it == coverage_fns.begin()) return -1;
    const auto prev = std::prev(it);
    if (link_addr >= prev->addr && link_addr < prev->addr + prev->size) {
      return static_cast<int>(prev - coverage_fns.begin());
    }
    return -1;
  }
};

LintEngine::LintEngine(const trace::TraceHeader& header, const LintOptions& options)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.options = options;
  im.tsc_ticks_per_second = header.tsc_ticks_per_second;
  im.load_bias = header.load_bias;
  im.n_threads = header.threads.size();
  im.n_nodes = header.nodes.size();
  im.n_sensors = header.sensors.size();
  im.run_stats = header.run_stats;
  im.filter = header.filter;
  if (im.filter.present) {
    im.filtered_names.insert(im.filter.suppressed.begin(), im.filter.suppressed.end());
  }

  // Metadata checks that need no record data run up front; the
  // has-data-dependent pair (tsc-rate, empty-trace) waits for finish().
  Impl::Collector out(&im, &im.metadata);
  for (const auto& n : header.nodes) {
    if (!im.node_ids.insert(n.node_id).second) {
      out.add("duplicate-node", Severity::kError,
              "node id " + std::to_string(n.node_id) + " declared twice");
    }
  }
  for (const auto& t : header.threads) {
    if (!im.thread_ids.insert(t.thread_id).second) {
      out.add("duplicate-thread", Severity::kError,
              "thread id " + std::to_string(t.thread_id) + " declared twice");
    }
    if (im.node_ids.count(t.node_id) == 0) {
      out.add("node-unresolved", Severity::kError,
              fmt_thread(t.thread_id) + " bound to unknown node " +
                  std::to_string(t.node_id));
    }
  }
  for (const auto& s : header.sensors) {
    if (!im.sensor_ids.insert({s.node_id, s.sensor_id}).second) {
      out.add("duplicate-sensor", Severity::kError,
              "sensor " + std::to_string(s.sensor_id) + " on node " +
                  std::to_string(s.node_id) + " declared twice");
    }
    if (im.node_ids.count(s.node_id) == 0) {
      out.add("node-unresolved", Severity::kError,
              "sensor '" + s.name + "' attached to unknown node " +
                  std::to_string(s.node_id));
    }
  }
  for (const auto& s : header.synthetic_symbols) im.synthetic.insert(s.addr);
}

LintEngine::~LintEngine() = default;
LintEngine::LintEngine(LintEngine&&) noexcept = default;
LintEngine& LintEngine::operator=(LintEngine&&) noexcept = default;

void LintEngine::add_fn_events(const trace::FnEvent* events, std::size_t n) {
  Impl& im = *impl_;
  im.n_events += n;
  Impl::Collector refs(&im, &im.ref_events);
  Impl::Collector mono(&im, &im.mono_events);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FnEvent& e = events[i];

    // References.
    if (im.node_ids.count(e.node_id) == 0) {
      refs.add("node-unresolved", Severity::kError,
               "fn event references unknown node " + std::to_string(e.node_id));
    }
    if (im.thread_ids.count(e.thread_id) == 0) {
      refs.add("thread-unresolved", Severity::kError,
               "fn event references undeclared " + fmt_thread(e.thread_id));
    }
    if (e.addr >= trace::kSyntheticAddrBase && im.synthetic.count(e.addr) == 0) {
      std::ostringstream os;
      os << "synthetic address 0x" << std::hex << e.addr
         << " has no name in the synthetic symbol table";
      refs.add("synthetic-unresolved", Severity::kError, os.str());
    }
    if (im.coverage_enabled && e.addr < trace::kSyntheticAddrBase) {
      ++im.addr_events[e.addr];
    }

    // Per-thread monotonicity; each thread stamps from one clock
    // domain, so its stream must be non-decreasing.
    auto [it, inserted] = im.last_event.try_emplace(e.thread_id, e.tsc);
    if (!inserted) {
      if (e.tsc < it->second) {
        mono.add("monotonic-timestamps", Severity::kError,
                 fmt_thread(e.thread_id) + " timestamp goes backwards (" +
                     std::to_string(e.tsc) + " after " + std::to_string(it->second) +
                     ")");
      }
      it->second = std::max(it->second, e.tsc);
    }
    if (e.tsc < im.last_global) im.globally_sorted = false;
    im.last_global = std::max(im.last_global, e.tsc);

    // Nesting / conservation.
    Impl::ThreadAgg& agg = im.per_thread[e.thread_id];
    if (!agg.seen) {
      agg.first_tsc = e.tsc;
      agg.seen = true;
    }
    agg.last_tsc = std::max(agg.last_tsc, e.tsc);

    const auto key = std::make_pair(e.thread_id, e.addr);
    if (e.kind == trace::FnEventKind::kEnter) {
      Impl::OpenState& st = im.open[key];
      if (st.depth == 0) st.first_enter = e.tsc;
      ++st.depth;
    } else {
      auto oit = im.open.find(key);
      if (oit == im.open.end() || oit->second.depth == 0) {
        ++agg.unmatched_exits;  // frame already open when profiling began
        continue;
      }
      if (--oit->second.depth == 0 && e.tsc > oit->second.first_enter) {
        im.inclusive[key] += e.tsc - oit->second.first_enter;
      }
    }
  }
}

void LintEngine::add_temp_samples(const trace::TempSample* samples, std::size_t n) {
  Impl& im = *impl_;
  im.n_samples += n;
  Impl::Collector refs(&im, &im.ref_samples);
  Impl::Collector mono(&im, &im.mono_samples);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::TempSample& s = samples[i];
    if (im.node_ids.count(s.node_id) == 0) {
      refs.add("node-unresolved", Severity::kError,
               "temp sample references unknown node " + std::to_string(s.node_id));
    } else if (im.sensor_ids.count({s.node_id, s.sensor_id}) == 0) {
      refs.add("sensor-unresolved", Severity::kError,
               "temp sample references unknown sensor " +
                   std::to_string(s.sensor_id) + " on node " +
                   std::to_string(s.node_id));
    }

    const auto key = std::make_pair(s.node_id, s.sensor_id);
    auto [it, inserted] = im.last_sample.try_emplace(key, s.tsc);
    if (!inserted) {
      if (s.tsc < it->second) {
        mono.add("monotonic-timestamps", Severity::kError,
                 "sensor " + std::to_string(s.sensor_id) + " on node " +
                     std::to_string(s.node_id) + " sample timestamp goes backwards");
      }
      it->second = std::max(it->second, s.tsc);
    }

    // Cadence gaps (tempd reads every sensor once per tick, so
    // per-(node,sensor) gaps measure the tick period directly).
    const auto lit = im.last_gap_tsc.find(key);
    if (lit != im.last_gap_tsc.end() && s.tsc >= lit->second) {
      im.gaps[key].push_back(s.tsc - lit->second);
    }
    im.last_gap_tsc[key] = s.tsc;
  }
}

void LintEngine::add_clock_syncs(const trace::ClockSync* syncs, std::size_t n) {
  Impl& im = *impl_;
  Impl::Collector refs(&im, &im.ref_syncs);
  Impl::Collector mono(&im, &im.mono_syncs);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::ClockSync& c = syncs[i];
    if (im.node_ids.count(c.node_id) == 0) {
      refs.add("node-unresolved", Severity::kError,
               "clock sync references unknown node " + std::to_string(c.node_id));
    }

    // Both domains must advance together.
    auto [it, inserted] =
        im.last_sync.try_emplace(c.node_id, std::make_pair(c.node_tsc, c.global_tsc));
    if (!inserted) {
      if (c.node_tsc < it->second.first || c.global_tsc < it->second.second) {
        mono.add("monotonic-timestamps", Severity::kError,
                 "clock sync for node " + std::to_string(c.node_id) +
                     " goes backwards in node or global domain");
      }
      it->second = {std::max(it->second.first, c.node_tsc),
                    std::max(it->second.second, c.global_tsc)};
    }
  }
}

void LintEngine::set_coverage_inventory(CoverageInventory inventory) {
  Impl& im = *impl_;
  im.coverage_enabled = true;
  im.coverage_fns = std::move(inventory.functions);
  std::sort(im.coverage_fns.begin(), im.coverage_fns.end(),
            [](const CoverageFunction& a, const CoverageFunction& b) {
              return a.addr < b.addr;
            });
}

void LintEngine::note_trailing_bytes(std::uint64_t bytes) {
  Impl& im = *impl_;
  std::ostringstream msg;
  msg << bytes << " trailing byte(s) after the trace";
  Impl::Collector(&im, &im.trailing)
      .add("file-trailing-bytes", Severity::kError, msg.str());
}

LintReport LintEngine::finish() {
  Impl& im = *impl_;

  // Deferred metadata checks: only now do we know whether any record
  // arrived at all.
  {
    Impl::Collector out(&im, &im.metadata_deferred);
    const bool has_data = im.n_events > 0 || im.n_samples > 0;
    if (has_data && !(im.tsc_ticks_per_second > 0.0)) {
      out.add("tsc-rate", Severity::kError,
              "trace carries events/samples but no positive tsc_ticks_per_second");
    }
    if (!has_data) {
      out.add("empty-trace", Severity::kWarning,
              "trace contains no function events and no temperature samples");
    }
  }

  if (!im.globally_sorted) {
    Impl::Collector mono(&im, &im.mono_global);
    mono.add("global-sort", Severity::kWarning,
             "fn events are not globally time-sorted (the parser expects "
             "Trace::sort_by_time order)");
  }

  // Nesting epilogue: activations still open force-close at their
  // thread's own end for the conservation check.
  {
    Impl::Collector out(&im, &im.nesting);
    std::map<std::uint32_t, std::uint64_t> unclosed;
    for (const auto& [key, st] : im.open) {
      if (st.depth == 0) continue;
      unclosed[key.first] += st.depth;
      const auto tit = im.per_thread.find(key.first);
      if (tit != im.per_thread.end() && tit->second.last_tsc > st.first_enter) {
        im.inclusive[key] += tit->second.last_tsc - st.first_enter;
      }
    }
    for (const auto& [tid, agg] : im.per_thread) {
      if (agg.unmatched_exits > 0) {
        out.add("balanced-nesting", Severity::kWarning,
                fmt_thread(tid) + " has " + std::to_string(agg.unmatched_exits) +
                    " exit(s) without a recorded entry (frames open at session "
                    "start)");
      }
    }
    for (const auto& [tid, count] : unclosed) {
      out.add("balanced-nesting", Severity::kWarning,
              fmt_thread(tid) + " ends with " + std::to_string(count) +
                  " activation(s) still open (frames open at session stop)");
    }
    for (const auto& [key, ticks] : im.inclusive) {
      const Impl::ThreadAgg& agg = im.per_thread[key.first];
      const std::uint64_t span = agg.last_tsc - agg.first_tsc;
      if (ticks > span) {
        std::ostringstream os;
        os << fmt_thread(key.first) << " spends " << ticks
           << " inclusive ticks in addr 0x" << std::hex << key.second << std::dec
           << " but only spans " << span << " ticks";
        out.add("time-conservation", Severity::kError, os.str());
      }
    }
  }

  // Cadence epilogue.
  if (im.tsc_ticks_per_second > 0.0) {
    Impl::Collector out(&im, &im.cadence);
    for (auto& [key, g] : im.gaps) {
      if (g.size() < im.options.min_cadence_gaps) continue;
      std::sort(g.begin(), g.end());
      const std::uint64_t median = g[g.size() / 2];
      if (median == 0) continue;
      const double median_s = static_cast<double>(median) / im.tsc_ticks_per_second;
      if (im.options.expected_hz > 0.0) {
        const double expected_s = 1.0 / im.options.expected_hz;
        if (median_s > expected_s * im.options.cadence_tolerance ||
            median_s < expected_s / im.options.cadence_tolerance) {
          std::ostringstream os;
          os << "sensor " << key.second << " on node " << key.first
             << " samples every " << median_s << " s (expected ~" << expected_s
             << " s at " << im.options.expected_hz << " Hz)";
          out.add("sample-cadence", Severity::kWarning, os.str());
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
        out.add("sample-cadence", Severity::kWarning, os.str());
      }
    }
  }

  // Trace<->binary cross-check: every probe-generated event must land
  // inside a function the static audit classified as instrumented
  // (errors — the trace claims probes the binary cannot have fired),
  // and every instrumented function should have fired at least once
  // (warnings — never called, or its events were dropped).
  if (im.coverage_enabled) {
    Impl::Collector out(&im, &im.coverage);
    std::set<std::size_t> fns_seen;
    for (const auto& [runtime_addr, count] : im.addr_events) {
      const int fn = runtime_addr >= im.load_bias
                         ? im.find_coverage_fn(runtime_addr - im.load_bias)
                         : -1;
      if (fn < 0) {
        std::ostringstream os;
        os << "trace holds " << count << " event(s) at 0x" << std::hex
           << runtime_addr << std::dec
           << " but the binary has no function there (stale binary, wrong "
              "--symtab executable, or stripped symbol)";
        out.add("instrumentation-coverage", Severity::kError, os.str());
        continue;
      }
      const CoverageFunction& f = im.coverage_fns[static_cast<std::size_t>(fn)];
      fns_seen.insert(static_cast<std::size_t>(fn));
      if (!f.instrumented) {
        out.add("instrumentation-coverage", Severity::kError,
                "function '" + f.name + "' emits " + std::to_string(count) +
                    " trace event(s) but carries no instrumentation hooks in "
                    "the binary");
      }
    }
    for (std::size_t i = 0; i < im.coverage_fns.size(); ++i) {
      const CoverageFunction& f = im.coverage_fns[i];
      if (f.instrumented && fns_seen.count(i) == 0 &&
          im.filtered_names.count(f.name) == 0) {
        // Functions the trace's declared filter suppresses are exempt:
        // their silence is the admission pipeline working as configured.
        out.add("instrumentation-unused", Severity::kWarning,
                "function '" + f.name +
                    "' is instrumented but recorded zero events (never "
                    "called, or its events were dropped)");
      }
    }
  }

  // RUNSTATS cross-checks: the recorder's own accounting vs what the
  // trace holds. These are the "overhead of the overhead" trust anchors
  // — if the runtime says it recorded N events and the trace has M != N,
  // either the buffers lost data silently (beyond the declared drops) or
  // the trailer is stale/corrupt.
  if (im.run_stats.present) {
    Impl::Collector out(&im, &im.runstats);
    const trace::RunStats& rs = im.run_stats;
    if (rs.events_recorded != im.n_events) {
      out.add("runstats-consistency", Severity::kError,
              "runstats claim " + std::to_string(rs.events_recorded) +
                  " recorded fn events but the trace holds " +
                  std::to_string(im.n_events));
    }
    if (rs.tempd_samples != im.n_samples) {
      out.add("runstats-consistency", Severity::kError,
              "runstats claim " + std::to_string(rs.tempd_samples) +
                  " tempd samples but the trace holds " +
                  std::to_string(im.n_samples));
    }
    if (im.n_sensors > 0 &&
        rs.tempd_samples > rs.tempd_ticks * im.n_sensors) {
      out.add("runstats-consistency", Severity::kError,
              "runstats claim " + std::to_string(rs.tempd_samples) +
                  " samples from only " + std::to_string(rs.tempd_ticks) +
                  " ticks over " + std::to_string(im.n_sensors) +
                  " sensor(s) (more samples than reads)");
    }
    if (rs.events_dropped > 0) {
      out.add("events-dropped", Severity::kWarning,
              "recorder dropped " + std::to_string(rs.events_dropped) +
                  " fn event(s) at the thread-buffer cap; hot spots may be "
                  "under-counted (raise TEMPEST_MAX_EVENTS)");
    }
    // Admission conservation: every hook call must be accounted for
    // exactly once. calls_observed == 0 means a pre-admission recorder
    // (or an empty run) — nothing to check.
    if (rs.calls_observed > 0) {
      const std::uint64_t accounted = rs.accounted();
      if (rs.calls_observed != accounted) {
        out.add("admission-conservation", Severity::kError,
                "runstats observe " + std::to_string(rs.calls_observed) +
                    " hook calls but account for " +
                    std::to_string(accounted) +
                    " (recorded + suppressed + throttled + dropped + "
                    "overwritten) — the admission pipeline lost or invented "
                    "events");
      }
    }
    if (rs.events_suppressed > 0 && !im.filter.present) {
      out.add("filter-undeclared", Severity::kWarning,
              "recorder suppressed " + std::to_string(rs.events_suppressed) +
                  " event(s) but the trace declares no filter (FLTR trailer "
                  "missing) — downstream tools cannot tell suppression from "
                  "loss");
    }
    if (rs.events_overwritten > 0) {
      out.add("events-overwritten", Severity::kWarning,
              "flight-recorder ring recycled " +
                  std::to_string(rs.events_overwritten) +
                  " event(s); the trace holds only the newest window "
                  "(expected in TEMPEST_RING_* mode)");
    }
  }

  LintReport report;
  report.fn_events = im.n_events;
  report.temp_samples = im.n_samples;
  report.threads = im.n_threads;
  report.nodes = im.n_nodes;
  report.sensors = im.n_sensors;
  report.error_count = im.error_count;
  report.warning_count = im.warning_count;
  const std::size_t cap = im.options.max_findings_per_check;
  std::map<std::string, std::size_t> per_check;
  for (Impl::Bucket* bucket :
       {&im.metadata_deferred, &im.metadata, &im.ref_events, &im.ref_samples,
        &im.ref_syncs, &im.mono_events, &im.mono_global, &im.mono_samples,
        &im.mono_syncs, &im.nesting, &im.cadence, &im.coverage, &im.runstats,
        &im.trailing}) {
    for (Finding& f : bucket->findings) {
      const std::size_t n = ++per_check[f.check];
      if (n <= cap) {
        report.findings.push_back(std::move(f));
      } else if (n == cap + 1) {
        report.findings.push_back(
            {f.check, f.severity, "(further " + f.check + " findings suppressed)"});
      }
    }
  }
  return report;
}

LintReport lint_trace(const trace::Trace& trace, const LintOptions& options,
                      const CoverageInventory* coverage) {
  LintEngine engine(trace, options);
  if (coverage != nullptr) engine.set_coverage_inventory(*coverage);
  engine.add_fn_events(trace.fn_events.data(), trace.fn_events.size());
  engine.add_temp_samples(trace.temp_samples.data(), trace.temp_samples.size());
  engine.add_clock_syncs(trace.clock_syncs.data(), trace.clock_syncs.size());
  return engine.finish();
}

Result<LintReport> lint_trace_file(const std::string& path,
                                   const LintOptions& options,
                                   const CoverageInventory* coverage) {
  auto opened = trace::TraceStreamReader::open_file(path);
  if (!opened.is_ok()) return Result<LintReport>::error(opened.message());
  trace::TraceStreamReader reader = std::move(opened).value();
  LintEngine engine(reader.header(), options);
  if (coverage != nullptr) engine.set_coverage_inventory(*coverage);

  // Lint wants the raw file order (no alignment, no sorting —
  // sortedness is itself one of the checks): the pre-pass's samples and
  // syncs, then the events in bounded batches.
  const std::vector<trace::TempSample>& samples = reader.temp_samples();
  const std::vector<trace::ClockSync>& syncs = reader.clock_syncs();
  engine.add_temp_samples(samples.data(), samples.size());
  engine.add_clock_syncs(syncs.data(), syncs.size());
  // Trailing bytes mean concatenation or partial overwrite — something
  // no healthy pipeline writes, so the file fails the lint even though
  // the leading trace parsed.
  if (reader.trailing_bytes() > 0) engine.note_trailing_bytes(reader.trailing_bytes());
  constexpr std::size_t kBatch = std::size_t{1} << 16;
  std::vector<trace::FnEvent> events;
  for (std::size_t appended = 1; appended > 0;) {
    events.clear();
    const Status read = reader.next_fn_events(&events, kBatch, &appended);
    if (!read) return Result<LintReport>::error(read.message());
    engine.add_fn_events(events.data(), events.size());
  }
  return engine.finish();
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
