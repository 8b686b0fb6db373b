#include "parser/timeline.hpp"

#include <algorithm>
#include <unordered_map>

namespace tempest::parser {
namespace {

/// Dense thread -> node lookup; thread ids are dense per process, so
/// almost every lookup is one vector index. Ids beyond the dense window
/// (possible only in corrupt traces) fall back to a hash map.
class ThreadNodeTable {
 public:
  explicit ThreadNodeTable(const std::vector<trace::ThreadInfo>& threads) {
    std::uint32_t max_tid = 0;
    for (const auto& t : threads) max_tid = std::max(max_tid, t.thread_id);
    if (!threads.empty()) {
      dense_.assign(std::min<std::size_t>(std::size_t{max_tid} + 1, kDenseCap), -1);
    }
    for (const auto& t : threads) {
      if (t.thread_id < dense_.size()) {
        dense_[t.thread_id] = t.node_id;
      } else {
        sparse_[t.thread_id] = t.node_id;
      }
    }
  }

  std::uint16_t node_of(std::uint32_t thread_id, std::uint16_t fallback) const {
    const std::int32_t node = node_or_negative(thread_id);
    return node >= 0 ? static_cast<std::uint16_t>(node) : fallback;
  }

  /// Listed node for the thread, or -1 when the thread is unknown (its
  /// events then use each event's own node id as the fallback).
  std::int32_t node_or_negative(std::uint32_t thread_id) const {
    if (thread_id < dense_.size()) return dense_[thread_id];
    const auto it = sparse_.find(thread_id);
    return it != sparse_.end() ? it->second : -1;
  }

 private:
  static constexpr std::size_t kDenseCap = std::size_t{1} << 20;
  std::vector<std::int32_t> dense_;
  std::unordered_map<std::uint32_t, std::uint16_t> sparse_;
};

/// Squared activation length widened before the multiply overflows.
inline unsigned __int128 squared_ticks(std::uint64_t len) {
  return static_cast<unsigned __int128>(len) * len;
}

/// Minimal open-addressing hash map from an (a, b) key pair to a dense
/// value index. The event loop below probes these maps once or twice
/// per event; keying on the raw (addr, thread) / (addr, node) pairs
/// avoids both std::unordered_map's node indirection and a separate
/// address-interning lookup. Values live in caller-owned dense vectors,
/// which also makes the post-loop passes sequential scans.
class FlatPairIndex {
 public:
  explicit FlatPairIndex(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
    keys_.resize(cap);
    mask_ = cap - 1;
  }

  /// Returns the dense index for (a, b), assigning the next one (== the
  /// current id count) on first sight; `inserted` reports which.
  std::uint32_t find_or_insert(std::uint64_t a, std::uint64_t b, bool* inserted) {
    if ((size_ + 1) * 10 > (mask_ + 1) * 7) grow();
    std::size_t pos = mix(a, b) & mask_;
    while (slots_[pos] != kEmpty) {
      if (keys_[pos].first == a && keys_[pos].second == b) {
        *inserted = false;
        return slots_[pos];
      }
      pos = (pos + 1) & mask_;
    }
    keys_[pos] = {a, b};
    slots_[pos] = static_cast<std::uint32_t>(size_);
    *inserted = true;
    return static_cast<std::uint32_t>(size_++);
  }

  /// Dense index for (a, b), or UINT32_MAX when absent.
  std::uint32_t find(std::uint64_t a, std::uint64_t b) const {
    std::size_t pos = mix(a, b) & mask_;
    while (slots_[pos] != kEmpty) {
      if (keys_[pos].first == a && keys_[pos].second == b) return slots_[pos];
      pos = (pos + 1) & mask_;
    }
    return kEmpty;
  }

  static constexpr std::uint32_t kEmpty = UINT32_MAX;

 private:
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    // splitmix64 finaliser over the folded pair: full-avalanche, so
    // nearby addresses and sequential thread ids spread over the table.
    std::uint64_t x = a + b * 0xC2B2AE3D27D4EB4FULL;
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  void grow() {
    std::vector<std::uint32_t> old_slots = std::move(slots_);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> old_keys = std::move(keys_);
    const std::size_t old_cap = mask_ + 1;
    slots_.assign(old_cap * 2, kEmpty);
    keys_.resize(old_cap * 2);
    mask_ = old_cap * 2 - 1;
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_slots[i] == kEmpty) continue;
      std::size_t pos = mix(old_keys[i].first, old_keys[i].second) & mask_;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask_;
      slots_[pos] = old_slots[i];
      keys_[pos] = old_keys[i];
    }
  }

  std::vector<std::uint32_t> slots_;  ///< dense value index per bucket
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Append positions [lo, hi) to a range list, coalescing with the last
/// range when they touch. Lists built in ascending order stay coalesced;
/// anything else is left for merge_sample_ranges.
void credit(std::vector<SampleRange>* ranges, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  const auto first = static_cast<std::uint32_t>(lo);
  const auto last = static_cast<std::uint32_t>(hi);
  if (!ranges->empty() && first >= ranges->back().first &&
      first <= ranges->back().last) {
    ranges->back().last = std::max(ranges->back().last, last);
  } else {
    ranges->push_back({first, last});
  }
}

/// One node's sample timestamps in arrival order, and the cursor the
/// replay moves over them.
class NodeSamples {
 public:
  void push(std::uint64_t tsc) {
    if (!tsc_.empty() && tsc < tsc_.back()) sorted_ = false;
    tsc_.push_back(tsc);
  }

  /// Position of the first sample at or after `t`. The cursor walks on
  /// from where the previous lookup left it — usually zero steps, since
  /// samples are sparse next to events: O(1) amortised over a
  /// time-ordered event stream, and still exact when a batch trace's
  /// threads take turns going back in time.
  std::size_t seek(std::uint64_t t) {
    std::size_t c = cursor_;
    while (c < tsc_.size() && tsc_[c] < t) ++c;
    while (c > 0 && tsc_[c - 1] >= t) --c;
    cursor_ = c;
    return c;
  }

  /// True when `pos`, a seek() result, is final: a sample at or after
  /// its tsc has arrived, and later samples arrive in time order.
  bool settled(std::size_t pos) const { return sorted_ && pos < tsc_.size(); }

  bool sorted() const { return sorted_; }

  /// Position of the first sample at or after `t`, searched outward
  /// from `from` (doubling steps, then a binary search inside the last
  /// step): O(log distance), so consecutive activations of one function
  /// cost little however long the stream.
  std::size_t lower_bound_from(std::size_t from, std::uint64_t t) const {
    const auto first = tsc_.begin();
    if (from > 0 && tsc_[from - 1] >= t) {
      return static_cast<std::size_t>(std::lower_bound(first, first + from, t) - first);
    }
    std::size_t lo = from, hi = from;
    for (std::size_t step = 1; hi < tsc_.size() && tsc_[hi] < t; step *= 2) {
      lo = hi + 1;
      hi += step;
    }
    hi = std::min(hi, tsc_.size());
    return static_cast<std::size_t>(std::lower_bound(first + lo, first + hi, t) - first);
  }

  /// Credit the samples inside `iv` on a sorted node, searching from
  /// position `from`; returns where the next, later activation's search
  /// should start. Exact once the stream is complete, and before that
  /// for any activation whose end has settled.
  std::size_t credit_inside(const Interval& iv, std::size_t from,
                            std::vector<SampleRange>* ranges) const {
    const std::size_t lo = lower_bound_from(from, iv.begin);
    const std::size_t hi = lower_bound_from(lo, iv.end);
    credit(ranges, lo, hi);
    return hi;
  }

  /// Credit the samples inside any interval of `merged` (sorted and
  /// disjoint, as merge_intervals leaves it) on an unsorted node (a
  /// hand-built batch trace): one scan in arrival order, one binary
  /// search per sample.
  void credit_scan(const std::vector<Interval>& merged,
                   std::vector<SampleRange>* ranges) const {
    const auto after = [](std::uint64_t t, const Interval& iv) { return t < iv.begin; };
    for (std::size_t i = 0; i < tsc_.size(); ++i) {
      // Only the last interval beginning at or before the sample can hold it.
      const auto it = std::upper_bound(merged.begin(), merged.end(), tsc_[i], after);
      if (it != merged.begin() && tsc_[i] < std::prev(it)->end) credit(ranges, i, i + 1);
    }
  }

 private:
  std::vector<std::uint64_t> tsc_;
  std::size_t cursor_ = 0;
  bool sorted_ = true;
};

/// What one (addr, thread) or (addr, node) slot gathers from the
/// activations closed into it. Fields the event loop touches on every
/// close come first.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t total_ticks = 0;
  std::uint64_t activations = 0;
  std::uint64_t first_begin = UINT64_MAX;
  std::uint64_t last_end = 0;
  std::vector<Interval> parked;     ///< closed before their samples settled
  std::vector<SampleRange> ranges;  ///< credited sample positions
  bool keep_spans = false;
  unsigned __int128 ticks_sq = 0;
  std::vector<Interval> spans;      ///< every activation, span functions only

  void close(const Interval& iv) {
    total_ticks += iv.length();
    ++activations;
    ticks_sq += squared_ticks(iv.length());
    first_begin = std::min(first_begin, iv.begin);
    last_end = std::max(last_end, iv.end);
    if (keep_spans) spans.push_back(iv);
  }

  /// Credit every parked activation. Parked activations of one thread
  /// are in time order, so on a sorted node one forward search serves
  /// them all; an unsorted node scans its samples once against their
  /// union.
  void settle_parked(const NodeSamples& samples) {
    if (parked.empty()) return;
    if (samples.sorted()) {
      std::size_t from = 0;
      for (const Interval& iv : parked) from = samples.credit_inside(iv, from, &ranges);
    } else {
      merge_intervals(&parked);
      samples.credit_scan(parked, &ranges);
    }
    parked.clear();
  }

  void absorb(Tally&& other) {
    ticks_sq += other.ticks_sq;
    calls += other.calls;
    total_ticks += other.total_ticks;
    activations += other.activations;
    first_begin = std::min(first_begin, other.first_begin);
    last_end = std::max(last_end, other.last_end);
    append(&ranges, &other.ranges);
    append(&parked, &other.parked);
    append(&spans, &other.spans);
  }

 private:
  template <typename T>
  static void append(std::vector<T>* dst, std::vector<T>* src) {
    if (dst->empty()) {
      dst->swap(*src);
    } else {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
};

constexpr std::size_t kUnsettled = SIZE_MAX;

/// Sort half-open [kBegin, kEnd) entries by start and coalesce the ones
/// that overlap or touch, in place.
template <auto kBegin, auto kEnd, typename T>
void coalesce(std::vector<T>* v) {
  if (v->empty()) return;
  const auto by_begin = [](const T& a, const T& b) { return a.*kBegin < b.*kBegin; };
  if (!std::is_sorted(v->begin(), v->end(), by_begin)) {
    std::sort(v->begin(), v->end(), by_begin);
  }
  std::size_t out = 0;
  for (std::size_t i = 1; i < v->size(); ++i) {
    const T& next = (*v)[i];
    T& last = (*v)[out];
    if (next.*kBegin <= last.*kEnd) {
      last.*kEnd = std::max(last.*kEnd, next.*kEnd);
    } else {
      (*v)[++out] = next;
    }
  }
  v->resize(out + 1);
}

}  // namespace

void merge_intervals(std::vector<Interval>* intervals) {
  coalesce<&Interval::begin, &Interval::end>(intervals);
}

void merge_sample_ranges(std::vector<SampleRange>* ranges) {
  coalesce<&SampleRange::first, &SampleRange::last>(ranges);
}

/// All accumulator state lives behind the pimpl so the hot-loop helper
/// types (FlatPairIndex, Tally, NodeSamples) stay file-local.
struct TimelineAccumulator::Impl {
  // Per (thread, addr): open recursion depth, the outermost entry time
  // and its sample position, and — for threads listed in the trace
  // metadata — the tally so far. A listed thread's node never changes,
  // so the tallies fold into the per-(addr, node) slots once at
  // finish() and the hot loop probes a single hash per event. Events of
  // unknown threads (corrupt traces) take each event's own node-id
  // fallback and go to the per-(addr, node) slot directly.
  struct OpenState {
    std::uint64_t depth = 0;
    std::uint64_t first_enter = 0;
    std::size_t enter_pos = kUnsettled;  ///< settled sample position of first_enter
    Tally tally;
  };

  Impl(const std::vector<trace::ThreadInfo>& threads, std::size_t hint,
       SpanFilter keep)
      : thread_node(threads),
        open_index(hint),
        accum_index(hint),
        keep_spans(std::move(keep)) {
    // Every listed thread's node is indexed directly by the replay.
    for (const auto& t : threads) samples_of(t.node_id);
  }

  bool wants_spans(std::uint64_t addr) const {
    return keep_spans && keep_spans(addr);
  }

  Tally& accum_at(std::uint64_t addr, std::uint16_t node) {
    bool inserted = false;
    const std::uint32_t idx = accum_index.find_or_insert(addr, node, &inserted);
    if (inserted) {
      accum_keys.emplace_back(addr, node);
      accum.emplace_back();
      accum.back().keep_spans = wants_spans(addr);
    }
    return accum[idx];
  }

  NodeSamples& samples_of(std::uint16_t node) {
    if (node >= nodes.size()) nodes.resize(std::size_t{node} + 1);
    return nodes[node];
  }

  ThreadNodeTable thread_node;
  TimelineDiagnostics diag;
  FlatPairIndex open_index;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> open_keys;  // (addr, thread)
  std::vector<OpenState> open;
  FlatPairIndex accum_index;
  std::vector<std::pair<std::uint64_t, std::uint16_t>> accum_keys;  // (addr, node)
  std::vector<Tally> accum;
  std::vector<NodeSamples> nodes;  ///< indexed by node id
  SpanFilter keep_spans;
};

TimelineAccumulator::TimelineAccumulator(
    const std::vector<trace::ThreadInfo>& threads, std::size_t hint,
    SpanFilter keep_spans)
    : impl_(std::make_unique<Impl>(threads, hint == 0 ? 16 : hint,
                                   std::move(keep_spans))) {}

TimelineAccumulator::~TimelineAccumulator() = default;
TimelineAccumulator::TimelineAccumulator(TimelineAccumulator&&) noexcept = default;
TimelineAccumulator& TimelineAccumulator::operator=(TimelineAccumulator&&) noexcept =
    default;

void TimelineAccumulator::add_samples(const trace::TempSample* samples,
                                      std::size_t n) {
  Impl& im = *impl_;
  for (std::size_t i = 0; i < n; ++i) {
    im.samples_of(samples[i].node_id).push(samples[i].tsc);
  }
}

void TimelineAccumulator::add_events(const trace::FnEvent* events, std::size_t n) {
  Impl& im = *impl_;
  // Events must be time-ordered per thread; Trace::sort_by_time provides
  // a stable global order which implies per-thread order, and the
  // streaming sources only hand over batches in that same order. Exits
  // that match nothing (or only pop recursion depth) never touch any
  // table — a slot with no activation is dropped at assembly anyway, so
  // skipping the lookup changes nothing downstream.
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FnEvent& e = events[i];
    const std::int32_t node = im.thread_node.node_or_negative(e.thread_id);
    if (e.kind == trace::FnEventKind::kEnter) {
      bool inserted = false;
      const std::uint32_t oi = im.open_index.find_or_insert(e.addr, e.thread_id, &inserted);
      if (inserted) {
        im.open_keys.emplace_back(e.addr, e.thread_id);
        im.open.emplace_back();
        im.open.back().tally.keep_spans = im.wants_spans(e.addr);
      }
      Impl::OpenState& st = im.open[oi];
      if (st.depth == 0) {
        st.first_enter = e.tsc;
        if (node >= 0) {
          NodeSamples& samples = im.nodes[static_cast<std::size_t>(node)];
          const std::size_t pos = samples.seek(e.tsc);
          st.enter_pos = samples.settled(pos) ? pos : kUnsettled;
        }
      }
      ++st.depth;
      if (node >= 0) {
        ++st.tally.calls;
      } else {
        ++im.accum_at(e.addr, e.node_id).calls;
      }
      continue;
    }

    const std::uint32_t oi = im.open_index.find(e.addr, e.thread_id);
    if (oi == FlatPairIndex::kEmpty || im.open[oi].depth == 0) {
      ++im.diag.unmatched_exits;
      continue;
    }
    Impl::OpenState& st = im.open[oi];
    if (--st.depth != 0) continue;
    const Interval iv{st.first_enter, e.tsc};
    if (node < 0) {
      Tally& fn = im.accum_at(e.addr, e.node_id);
      fn.close(iv);
      fn.parked.push_back(iv);  // settled against the node's samples at finish()
      continue;
    }
    // Credit [cursor(begin), cursor(end)) once a sample at or after the
    // end has arrived; until then the activation waits, parked.
    Tally& tally = st.tally;
    tally.close(iv);
    NodeSamples& samples = im.nodes[static_cast<std::size_t>(node)];
    const std::size_t hi = samples.seek(iv.end);
    if (!samples.settled(hi)) {
      tally.parked.push_back(iv);
      continue;
    }
    tally.settle_parked(samples);  // earlier ones first
    const std::size_t lo = st.enter_pos != kUnsettled
                               ? st.enter_pos
                               : samples.lower_bound_from(hi, iv.begin);
    credit(&tally.ranges, lo, hi);
  }
}

TimelineMap TimelineAccumulator::finish(std::uint64_t end_tsc,
                                        TimelineDiagnostics* diag,
                                        bool keep_empty) {
  Impl& im = *impl_;
  // Close activations still open when the trace ends (e.g. main, or a
  // run interrupted mid-function), settle everything parked against the
  // now complete sample streams, and fold the per-(addr, thread) tallies
  // into the per-(addr, node) slots. Unknown threads fall back to node 0
  // here (no event in hand to borrow a node id from). Counts, sums and
  // range unions are all order-independent, so folding after the loop
  // matches folding per event.
  for (std::size_t oi = 0; oi < im.open.size(); ++oi) {
    Impl::OpenState& st = im.open[oi];
    Tally& tally = st.tally;
    if (st.depth > 0) {
      ++im.diag.force_closed;
      const Interval iv{st.first_enter, end_tsc};
      tally.close(iv);
      tally.parked.push_back(iv);
    }
    if (tally.calls == 0 && tally.activations == 0) continue;
    const auto [addr, tid] = im.open_keys[oi];
    const std::uint16_t node = im.thread_node.node_of(tid, 0);
    tally.settle_parked(im.samples_of(node));
    im.accum_at(addr, node).absorb(std::move(tally));
  }

  // Assemble the ordered public map, dropping functions that produced no
  // activation at all (possible only for unmatched-exit-only addresses).
  TimelineMap result;
  for (std::size_t i = 0; i < im.accum.size(); ++i) {
    Tally& a = im.accum[i];
    if (a.activations == 0 && !keep_empty) continue;
    const auto [addr, node] = im.accum_keys[i];
    a.settle_parked(im.samples_of(node));
    merge_sample_ranges(&a.ranges);
    merge_intervals(&a.spans);
    FunctionActivity fa;
    fa.addr = addr;
    fa.node_id = node;
    fa.samples = std::move(a.ranges);
    fa.first_begin = a.first_begin;
    fa.last_end = a.last_end;
    fa.spans = std::move(a.spans);
    fa.total_ticks = a.total_ticks;
    fa.calls = a.calls;
    fa.activations = a.activations;
    fa.ticks_sq = a.ticks_sq;
    result.emplace(std::make_pair(node, addr), std::move(fa));
  }

  if (diag != nullptr) *diag = im.diag;
  return result;
}

TimelineMap build_timeline(const trace::Trace& trace, TimelineDiagnostics* diag,
                           SpanFilter keep_spans) {
  // Both per-event lookups probe a flat hash keyed on the raw pair —
  // (addr, thread) for the open recursion state, (addr, node) for the
  // accumulator — instead of a tree-map pair comparison.
  const std::size_t hint = std::min<std::size_t>(
      trace.fn_events.size() / 8 + 16, std::size_t{1} << 16);
  TimelineAccumulator acc(trace.threads, hint, std::move(keep_spans));
  acc.add_samples(trace.temp_samples.data(), trace.temp_samples.size());
  acc.add_events(trace.fn_events.data(), trace.fn_events.size());
  return acc.finish(trace.end_tsc(), diag);
}

}  // namespace tempest::parser
