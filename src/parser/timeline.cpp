#include "parser/timeline.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace tempest::parser {
namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// Squared activation length widened before the multiply overflows.
inline unsigned __int128 squared_ticks(std::uint64_t len) {
  return static_cast<unsigned __int128>(len) * len;
}

/// Open-addressing map from a 64-bit key to a 32-bit value, each key
/// stored beside its value so a probe reads one bucket rather than a key
/// array and a parallel value array. Values are never kNone.
class FlatIndex {
 public:
  explicit FlatIndex(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    buckets_.resize(cap);
    shift_ = 64 - std::countr_zero(cap);
  }

  /// Value of `key`, or kNone when it is absent.
  std::uint32_t find(std::uint64_t key) const {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t pos = home(key);; pos = (pos + 1) & mask) {
      const Bucket& b = buckets_[pos];
      if (b.value == kNone || b.key == key) return b.value;
    }
  }

  /// Value of `key`, storing `value` for it when it is absent.
  std::uint32_t emplace(std::uint64_t key, std::uint32_t value) {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t pos = home(key);
    for (; buckets_[pos].value != kNone; pos = (pos + 1) & mask) {
      if (buckets_[pos].key == key) return buckets_[pos].value;
    }
    buckets_[pos] = {key, value};
    if (++size_ * 10 > buckets_.size() * 7) grow();
    return value;
  }

 private:
  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t value = kNone;
  };

  /// Fibonacci hashing: the product's high bits depend on every key bit,
  /// so aligned function entry points spread over the table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.size() * 2, Bucket{});
    --shift_;
    const std::size_t mask = buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (b.value == kNone) continue;
      std::size_t pos = home(b.key);
      while (buckets_[pos].value != kNone) pos = (pos + 1) & mask;
      buckets_[pos] = b;
    }
  }

  std::vector<Bucket> buckets_;
  int shift_ = 0;
  std::size_t size_ = 0;
};

/// Key of a (function id, thread id) slot in the pair table.
inline std::uint64_t pair_key(std::uint32_t fn, std::uint32_t thread_id) {
  return (std::uint64_t{fn} << 32) | thread_id;
}

/// Most entries a thread's dense fn -> slot index may hold per slot the
/// thread owns, so the index never outgrows the slots themselves (about
/// 160 bytes each) however many functions other threads have interned.
constexpr std::size_t kIndexPerSlot = 8;

/// Fold state of one thread listed in the trace metadata.
struct ThreadState {
  std::uint16_t node = 0;      ///< listed node
  std::uint32_t slots = 0;     ///< slots this thread owns
  std::uint32_t spilled = 0;   ///< of those, still held in the pair table
  /// Slot of each function id below size(), kNone when unseen. Ids at or
  /// past size() are in the pair table.
  std::vector<std::uint32_t> slot_of;
};

/// Thread id -> fold state of the threads listed in the metadata. Thread
/// ids are dense per process, so almost every lookup is one vector
/// index; listed ids beyond the dense window (possible only in corrupt
/// traces) fall back to a hash map.
class ThreadTable {
 public:
  explicit ThreadTable(const std::vector<trace::ThreadInfo>& threads) {
    std::uint32_t max_tid = 0;
    for (const auto& t : threads) max_tid = std::max(max_tid, t.thread_id);
    if (!threads.empty()) {
      dense_.assign(std::min<std::size_t>(std::size_t{max_tid} + 1, kDenseCap), kNone);
    }
    for (const auto& t : threads) {
      std::uint32_t& idx = t.thread_id < dense_.size()
                               ? dense_[t.thread_id]
                               : sparse_.try_emplace(t.thread_id, kNone).first->second;
      if (idx == kNone) {
        idx = static_cast<std::uint32_t>(states_.size());
        states_.emplace_back();
      }
      states_[idx].node = t.node_id;  // a repeated listing overrides
    }
  }

  /// State index of a listed thread, or kNone for a thread missing from
  /// the metadata.
  std::uint32_t find(std::uint32_t thread_id) const {
    if (thread_id < dense_.size()) return dense_[thread_id];
    if (sparse_.empty()) return kNone;
    const auto it = sparse_.find(thread_id);
    return it != sparse_.end() ? it->second : kNone;
  }

  ThreadState& at(std::uint32_t i) { return states_[i]; }

 private:
  static constexpr std::size_t kDenseCap = std::size_t{1} << 20;
  std::vector<std::uint32_t> dense_;
  std::unordered_map<std::uint32_t, std::uint32_t> sparse_;
  std::vector<ThreadState> states_;
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

/// One node's sample timestamps, complete and in time order before the
/// replay starts, and the cursor the replay moves over them.
class NodeSamples {
 public:
  void push(std::uint64_t tsc) { tsc_.push_back(tsc); }

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

  /// The samples inside `iv`, found by binary search without moving the
  /// cursor: for closes off the replay's path (threads missing from the
  /// metadata, activations still open at the end).
  void credit_inside(const Interval& iv, std::vector<SampleRange>* ranges) const {
    const auto lower = [this](std::uint64_t t) {
      return static_cast<std::size_t>(std::lower_bound(tsc_.begin(), tsc_.end(), t) -
                                      tsc_.begin());
    };
    credit(ranges, lower(iv.begin), lower(iv.end));
  }

 private:
  std::vector<std::uint64_t> tsc_;
  std::size_t cursor_ = 0;
};

/// 128-bit sum held on an 8-byte boundary, so Totals has no padding
/// and an open slot packs into 80 bytes instead of 96 (GCC and Clang
/// honour a lowered alignment on a typedef).
typedef unsigned __int128 PackedU128 __attribute__((aligned(8)));

/// What the activations closed into one (addr, thread) or (addr, node)
/// slot add up to.
struct Totals {
  std::uint64_t calls = 0;
  std::uint64_t total_ticks = 0;
  std::uint64_t activations = 0;
  std::uint64_t first_begin = UINT64_MAX;
  std::uint64_t last_end = 0;
  PackedU128 ticks_sq = 0;

  void close(const Interval& iv) {
    total_ticks += iv.length();
    ++activations;
    ticks_sq += squared_ticks(iv.length());
    first_begin = std::min(first_begin, iv.begin);
    last_end = std::max(last_end, iv.end);
  }

  void absorb(const Totals& other) {
    ticks_sq += other.ticks_sq;
    calls += other.calls;
    total_ticks += other.total_ticks;
    activations += other.activations;
    first_begin = std::min(first_begin, other.first_begin);
    last_end = std::max(last_end, other.last_end);
  }
};

/// The lists a slot gathers. They are touched only when a sample is
/// credited or a span function closes, so they live apart from the
/// per-event state.
struct Lists {
  std::vector<SampleRange> ranges;  ///< credited sample positions
  std::vector<Interval> spans;      ///< every activation, span functions only

  void absorb(Lists&& other) {
    append(&ranges, &other.ranges);
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

/// Per (addr, thread): everything an enter or a close touches, packed
/// so the slots of a large trace stay in L2.
struct OpenSlot {
  Totals totals;
  std::uint64_t depth = 0;
  std::uint64_t first_enter = 0;
  std::uint32_t enter_pos = 0;  ///< sample position of first_enter
  bool keep_spans = false;
};

/// Per (addr, node): the slots of a node's threads, folded together.
struct Tally {
  Totals totals;
  Lists lists;
};

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
/// types (FlatIndex, ThreadTable, OpenSlot, NodeSamples) stay file-local.
struct TimelineAccumulator::Impl {
  // Per (addr, thread): an OpenSlot in `open` (open recursion depth, the
  // outermost entry time and its sample position, and — for threads
  // listed in the trace metadata — the totals so far) and its Lists in
  // the parallel `lists`. Addresses are interned as dense function ids.
  // A listed thread finds its slots through its own dense fn -> slot
  // index, kept within kIndexPerSlot entries per slot the thread owns;
  // ids past that, and every slot of a thread missing from the metadata,
  // live in the (fn, thread id) pair table, so memory grows with the
  // pairs seen. A listed thread's node never changes, so its slots fold
  // into the per-(addr, node) tallies once at finish().
  // Events of unknown threads (corrupt traces) take each event's own
  // node-id fallback and go to the per-(addr, node) tally directly.
  struct SlotKey {
    std::uint32_t fn = 0;    ///< interned address id
    std::uint16_t node = 0;  ///< tally node at finish(): the listed node, else 0
  };
  struct TallyKey {
    std::uint32_t fn = 0;
    std::uint16_t node = 0;
  };
  Impl(const std::vector<trace::ThreadInfo>& threads, std::size_t hint, SpanFilter keep)
      : threads(threads),
        fns(hint),
        pairs(0),
        tally_index(0),
        keep_spans(std::move(keep)) {
    // Every listed thread's node is indexed directly by the replay.
    for (const auto& t : threads) node_at(t.node_id);
  }

  /// Function id of `addr`, interning it (and making its one SpanFilter
  /// decision) on first sight.
  std::uint32_t intern(std::uint64_t addr) {
    const auto next = static_cast<std::uint32_t>(fn_addr.size());
    const std::uint32_t fn = fns.emplace(addr, next);
    if (fn == next) {
      fn_addr.push_back(addr);
      fn_keep.push_back(keep_spans && keep_spans(addr));
    }
    return fn;
  }

  std::uint32_t new_slot(std::uint32_t fn, std::uint16_t node) {
    const auto si = static_cast<std::uint32_t>(open.size());
    open.emplace_back().keep_spans = fn_keep[fn];
    lists.emplace_back();
    open_keys.push_back({fn, node});
    return si;
  }

  /// The (fn, thread) slot of a thread missing from the metadata,
  /// created on first sight.
  std::uint32_t unlisted_slot(std::uint32_t thread_id, std::uint32_t fn) {
    const auto next = static_cast<std::uint32_t>(open.size());
    const std::uint32_t si = pairs.emplace(pair_key(fn, thread_id), next);
    if (si == next) new_slot(fn, 0);
    return si;
  }

  /// The (fn, thread) slot of a listed thread, created on first sight.
  std::uint32_t slot_at(ThreadState& th, std::uint32_t thread_id, std::uint32_t fn) {
    if (fn >= th.slot_of.size()) return far_slot(th, thread_id, fn);
    std::uint32_t& slot = th.slot_of[fn];
    if (slot == kNone) {
      slot = new_slot(fn, th.node);
      ++th.slots;
    }
    return slot;
  }

  /// slot_at() for an id past the thread's dense index: widen the index
  /// when the thread owns enough slots to pay for it, else use the pair
  /// table.
  std::uint32_t far_slot(ThreadState& th, std::uint32_t thread_id, std::uint32_t fn) {
    const std::size_t size = std::min(kIndexPerSlot * (std::size_t{th.slots} + 1),
                                      std::max(std::size_t{fn} + 1, 2 * th.slot_of.size()));
    if (fn < size) {
      widen(th, thread_id, size);
      return slot_at(th, thread_id, fn);
    }
    const auto next = static_cast<std::uint32_t>(open.size());
    const std::uint32_t si = pairs.emplace(pair_key(fn, thread_id), next);
    if (si == next) {
      new_slot(fn, th.node);
      ++th.slots;
      ++th.spilled;
    }
    return si;
  }

  /// Grow a thread's dense index to `size` entries, moving in the slots
  /// the pair table held for the ids it now covers.
  void widen(ThreadState& th, std::uint32_t thread_id, std::size_t size) {
    auto fn = static_cast<std::uint32_t>(th.slot_of.size());
    th.slot_of.resize(size, kNone);
    for (; fn < size && th.spilled != 0; ++fn) {
      const std::uint32_t si = pairs.find(pair_key(fn, thread_id));
      if (si != kNone) {
        th.slot_of[fn] = si;
        --th.spilled;
      }
    }
  }

  /// The existing (addr, thread) slot of a listed thread, or kNone.
  std::uint32_t find_slot(const ThreadState& th, std::uint32_t thread_id,
                          std::uint64_t addr) const {
    const std::uint32_t fn = fns.find(addr);
    if (fn < th.slot_of.size()) return th.slot_of[fn];
    if (fn == kNone || th.spilled == 0) return kNone;
    return pairs.find(pair_key(fn, thread_id));
  }

  Tally& tally_at(std::uint32_t fn, std::uint16_t node) {
    const auto next = static_cast<std::uint32_t>(tallies.size());
    const std::uint32_t idx = tally_index.emplace(pair_key(fn, node), next);
    if (idx == next) {
      node_at(node);
      tallies.emplace_back();
      tally_keys.push_back({fn, node});
    }
    return tallies[idx];
  }

  NodeSamples& node_at(std::uint16_t node) {
    if (node >= nodes.size()) nodes.resize(std::size_t{node} + 1);
    return nodes[node];
  }

  /// One event of a thread missing from the metadata: its node is the
  /// event's own node id, so calls and closes go straight to that
  /// node's tally.
  void add_unlisted(const trace::FnEvent& e) {
    if (e.kind == trace::FnEventKind::kEnter) {
      const std::uint32_t fn = intern(e.addr);
      OpenSlot& st = open[unlisted_slot(e.thread_id, fn)];
      if (st.depth++ == 0) st.first_enter = e.tsc;
      ++tally_at(fn, e.node_id).totals.calls;
      return;
    }
    const std::uint32_t fn = fns.find(e.addr);
    const std::uint32_t si = fn == kNone ? kNone : pairs.find(pair_key(fn, e.thread_id));
    if (si == kNone || open[si].depth == 0) {
      ++diag.unmatched_exits;
      return;
    }
    OpenSlot& st = open[si];
    if (--st.depth != 0) return;
    const Interval iv{st.first_enter, e.tsc};
    Tally& t = tally_at(fn, e.node_id);
    t.totals.close(iv);
    if (st.keep_spans) t.lists.spans.push_back(iv);
    nodes[e.node_id].credit_inside(iv, &t.lists.ranges);
  }

  ThreadTable threads;
  TimelineDiagnostics diag;
  FlatIndex fns;                       ///< address -> function id
  FlatIndex pairs;                     ///< (function id, thread id) -> slot
  std::vector<std::uint64_t> fn_addr;  ///< function id -> address
  std::vector<bool> fn_keep;           ///< function id -> SpanFilter decision
  std::vector<OpenSlot> open;          ///< hot, per (addr, thread)
  std::vector<Lists> lists;            ///< cold, parallel to `open`
  std::vector<SlotKey> open_keys;      ///< parallel to `open`
  FlatIndex tally_index;               ///< (function id, node) -> tally
  std::vector<Tally> tallies;          ///< per (addr, node)
  std::vector<TallyKey> tally_keys;    ///< parallel to `tallies`
  std::vector<NodeSamples> nodes;      ///< indexed by node id
  SpanFilter keep_spans;
};

TimelineAccumulator::TimelineAccumulator(const std::vector<trace::ThreadInfo>& threads,
                                         std::size_t hint, SpanFilter keep_spans)
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
    im.node_at(samples[i].node_id).push(samples[i].tsc);
  }
}

void TimelineAccumulator::add_events(const trace::FnEvent* events, std::size_t n) {
  Impl& im = *impl_;
  // Events must be time-ordered per thread; Trace::sort_by_time provides
  // a stable global order which implies per-thread order, and the
  // streaming sources only hand over batches in that same order. Exits
  // that match nothing (or only pop recursion depth) never touch any
  // tally — a slot with no activation is dropped at assembly anyway, so
  // skipping it changes nothing downstream.
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FnEvent& e = events[i];
    const std::uint32_t ti = im.threads.find(e.thread_id);
    if (ti == kNone) {
      im.add_unlisted(e);
      continue;
    }
    ThreadState& th = im.threads.at(ti);
    NodeSamples& samples = im.nodes[th.node];
    if (e.kind == trace::FnEventKind::kEnter) {
      OpenSlot& st = im.open[im.slot_at(th, e.thread_id, im.intern(e.addr))];
      if (st.depth == 0) {
        st.first_enter = e.tsc;
        st.enter_pos = static_cast<std::uint32_t>(samples.seek(e.tsc));
      }
      ++st.depth;
      ++st.totals.calls;
      continue;
    }

    const std::uint32_t si = im.find_slot(th, e.thread_id, e.addr);
    if (si == kNone || im.open[si].depth == 0) {
      ++im.diag.unmatched_exits;
      continue;
    }
    OpenSlot& st = im.open[si];
    if (--st.depth != 0) continue;
    // Credit [cursor(begin), cursor(end)): the node's samples are all in.
    // The cold list is touched only when a sample falls inside.
    const Interval iv{st.first_enter, e.tsc};
    st.totals.close(iv);
    if (st.keep_spans) im.lists[si].spans.push_back(iv);
    const std::size_t hi = samples.seek(iv.end);
    if (st.enter_pos < hi) credit(&im.lists[si].ranges, st.enter_pos, hi);
  }
}

TimelineMap TimelineAccumulator::finish(std::uint64_t end_tsc,
                                        TimelineDiagnostics* diag,
                                        bool keep_empty) {
  Impl& im = *impl_;
  // Close activations still open when the trace ends (e.g. main, or a
  // run interrupted mid-function) and fold the per-(addr, thread) slots
  // into the per-(addr, node) tallies. Unknown threads fall back to node
  // 0 here (no event in hand to borrow a node id from). Counts, sums and
  // range unions are all order-independent, so folding after the loop
  // matches folding per event.
  for (std::size_t si = 0; si < im.open.size(); ++si) {
    OpenSlot& st = im.open[si];
    Lists& lists = im.lists[si];
    const auto [fn, node] = im.open_keys[si];
    if (st.depth > 0) {
      ++im.diag.force_closed;
      const Interval iv{st.first_enter, end_tsc};
      st.totals.close(iv);
      if (st.keep_spans) lists.spans.push_back(iv);
      im.node_at(node).credit_inside(iv, &lists.ranges);
    }
    if (st.totals.calls == 0 && st.totals.activations == 0) continue;
    Tally& dst = im.tally_at(fn, node);
    dst.totals.absorb(st.totals);
    dst.lists.absorb(std::move(lists));
  }

  // Assemble the ordered public map, dropping functions that produced no
  // activation at all (possible only for unmatched-exit-only addresses).
  TimelineMap result;
  for (std::size_t i = 0; i < im.tallies.size(); ++i) {
    Tally& a = im.tallies[i];
    if (a.totals.activations == 0 && !keep_empty) continue;
    const auto [fn, node] = im.tally_keys[i];
    merge_sample_ranges(&a.lists.ranges);
    merge_intervals(&a.lists.spans);
    FunctionActivity fa;
    fa.addr = im.fn_addr[fn];
    fa.node_id = node;
    fa.samples = std::move(a.lists.ranges);
    fa.first_begin = a.totals.first_begin;
    fa.last_end = a.totals.last_end;
    fa.spans = std::move(a.lists.spans);
    fa.total_ticks = a.totals.total_ticks;
    fa.calls = a.totals.calls;
    fa.activations = a.totals.activations;
    fa.ticks_sq = a.totals.ticks_sq;
    result.emplace(std::make_pair(node, fa.addr), std::move(fa));
  }

  if (diag != nullptr) *diag = im.diag;
  return result;
}

TimelineMap build_timeline(const trace::Trace& trace, TimelineDiagnostics* diag,
                           SpanFilter keep_spans) {
  const std::size_t hint = std::min<std::size_t>(
      trace.fn_events.size() / 8 + 16, std::size_t{1} << 16);
  TimelineAccumulator acc(trace.threads, hint, std::move(keep_spans));
  acc.add_samples(trace.temp_samples.data(), trace.temp_samples.size());
  acc.add_events(trace.fn_events.data(), trace.fn_events.size());
  return acc.finish(trace.end_tsc(), diag);
}

}  // namespace tempest::parser
