#include "export/speedscope.hpp"

#include <cstdio>
#include <utility>

#include "common/json.hpp"
#include "trace/writer.hpp"

namespace tempest::exporter {

namespace {

/// Spool write-behind threshold; spools are per-thread so this stays
/// modest.
constexpr std::size_t kSpoolBufBytes = std::size_t{64} << 10;

void append_u64(std::string* line, std::uint64_t v) {
  fastwrite::append_u64(*line, v);
}

void append_double(std::string* line, double v) {
  fastwrite::append_fixed(*line, v, 3);
}

}  // namespace

SpeedscopeExporter::SpeedscopeExporter(std::ostream& out,
                                       ClockCorrelator correlator,
                                       std::string spool_prefix,
                                       const symtab::Resolver* resolver)
    : out_(&out),
      writer_(out),
      correlator_(std::move(correlator)),
      spool_prefix_(std::move(spool_prefix)),
      resolver_(resolver) {}

SpeedscopeExporter::~SpeedscopeExporter() { remove_spools(); }

void SpeedscopeExporter::remove_spools() {
  for (auto& [key, spool] : spools_) {
    if (spool.file.is_open()) spool.file.close();
    if (!spool.path.empty()) std::remove(spool.path.c_str());
  }
}

void SpeedscopeExporter::write(const std::string& s) {
  writer_.append(s);
  stats_.bytes_written += s.size();
}

void SpeedscopeExporter::flush_spool(ThreadSpool& spool) {
  if (spool.buf.empty()) return;
  spool.file.write(spool.buf.data(),
                   static_cast<std::streamsize>(spool.buf.size()));
  spool.buf.clear();
}

const std::string& SpeedscopeExporter::frame_prefix(char type,
                                                    std::size_t frame) {
  std::vector<std::string>& cache =
      type == 'O' ? open_prefixes_ : close_prefixes_;
  if (frame >= cache.size()) cache.resize(frame + 1);
  std::string& prefix = cache[frame];
  if (prefix.empty()) {
    prefix = "{\"type\":\"";
    prefix += type;
    prefix += "\",\"frame\":";
    fastwrite::append_u64(prefix, frame);
    prefix += ",\"at\":";
  }
  return prefix;
}

SpeedscopeExporter::ThreadSpool& SpeedscopeExporter::spool_for(
    const SpanScrubber::ThreadKey& key) {
  constexpr std::uint32_t kDenseTids = 1u << 16;
  const bool dense = key.thread_id < kDenseTids;
  if (dense) {
    if (key.thread_id >= spool_cache_.size()) {
      spool_cache_.resize(key.thread_id + 1);
    }
    const auto& slot = spool_cache_[key.thread_id];
    if (slot.second != nullptr &&
        slot.first == std::uint32_t{key.node_id} + 1) {
      return *slot.second;
    }
  }
  const auto it = spools_.find(key);
  if (it != spools_.end()) {
    if (dense) {
      spool_cache_[key.thread_id] = {std::uint32_t{key.node_id} + 1,
                                     &it->second};
    }
    return it->second;
  }

  ThreadSpool& spool = spools_[key];
  spool.path = spool_prefix_ + ".t" + std::to_string(key.node_id) + "_" +
               std::to_string(key.thread_id) + ".spool";
  spool.file.open(spool.path, std::ios::binary | std::ios::trunc);
  if (dense) {
    spool_cache_[key.thread_id] = {std::uint32_t{key.node_id} + 1, &spool};
  }
  return spool;
}

void SpeedscopeExporter::spool_event(ThreadSpool& spool, char type,
                                     std::size_t frame, double at) {
  if (spool.any_event) {
    spool.buf += ",\n";
  } else {
    spool.first_at = at;
    spool.any_event = true;
  }
  spool.buf += frame_prefix(type, frame);
  append_double(&spool.buf, at);
  spool.buf += "}";
  if (spool.buf.size() >= kSpoolBufBytes) flush_spool(spool);
  spool.last_at = at;
  ++spool.event_count;
  ++stats_.events_exported;
}

Status SpeedscopeExporter::begin(const pipeline::TraceMeta& meta) {
  names_.emplace(meta, resolver_);
  for (const auto& thread : meta.threads) {
    thread_names_[{thread.node_id, thread.thread_id}] =
        "rank " + std::to_string(thread.node_id) + " thread " +
        std::to_string(thread.thread_id) + " (core " +
        std::to_string(thread.core) + ")";
  }
  return Status::ok();
}

Status SpeedscopeExporter::on_batch(const pipeline::TraceMeta& /*meta*/,
                                    const pipeline::EventBatch& batch) {
  std::vector<std::uint64_t> to_close;
  for (const auto& e : batch.fn_events) {
    if (!correlator_.has_base()) correlator_.set_base(e.tsc);
    if (e.tsc > max_tsc_) max_tsc_ = e.tsc;
    const double at = correlator_.to_us(e.tsc);
    const SpanScrubber::ThreadKey key{e.node_id, e.thread_id};
    ThreadSpool& spool = spool_for(key);
    if (e.kind == trace::FnEventKind::kEnter) {
      scrubber_.push(key, e.addr);
      spool_event(spool, 'O', names_->index_of(e.addr), at);
    } else {
      if (!scrubber_.close(key, e.addr, &to_close)) {
        ++stats_.spans_dropped;
        continue;
      }
      stats_.spans_force_closed += to_close.size() - 1;
      for (const std::uint64_t addr : to_close) {
        spool_event(spool, 'C', names_->index_of(addr), at);
      }
    }
    if (!spool.file.good()) {
      return Status::error("speedscope export: spool write failed: " +
                           spool.path);
    }
  }
  // Samples don't appear in speedscope output, but they define the
  // cadence the residual-skew warning compares against, and the final
  // timestamp force-closes anchor to. The time base is the first fn
  // event's, although sources emit samples first.
  for (const auto& s : batch.temp_samples) {
    if (!any_sample_) first_sample_tsc_ = s.tsc;
    any_sample_ = true;
    if (s.tsc > max_tsc_) max_tsc_ = s.tsc;
    sample_period_.observe(s);
  }
  return Status::ok();
}

Status SpeedscopeExporter::on_end(const pipeline::TraceMeta& /*meta*/) {
  if (!correlator_.has_base() && any_sample_) correlator_.set_base(first_sample_tsc_);
  const double end_at = correlator_.to_us(max_tsc_);

  // Frames still open close at the final timestamp, innermost first —
  // speedscope rejects profiles whose O events are never closed.
  for (const auto& [key, stack] : scrubber_.stacks()) {
    if (stack.empty()) continue;
    ThreadSpool& spool = spool_for(key);
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      spool_event(spool, 'C', names_->index_of(*it), end_at);
      ++stats_.spans_force_closed;
    }
    if (!spool.file.good()) {
      return Status::error("speedscope export: spool write failed: " +
                           spool.path);
    }
  }

  const double period_us =
      correlator_.ticks_to_us(sample_period_.period_ticks());
  warnings_ = correlation_warnings(correlator_, period_us);

  // Document head: schema, shared frame table.
  line_.clear();
  line_ +=
      "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\n"
      "\"name\":\"tempest export\",\n\"exporter\":\"tempest-export\",\n"
      "\"shared\":{\"frames\":[";
  bool first = true;
  for (const std::string& name : names_->names()) {
    if (!first) line_ += ",\n";
    first = false;
    line_ += "{\"name\":";
    json::append_json_string(&line_, name);
    line_ += "}";
  }
  line_ += "]},\n\"profiles\":[";
  write(line_);

  // Stitch each thread's spool into its evented profile.
  bool first_profile = true;
  for (auto& [key, spool] : spools_) {
    flush_spool(spool);
    if (!spool.file.good()) {
      return Status::error("speedscope export: spool write failed: " +
                           spool.path);
    }
    spool.file.close();
    line_.clear();
    if (!first_profile) line_ += ",";
    first_profile = false;
    line_ += "\n{\"type\":\"evented\",\"name\":";
    const auto named = thread_names_.find(key);
    json::append_json_string(
        &line_, named != thread_names_.end()
                    ? named->second
                    : "rank " + std::to_string(key.node_id) + " thread " +
                          std::to_string(key.thread_id));
    line_ += ",\"unit\":\"microseconds\",\"startValue\":";
    append_double(&line_, spool.first_at);
    line_ += ",\"endValue\":";
    append_double(&line_, spool.last_at);
    line_ += ",\"events\":[\n";
    write(line_);

    std::ifstream in(spool.path, std::ios::binary);
    if (!in.is_open()) {
      return Status::error("speedscope export: cannot reopen spool: " +
                           spool.path);
    }
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      writer_.append(
          std::string_view(buf, static_cast<std::size_t>(in.gcount())));
      stats_.bytes_written += static_cast<std::uint64_t>(in.gcount());
    }
    write("\n]}");
  }

  // Trailer: the same correlation + accounting block Perfetto carries
  // (speedscope ignores keys it doesn't know).
  line_.clear();
  line_ += "],\n\"metadata\":{\"exporter\":\"tempest-export\","
           "\"trace_format_version\":";
  append_u64(&line_, trace::kTraceVersion);
  line_ += ",\"base_tsc\":";
  append_u64(&line_, correlator_.base());
  line_ += ",\"clock_correlation\":{\"ranks\":[";
  first = true;
  for (const RankClock& rank : correlator_.ranks()) {
    if (!first) line_ += ",";
    first = false;
    line_ += "{\"node_id\":";
    append_u64(&line_, rank.node_id);
    line_ += ",\"syncs\":";
    append_u64(&line_, rank.sync_count);
    line_ += ",\"skew_us\":";
    append_double(&line_, rank.skew_us);
    line_ += ",\"drift_ppm\":";
    append_double(&line_, rank.drift_ppm);
    line_ += ",\"residual_us\":";
    append_double(&line_, rank.residual_us);
    line_ += "}";
  }
  line_ += "],\"max_residual_us\":";
  append_double(&line_, correlator_.max_residual_us());
  line_ += ",\"sample_period_us\":";
  append_double(&line_, period_us);
  line_ += ",\"residual_exceeds_sample_period\":";
  line_ += warnings_.empty() ? "false" : "true";
  line_ += "},\"export_stats\":{\"events_exported\":";
  append_u64(&line_, stats_.events_exported);
  line_ += ",\"spans_dropped\":";
  append_u64(&line_, stats_.spans_dropped);
  line_ += ",\"spans_force_closed\":";
  append_u64(&line_, stats_.spans_force_closed);
  line_ += "}}}\n";
  write(line_);

  writer_.flush();
  out_->flush();
  if (!out_->good()) return Status::error("speedscope export: write failed");
  remove_spools();
  publish_export_telemetry(stats_);
  return Status::ok();
}

}  // namespace tempest::exporter
