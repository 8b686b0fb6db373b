#include "export/perfetto.hpp"

#include <utility>

#include "common/json.hpp"
#include "trace/writer.hpp"

namespace tempest::exporter {

namespace {

/// %.3f keeps sub-microsecond detail (a 3 GHz tsc tick is ~0.3 ns;
/// viewers display at ns granularity anyway) while keeping the output
/// deterministic across platforms — to_chars with fixed precision is
/// exact for the magnitudes a trace produces and matches the snprintf
/// bytes this emitter historically wrote.
void append_ts(std::string* line, double us) {
  fastwrite::append_fixed(*line, us, 3);
}

void append_u64(std::string* line, std::uint64_t v) {
  fastwrite::append_u64(*line, v);
}

void append_double(std::string* line, double v) {
  fastwrite::append_fixed(*line, v, 3);
}

}  // namespace

PerfettoExporter::PerfettoExporter(std::ostream& out,
                                   ClockCorrelator correlator,
                                   const symtab::Resolver* resolver)
    : out_(&out),
      writer_(out),
      correlator_(std::move(correlator)),
      resolver_(resolver) {}

void PerfettoExporter::write(const std::string& s) {
  writer_.append(s);
  stats_.bytes_written += s.size();
}

const PerfettoExporter::TrackFragments& PerfettoExporter::track_fragments(
    std::uint16_t node_id, std::uint32_t thread_id) {
  constexpr std::uint32_t kDenseTids = 1u << 16;
  const bool dense = thread_id < kDenseTids;
  if (dense) {
    if (thread_id >= track_cache_.size()) track_cache_.resize(thread_id + 1);
    const auto& slot = track_cache_[thread_id];
    if (slot.second != nullptr && slot.first == std::uint32_t{node_id} + 1) {
      return *slot.second;
    }
  }
  const std::uint64_t key =
      (std::uint64_t{node_id} << 32) | std::uint64_t{thread_id};
  auto it = tracks_.find(key);
  if (it == tracks_.end()) {
    TrackFragments frags;
    std::string ids = "\",\"pid\":";
    fastwrite::append_u64(ids, node_id);
    ids += ",\"tid\":";
    fastwrite::append_u64(ids, thread_id);
    ids += ",\"ts\":";
    frags.begin_prefix = "{\"ph\":\"B" + ids;
    frags.end_prefix = "{\"ph\":\"E" + ids;
    it = tracks_.emplace(key, std::move(frags)).first;
  }
  if (dense) {
    track_cache_[thread_id] = {std::uint32_t{node_id} + 1, &it->second};
  }
  return it->second;
}

const std::string& PerfettoExporter::name_suffix(std::uint64_t addr) {
  auto it = name_suffixes_.find(addr);
  if (it == name_suffixes_.end()) {
    std::string suffix = ",\"cat\":\"fn\",\"name\":";
    json::append_json_string(&suffix, names_->name_of(addr));
    suffix += "}";
    it = name_suffixes_.emplace(addr, std::move(suffix)).first;
  }
  return it->second;
}

const PerfettoExporter::CounterFragments& PerfettoExporter::counter_fragments(
    std::uint16_t node_id, std::uint16_t sensor_id) {
  const std::uint32_t key =
      (std::uint32_t{node_id} << 16) | std::uint32_t{sensor_id};
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    CounterFragments frags;
    frags.prefix = "{\"ph\":\"C\",\"pid\":";
    fastwrite::append_u64(frags.prefix, node_id);
    frags.prefix += ",\"ts\":";
    const auto named = sensor_names_.find({node_id, sensor_id});
    const std::string& sensor =
        named != sensor_names_.end() ? named->second
                                     : "sensor " + std::to_string(sensor_id);
    frags.name_args = ",\"name\":";
    json::append_json_string(&frags.name_args, "temp " + sensor + " (C)");
    frags.name_args += ",\"args\":{\"celsius\":";
    it = counters_.emplace(key, std::move(frags)).first;
  }
  return it->second;
}

void PerfettoExporter::set_annotations(std::vector<DiffAnnotation> annotations) {
  for (DiffAnnotation& a : annotations) {
    annotations_by_name_.insert_or_assign(a.function, std::move(a));
  }
}

void PerfettoExporter::put_event(const std::string& json) {
  if (any_event_) {
    write(",\n");
  } else {
    any_event_ = true;
  }
  write(json);
}

void PerfettoExporter::note_base(std::uint64_t tsc) {
  if (!correlator_.has_base()) correlator_.set_base(tsc);
  if (tsc > max_tsc_) max_tsc_ = tsc;
}

Status PerfettoExporter::begin(const pipeline::TraceMeta& meta) {
  names_.emplace(meta, resolver_);
  for (const auto& s : meta.sensors) {
    sensor_names_[{s.node_id, s.sensor_id}] = s.name;
  }

  write("{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n");

  // Rank/thread naming metadata first, so the tracks are labelled even
  // if a viewer streams the file.
  for (const auto& node : meta.nodes) {
    line_.clear();
    line_ += "{\"ph\":\"M\",\"pid\":";
    append_u64(&line_, node.node_id);
    line_ += ",\"name\":\"process_name\",\"args\":{\"name\":";
    json::append_json_string(
        &line_, "rank " + std::to_string(node.node_id) + " (" + node.hostname +
                    ")");
    line_ += "}}";
    put_event(line_);

    line_.clear();
    line_ += "{\"ph\":\"M\",\"pid\":";
    append_u64(&line_, node.node_id);
    line_ += ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":";
    append_u64(&line_, node.node_id);
    line_ += "}}";
    put_event(line_);
  }
  for (const auto& thread : meta.threads) {
    line_.clear();
    line_ += "{\"ph\":\"M\",\"pid\":";
    append_u64(&line_, thread.node_id);
    line_ += ",\"tid\":";
    append_u64(&line_, thread.thread_id);
    line_ += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    json::append_json_string(&line_,
                               "thread " + std::to_string(thread.thread_id) +
                                   " (core " + std::to_string(thread.core) +
                                   ")");
    line_ += "}}";
    put_event(line_);
  }
  return out_->good() ? Status::ok()
                      : Status::error("perfetto export: write failed");
}

Status PerfettoExporter::on_batch(const pipeline::TraceMeta& /*meta*/,
                                  const pipeline::EventBatch& batch) {
  std::vector<std::uint64_t> to_close;
  for (const auto& e : batch.fn_events) {
    note_base(e.tsc);
    const double ts = correlator_.to_us(e.tsc);
    const SpanScrubber::ThreadKey key{e.node_id, e.thread_id};
    const TrackFragments& track = track_fragments(e.node_id, e.thread_id);
    if (e.kind == trace::FnEventKind::kEnter) {
      scrubber_.push(key, e.addr);
      if (!annotations_by_name_.empty()) {
        // Lazy name match: an annotation binds to an address the first
        // time that address enters, then fires one instant on that
        // first span.
        auto [slot, inserted] = annotation_by_addr_.try_emplace(e.addr, nullptr);
        if (inserted) {
          const auto found = annotations_by_name_.find(names_->name_of(e.addr));
          if (found != annotations_by_name_.end()) slot->second = &found->second;
        }
        if (slot->second != nullptr) {
          const DiffAnnotation* a = slot->second;
          slot->second = nullptr;  // one marker per function
          annotations_marked_.push_back(a);
          line_.clear();
          line_ += "{\"ph\":\"i\",\"pid\":";
          append_u64(&line_, e.node_id);
          line_ += ",\"tid\":";
          append_u64(&line_, e.thread_id);
          line_ += ",\"ts\":";
          append_ts(&line_, ts);
          line_ += ",\"s\":\"t\",\"name\":";
          json::append_json_string(
              &line_, std::string(a->regression ? "tempest-diff regression: "
                                                : "tempest-diff improvement: ") +
                          a->function);
          line_ += ",\"args\":{\"delta_time_s\":";
          append_double(&line_, a->delta_time_s);
          line_ += ",\"confidence\":";
          append_double(&line_, a->confidence);
          line_ += "}}";
          put_event(line_);
          ++stats_.events_exported;
        }
      }
      line_.clear();
      line_ += track.begin_prefix;
      append_ts(&line_, ts);
      line_ += name_suffix(e.addr);
      put_event(line_);
      ++stats_.events_exported;
    } else {
      if (!scrubber_.close(key, e.addr, &to_close)) {
        ++stats_.spans_dropped;  // no open frame: dropping keeps nesting sane
        continue;
      }
      // All but the last close are frames whose exits went missing.
      stats_.spans_force_closed += to_close.size() - 1;
      for (const std::uint64_t addr : to_close) {
        line_.clear();
        line_ += track.end_prefix;
        append_ts(&line_, ts);
        line_ += name_suffix(addr);
        put_event(line_);
        ++stats_.events_exported;
      }
    }
  }

  held_samples_.insert(held_samples_.end(), batch.temp_samples.begin(),
                       batch.temp_samples.end());
  return out_->good() ? Status::ok()
                      : Status::error("perfetto export: write failed");
}

Status PerfettoExporter::on_end(const pipeline::TraceMeta& meta) {
  // Counter tracks after every B/E record, timed against the first fn
  // event's base (the first sample's when the trace has no events).
  for (const auto& s : held_samples_) {
    note_base(s.tsc);
    sample_period_.observe(s);
    const CounterFragments& counter =
        counter_fragments(s.node_id, s.sensor_id);
    line_.clear();
    line_ += counter.prefix;
    append_ts(&line_, correlator_.to_us(s.tsc));
    line_ += counter.name_args;
    append_double(&line_, s.temp_c);
    line_ += "}}";
    put_event(line_);
    ++stats_.events_exported;
  }
  const double end_ts = correlator_.to_us(max_tsc_);

  // Frames still open at end of trace close at the final timestamp —
  // the same force-close the profile builder applies, and what keeps
  // every emitted B matched by an E.
  for (const auto& [key, stack] : scrubber_.stacks()) {
    const TrackFragments& track =
        track_fragments(key.node_id, key.thread_id);
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      line_.clear();
      line_ += track.end_prefix;
      append_ts(&line_, end_ts);
      line_ += name_suffix(*it);
      put_event(line_);
      ++stats_.events_exported;
      ++stats_.spans_force_closed;
    }
  }

  // Recorder self-measurement as global instants: a dropped-events or
  // missed-ticks marker right on the timeline where a user would
  // otherwise trust a gap.
  if (meta.run_stats.present) {
    const auto instant = [&](const char* name, std::uint64_t count) {
      if (count == 0) return;
      line_.clear();
      line_ += "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":";
      append_ts(&line_, end_ts);
      line_ += ",\"s\":\"g\",\"name\":";
      json::append_json_string(&line_, name);
      line_ += ",\"args\":{\"count\":";
      append_u64(&line_, count);
      line_ += "}}";
      put_event(line_);
      ++stats_.events_exported;
    };
    instant("recorder: events dropped", meta.run_stats.events_dropped);
    instant("tempd: missed ticks", meta.run_stats.tempd_missed_ticks);
  }

  const double period_us =
      correlator_.ticks_to_us(sample_period_.period_ticks());
  warnings_ = correlation_warnings(correlator_, period_us);

  // The metadata section: clock correlation and export accounting.
  line_.clear();
  line_ += "\n],\n\"metadata\":{\"exporter\":\"tempest-export\","
           "\"trace_format_version\":";
  append_u64(&line_, trace::kTraceVersion);
  line_ += ",\"base_tsc\":";
  append_u64(&line_, correlator_.base());
  line_ += ",\"clock_correlation\":{\"ranks\":[";
  bool first = true;
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
  line_ += "}";
  if (!annotations_by_name_.empty()) {
    // Echo the diff findings so a viewer (or check script) can read the
    // marks without scanning the event stream; `marked` lists the ones
    // that bound to a span, in first-seen order.
    line_ += ",\"tempest_diff\":{\"annotations\":";
    append_u64(&line_, annotations_by_name_.size());
    line_ += ",\"marked\":[";
    for (std::size_t i = 0; i < annotations_marked_.size(); ++i) {
      const DiffAnnotation* a = annotations_marked_[i];
      if (i > 0) line_ += ",";
      line_ += "{\"function\":";
      json::append_json_string(&line_, a->function);
      line_ += ",\"delta_time_s\":";
      append_double(&line_, a->delta_time_s);
      line_ += ",\"confidence\":";
      append_double(&line_, a->confidence);
      line_ += ",\"regression\":";
      line_ += a->regression ? "true" : "false";
      line_ += "}";
    }
    line_ += "]}";
  }
  line_ += "}}\n";
  write(line_);

  writer_.flush();
  out_->flush();
  if (!out_->good()) return Status::error("perfetto export: write failed");
  publish_export_telemetry(stats_);
  return Status::ok();
}

}  // namespace tempest::exporter
