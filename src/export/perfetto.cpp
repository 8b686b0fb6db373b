#include "export/perfetto.hpp"

#include <utility>

#include "common/fastwrite.hpp"
#include "common/json.hpp"

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
    : SpanExporter(out, std::move(correlator), resolver, "perfetto") {}

void PerfettoExporter::open_track(TrackKey key, PerfettoTrack& track) {
  std::string ids = "\",\"pid\":";
  fastwrite::append_u64(ids, key.node_id);
  ids += ",\"tid\":";
  fastwrite::append_u64(ids, key.thread_id);
  ids += ",\"ts\":";
  track.begin_prefix = "{\"ph\":\"B" + ids;
  track.end_prefix = "{\"ph\":\"E" + ids;
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

Status PerfettoExporter::begin(const pipeline::TraceMeta& meta) {
  build_name_table(meta);
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
  return status();
}

void PerfettoExporter::open(PerfettoTrack& track, const trace::FnEvent& e,
                            double ts) {
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
}

void PerfettoExporter::close(PerfettoTrack& track, std::uint64_t addr,
                             double ts) {
  line_.clear();
  line_ += track.end_prefix;
  append_ts(&line_, ts);
  line_ += name_suffix(addr);
  put_event(line_);
  ++stats_.events_exported;
}

Status PerfettoExporter::on_batch(const pipeline::TraceMeta& meta,
                                  const pipeline::EventBatch& batch) {
  held_samples_.insert(held_samples_.end(), batch.temp_samples.begin(),
                       batch.temp_samples.end());
  return SpanExporter::on_batch(meta, batch);
}

Status PerfettoExporter::on_end(const pipeline::TraceMeta& meta) {
  const double end_ts = end_us();
  // Counter tracks after every B/E record, timed against the first fn
  // event's base (the first sample's when the trace has no events).
  for (const auto& s : held_samples_) {
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

  // Frames still open at end of trace close at the final timestamp —
  // the same force-close the profile builder applies, and what keeps
  // every emitted B matched by an E.
  close_open_frames(end_ts);

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

  std::string diff;
  if (!annotations_by_name_.empty()) {
    // Echo the diff findings so a viewer (or check script) can read the
    // marks without scanning the event stream; `marked` lists the ones
    // that bound to a span, in first-seen order.
    diff += ",\"tempest_diff\":{\"annotations\":";
    append_u64(&diff, annotations_by_name_.size());
    diff += ",\"marked\":[";
    for (std::size_t i = 0; i < annotations_marked_.size(); ++i) {
      const DiffAnnotation* a = annotations_marked_[i];
      if (i > 0) diff += ",";
      diff += "{\"function\":";
      json::append_json_string(&diff, a->function);
      diff += ",\"delta_time_s\":";
      append_double(&diff, a->delta_time_s);
      diff += ",\"confidence\":";
      append_double(&diff, a->confidence);
      diff += ",\"regression\":";
      diff += a->regression ? "true" : "false";
      diff += "}";
    }
    diff += "]}";
  }
  return finish("\n],\n", diff);
}

}  // namespace tempest::exporter
