#include "export/speedscope.hpp"

#include <cstdio>
#include <string_view>
#include <utility>

#include "common/fastwrite.hpp"
#include "common/json.hpp"

namespace tempest::exporter {

namespace {

/// Spool write-behind threshold; spools are per-thread so this stays
/// modest.
constexpr std::size_t kSpoolBufBytes = std::size_t{64} << 10;

void append_double(std::string* line, double v) {
  fastwrite::append_fixed(*line, v, 3);
}

}  // namespace

SpeedscopeExporter::SpeedscopeExporter(std::ostream& out,
                                       ClockCorrelator correlator,
                                       std::string spool_prefix,
                                       const symtab::Resolver* resolver)
    : SpanExporter(out, std::move(correlator), resolver, "speedscope"),
      spool_prefix_(std::move(spool_prefix)) {}

void SpeedscopeExporter::flush_spool(SpeedscopeSpool& spool) {
  if (spool.buf.empty()) return;
  if (!spool.file.write(spool.buf.data(),
                        static_cast<std::streamsize>(spool.buf.size()))) {
    fail("speedscope export: spool write failed: " + spool.path);
  }
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

void SpeedscopeExporter::open_track(TrackKey key, SpeedscopeSpool& spool) {
  spool.path = spool_prefix_ + ".t" + std::to_string(key.node_id) + "_" +
               std::to_string(key.thread_id) + ".spool";
  spool.file.open(spool.path, std::ios::in | std::ios::out |
                                  std::ios::trunc | std::ios::binary);
  if (!spool.file.is_open()) {
    fail("speedscope export: spool write failed: " + spool.path);
    return;
  }
  // The open stream keeps the bytes; the name goes at once, so nothing
  // is left behind however the export ends.
  std::remove(spool.path.c_str());
}

void SpeedscopeExporter::spool_event(SpeedscopeSpool& spool, char type,
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
  ++stats_.events_exported;
}

Status SpeedscopeExporter::begin(const pipeline::TraceMeta& meta) {
  build_name_table(meta);
  for (const auto& thread : meta.threads) {
    thread_names_[{thread.node_id, thread.thread_id}] =
        "rank " + std::to_string(thread.node_id) + " thread " +
        std::to_string(thread.thread_id) + " (core " +
        std::to_string(thread.core) + ")";
  }
  return status();
}

Status SpeedscopeExporter::on_end(const pipeline::TraceMeta& /*meta*/) {
  // Frames still open close at the final timestamp, innermost first —
  // speedscope rejects profiles whose O events are never closed.
  close_open_frames(end_us());
  for (auto& [key, slot] : tracks()) flush_spool(slot.track);
  if (Status spooled = status(); !spooled) return spooled;

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
  for (auto& [key, slot] : tracks()) {
    SpeedscopeSpool& spool = slot.track;
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

    spool.file.seekg(0);
    char buf[1 << 16];
    while (spool.file.read(buf, sizeof(buf)) || spool.file.gcount() > 0) {
      write(std::string_view(buf, static_cast<std::size_t>(spool.file.gcount())));
    }
    if (spool.file.bad()) {
      return Status::error("speedscope export: cannot read back spool: " +
                           spool.path);
    }
    write("\n]}");
  }

  // Trailer: the same correlation + accounting block Perfetto carries
  // (speedscope ignores keys it doesn't know).
  return finish("],\n", {});
}

}  // namespace tempest::exporter
