#include "export/export.hpp"

#include <utility>

#include "common/fastwrite.hpp"
#include "telemetry/metrics.hpp"
#include "trace/writer.hpp"

namespace tempest::exporter {

void publish_export_telemetry(const ExportStats& stats) {
  telemetry::count(telemetry::Counter::kExportEvents, stats.events_exported);
  telemetry::count(telemetry::Counter::kExportSpansDropped,
                   stats.spans_dropped);
  telemetry::count(telemetry::Counter::kExportBytes, stats.bytes_written);
}

NameTable::NameTable(const pipeline::TraceMeta& meta,
                     const symtab::Resolver* resolver)
    : resolver_(resolver) {
  for (const auto& s : meta.synthetic_symbols) synthetic_[s.addr] = s.name;
}

std::size_t NameTable::index_of(std::uint64_t addr) {
  const auto it = index_.find(addr);
  if (it != index_.end()) return it->second;

  std::string name;
  const auto syn = synthetic_.find(addr);
  if (syn != synthetic_.end()) {
    name = syn->second;
  } else if (resolver_ != nullptr && addr < trace::kSyntheticAddrBase) {
    name = resolver_->resolve(addr);
  } else {
    name = "0x";
    fastwrite::append_hex(name, addr);
  }
  const std::size_t index = names_.size();
  names_.push_back(std::move(name));
  index_[addr] = index;
  return index;
}

const std::string& NameTable::name_of(std::uint64_t addr) {
  return names_[index_of(addr)];
}

void SamplePeriodEstimator::observe(const trace::TempSample& sample) {
  Sensor& s = sensors_[{sample.node_id, sample.sensor_id}];
  if (s.count == 0) s.first_tsc = sample.tsc;
  s.last_tsc = sample.tsc;
  ++s.count;
}

double SamplePeriodEstimator::period_ticks() const {
  double tightest = 0.0;
  for (const auto& [key, s] : sensors_) {
    if (s.count < 2 || s.last_tsc <= s.first_tsc) continue;
    const double mean = static_cast<double>(s.last_tsc - s.first_tsc) /
                        static_cast<double>(s.count - 1);
    if (tightest == 0.0 || mean < tightest) tightest = mean;
  }
  return tightest;
}

std::vector<std::string> correlation_warnings(const ClockCorrelator& correlator,
                                              double sample_period_us) {
  std::vector<std::string> warnings;
  if (sample_period_us > 0.0 &&
      correlator.max_residual_us() > sample_period_us) {
    std::string warning = "residual clock skew ";
    fastwrite::append_fixed(warning, correlator.max_residual_us(), 1);
    warning += " us exceeds the sample period ";
    fastwrite::append_fixed(warning, sample_period_us, 1);
    warning +=
        " us; cross-rank temperature attribution may smear by more than "
        "one sample (record more clock syncs)";
    warnings.push_back(std::move(warning));
  }
  return warnings;
}

SpanExportCore::SpanExportCore(std::ostream& out, ClockCorrelator correlator,
                               const symtab::Resolver* resolver,
                               const char* format)
    : correlator_(std::move(correlator)),
      out_(&out),
      writer_(out),
      resolver_(resolver),
      format_(format) {}

void SpanExportCore::build_name_table(const pipeline::TraceMeta& meta) {
  names_.emplace(meta, resolver_);
}

void SpanExportCore::observe_samples(
    const std::vector<trace::TempSample>& samples) {
  for (const trace::TempSample& s : samples) {
    if (!sample_base_) sample_base_ = s.tsc;
    if (s.tsc > max_tsc_) max_tsc_ = s.tsc;
    sample_period_.observe(s);
  }
}

double SpanExportCore::end_us() {
  if (!correlator_.has_base() && sample_base_) {
    correlator_.set_base(*sample_base_);
  }
  return correlator_.to_us(max_tsc_);
}

void SpanExportCore::fail(std::string message) {
  if (failure_.empty()) failure_ = std::move(message);
}

Status SpanExportCore::status() const {
  if (!failure_.empty()) return Status::error(failure_);
  if (!out_->good()) {
    return Status::error(std::string(format_) + " export: write failed");
  }
  return Status::ok();
}

Status SpanExportCore::finish(std::string_view close,
                              std::string_view extra_metadata) {
  const double period_us =
      correlator_.ticks_to_us(sample_period_.period_ticks());
  warnings_ = correlation_warnings(correlator_, period_us);

  std::string line(close);
  line += "\"metadata\":{\"exporter\":\"tempest-export\","
          "\"trace_format_version\":";
  fastwrite::append_u64(line, trace::kTraceVersion);
  line += ",\"base_tsc\":";
  fastwrite::append_u64(line, correlator_.base());
  line += ",\"clock_correlation\":{\"ranks\":[";
  bool first = true;
  for (const RankClock& rank : correlator_.ranks()) {
    if (!first) line += ",";
    first = false;
    line += "{\"node_id\":";
    fastwrite::append_u64(line, rank.node_id);
    line += ",\"syncs\":";
    fastwrite::append_u64(line, rank.sync_count);
    line += ",\"skew_us\":";
    fastwrite::append_fixed(line, rank.skew_us, 3);
    line += ",\"drift_ppm\":";
    fastwrite::append_fixed(line, rank.drift_ppm, 3);
    line += ",\"residual_us\":";
    fastwrite::append_fixed(line, rank.residual_us, 3);
    line += "}";
  }
  line += "],\"max_residual_us\":";
  fastwrite::append_fixed(line, correlator_.max_residual_us(), 3);
  line += ",\"sample_period_us\":";
  fastwrite::append_fixed(line, period_us, 3);
  line += ",\"residual_exceeds_sample_period\":";
  line += warnings_.empty() ? "false" : "true";
  line += "},\"export_stats\":{\"events_exported\":";
  fastwrite::append_u64(line, stats_.events_exported);
  line += ",\"spans_dropped\":";
  fastwrite::append_u64(line, stats_.spans_dropped);
  line += ",\"spans_force_closed\":";
  fastwrite::append_u64(line, stats_.spans_force_closed);
  line += "}";
  line += extra_metadata;
  line += "}}\n";
  write(line);

  writer_.flush();
  out_->flush();
  stats_.bytes_written = writer_.bytes_written();
  const Status written = status();
  if (written) publish_export_telemetry(stats_);
  return written;
}

}  // namespace tempest::exporter
