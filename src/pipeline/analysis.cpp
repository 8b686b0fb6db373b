#include "pipeline/analysis.hpp"

#include <algorithm>
#include <utility>

#include "common/fastwrite.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"

namespace tempest::pipeline {

AnalysisPipeline::AnalysisPipeline(AnalysisOptions options)
    : options_(std::move(options)), assembler_(options_.profile) {}

void AnalysisPipeline::set_metadata(const TraceMeta& meta) {
  meta_ = meta;
  if (!options_.exe_override.empty()) meta_.executable = options_.exe_override;
  // Only the series' span functions keep activation intervals.
  timeline_.emplace(meta_.threads, options_.timeline_hint,
                    std::max(1u, options_.threads),
                    options_.want_series
                        ? report::span_filter(meta_, options_.span_functions)
                        : parser::SpanFilter{});
  assembler_.set_metadata(meta_);
}

void AnalysisPipeline::add_fn_events(const trace::FnEvent* events, std::size_t n) {
  if (n == 0) return;
  // Batches are time-sorted per kind, so the ends bound the batch.
  if (!any_records_ || events[0].tsc < start_tsc_) start_tsc_ = events[0].tsc;
  if (!any_records_ || events[n - 1].tsc > end_tsc_) end_tsc_ = events[n - 1].tsc;
  any_records_ = true;
  any_events_ = true;
  timeline_->add_events(events, n);
}

Status AnalysisPipeline::add_temp_samples(const trace::TempSample* samples,
                                          std::size_t n) {
  if (n == 0) return Status::ok();
  if (options_.thermal) {
    if (any_events_) {
      return Status::error(
          "temperature samples arrived after fn events: the analysis fold credits "
          "samples while it replays the events, so every sample must come first");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (samples[i].tsc < last_sample_tsc_) {
        return Status::error(
            "temperature sample at tsc " + std::to_string(samples[i].tsc) +
            " arrived after one at tsc " + std::to_string(last_sample_tsc_) +
            ": the analysis fold needs samples in time order");
      }
      last_sample_tsc_ = samples[i].tsc;
    }
  }
  if (!any_records_ || samples[0].tsc < start_tsc_) start_tsc_ = samples[0].tsc;
  if (!any_records_ || samples[n - 1].tsc > end_tsc_) end_tsc_ = samples[n - 1].tsc;
  any_records_ = true;
  // Calls and time only: samples just bound the run.
  if (!options_.thermal) return Status::ok();
  timeline_->add_samples(samples, n);
  assembler_.add_samples(samples, n);
  return Status::ok();
}

AnalysisResult AnalysisPipeline::finish(const symtab::Resolver* resolver) {
  if (!timeline_) set_metadata(meta_);  // no metadata seen: empty run

  parser::TimelineDiagnostics diag;
  const parser::TimelineMap timeline = timeline_->finish(end_tsc_, &diag);
  timeline_.reset();  // spent: free the fold state before assembly

  // Symbolise every distinct address exactly as parse_trace does:
  // synthetic names win, then the ELF resolver, then hex.
  std::optional<symtab::Resolver> own_resolver;
  if (resolver == nullptr && !meta_.executable.empty()) {
    auto built =
        symtab::Resolver::for_executable(meta_.executable, meta_.load_bias);
    if (built.is_ok()) {
      own_resolver.emplace(std::move(built).value());
      resolver = &*own_resolver;
    }
  }

  std::vector<std::pair<std::uint64_t, std::string>> names;
  names.reserve(timeline.size() + meta_.synthetic_symbols.size());
  for (const auto& s : meta_.synthetic_symbols) names.emplace_back(s.addr, s.name);
  for (const auto& [key, fa] : timeline) {
    if (fa.addr >= trace::kSyntheticAddrBase) continue;
    if (resolver != nullptr) {
      names.emplace_back(fa.addr, resolver->resolve(fa.addr));
    } else {
      std::string hex = "0x";
      fastwrite::append_hex(hex, fa.addr);
      names.emplace_back(fa.addr, std::move(hex));
    }
  }

  AnalysisResult result;
  result.run_stats = meta_.run_stats;
  result.profile = assembler_.assemble(start_tsc_, end_tsc_, timeline, names, diag);
  if (options_.want_series) {
    result.series =
        report::build_series(meta_, assembler_.samples(), start_tsc_, end_tsc_,
                             options_.profile.unit, options_.span_functions,
                             &timeline);
    result.has_series = true;
  }
  return result;
}

Result<AnalysisResult> analyze_trace(const trace::Trace& trace,
                                     AnalysisOptions options,
                                     const symtab::Resolver* resolver, bool align) {
  options.timeline_hint =
      std::min(trace.fn_events.size() / 8 + 16, std::size_t{1} << 16);
  TraceInput input;
  input.open(trace, align);
  AnalysisSink sink(std::move(options), {}, resolver);
  const Status ran = input.run({&sink});
  if (!ran) return Result<AnalysisResult>::error(ran.message());
  return std::move(sink.result());
}

}  // namespace tempest::pipeline
