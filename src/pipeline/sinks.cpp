#include "pipeline/sinks.hpp"

#include <fstream>

#include "report/gnuplot.hpp"
#include "report/json.hpp"
#include "report/series.hpp"

namespace tempest::pipeline {

Status TextEmitter::emit(const AnalysisResult& result) {
  report::print_profile(*out_, result.profile, options_);
  report::print_run_stats(*out_, result.run_stats);  // no-op when absent
  return Status::ok();
}

Status JsonEmitter::emit(const AnalysisResult& result) {
  report::write_profile_json(*out_, result.profile, &result.run_stats);
  *out_ << "\n";
  return Status::ok();
}

Status CsvSeriesEmitter::emit(const AnalysisResult& result) {
  if (!result.has_series) {
    return Status::error("csv output needs a series (AnalysisOptions::want_series)");
  }
  report::write_series_csv(*out_, result.series);
  return Status::ok();
}

Status AsciiPlotEmitter::emit(const AnalysisResult& result) {
  if (!result.has_series) {
    return Status::error("plot output needs a series (AnalysisOptions::want_series)");
  }
  report::plot_series(*out_, result.series, options_);
  return Status::ok();
}

Status GnuplotEmitter::emit(const AnalysisResult& result) {
  if (!result.has_series) {
    return Status::error(
        "gnuplot output needs a series (AnalysisOptions::want_series)");
  }
  const std::string dat_path = prefix_ + ".dat";
  std::ofstream dat(dat_path);
  if (!dat) return Status::error("cannot write " + dat_path);
  report::write_series_gnuplot_data(dat, result.series);
  const std::string gp_path = prefix_ + ".gp";
  std::ofstream gp(gp_path);
  if (!gp) return Status::error("cannot write " + gp_path);
  report::write_series_gnuplot_script(gp, result.series, dat_path,
                                      prefix_ + ".png");
  return Status::ok();
}

Status AnalysisSink::begin(const TraceMeta& meta) {
  pipeline_.set_metadata(meta);
  return Status::ok();
}

Status AnalysisSink::on_batch(const TraceMeta& /*meta*/, const EventBatch& batch) {
  const Status added =
      pipeline_.add_temp_samples(batch.temp_samples.data(), batch.temp_samples.size());
  if (added) pipeline_.add_fn_events(batch.fn_events.data(), batch.fn_events.size());
  return added;
}

Status AnalysisSink::on_end(const TraceMeta& /*meta*/) {
  result_ = pipeline_.finish(resolver_);
  for (ProfileEmitter* emitter : emitters_) {
    const Status emitted = emitter->emit(result_);
    if (!emitted) return emitted;
  }
  return Status::ok();
}

Status CountingSink::on_batch(const TraceMeta& /*meta*/, const EventBatch& batch) {
  fn_events_ += batch.fn_events.size();
  temp_samples_ += batch.temp_samples.size();
  ++batches_;
  return Status::ok();
}

}  // namespace tempest::pipeline
