#include <chrono>

#include "pipeline/stage.hpp"
#include "telemetry/metrics.hpp"

namespace tempest::pipeline {
namespace {

/// Wall time of one stage/sink call, fed to the shared stage-wall
/// histogram. steady_clock, not rdtsc: analysis-side code migrates
/// across cores freely and runs long enough for clock_gettime to be
/// noise.
class StageTimer {
 public:
  StageTimer() : start_(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    telemetry::observe(telemetry::Histogram::kStageWallUs,
                       static_cast<double>(us.count()));
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Status run_pipeline(Source* source, const std::vector<Stage*>& stages,
                    const std::vector<BatchSink*>& sinks) {
  const TraceMeta& meta = source->meta();
  for (BatchSink* sink : sinks) {
    const Status began = sink->begin(meta);
    if (!began) return began;
  }
  EventBatch batch;
  bool done = false;
  while (!done) {
    batch.clear();
    const Status produced = source->next(&batch, &done);
    if (!produced) return produced;
    if (batch.empty() && !done) continue;
    // The empty batch that only ends the stream counts nothing.
    telemetry::count(telemetry::Counter::kPipelineBatches, batch.empty() ? 0 : 1);
    telemetry::count(telemetry::Counter::kPipelineFnEvents, batch.fn_events.size());
    telemetry::count(telemetry::Counter::kPipelineTempSamples,
                     batch.temp_samples.size());
    batch.end_of_stream = done;
    for (Stage* stage : stages) {
      StageTimer timer;
      const Status staged = stage->process(meta, &batch);
      if (!staged) return staged;
    }
    if (batch.empty()) continue;  // every record held back, or none left
    for (BatchSink* sink : sinks) {
      StageTimer timer;
      const Status consumed = sink->on_batch(meta, batch);
      if (!consumed) return consumed;
    }
  }
  for (BatchSink* sink : sinks) {
    StageTimer timer;
    const Status ended = sink->on_end(meta);
    if (!ended) return ended;
  }
  // End-of-run memory checkpoint: the analysis tools assert bounded
  // memory against this.
  telemetry::gauge_set(telemetry::Gauge::kPeakRssKb,
                       telemetry::read_peak_rss_kb());
  return Status::ok();
}

}  // namespace tempest::pipeline
