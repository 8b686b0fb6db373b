// Batch sinks: analysis fold, report emitters, and a record counter.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/analysis.hpp"
#include "pipeline/stage.hpp"
#include "report/ascii_plot.hpp"
#include "report/stdout_format.hpp"

namespace tempest::pipeline {

/// Consumes a finished AnalysisResult — the adapter between the
/// streaming fold and the report writers (text/json/csv/plot/gnuplot).
class ProfileEmitter {
 public:
  virtual ~ProfileEmitter() = default;
  virtual Status emit(const AnalysisResult& result) = 0;
};

/// The paper's Fig 2a standard output.
class TextEmitter : public ProfileEmitter {
 public:
  TextEmitter(std::ostream& out, report::StdoutOptions options = {})
      : out_(&out), options_(options) {}
  Status emit(const AnalysisResult& result) override;

 private:
  std::ostream* out_;
  report::StdoutOptions options_;
};

/// Full profile dump as one JSON object.
class JsonEmitter : public ProfileEmitter {
 public:
  explicit JsonEmitter(std::ostream& out) : out_(&out) {}
  Status emit(const AnalysisResult& result) override;

 private:
  std::ostream* out_;
};

/// Thermal time series as CSV. Needs AnalysisOptions::want_series.
class CsvSeriesEmitter : public ProfileEmitter {
 public:
  explicit CsvSeriesEmitter(std::ostream& out) : out_(&out) {}
  Status emit(const AnalysisResult& result) override;

 private:
  std::ostream* out_;
};

/// ASCII thermal profile (Fig 2b style). Needs want_series.
class AsciiPlotEmitter : public ProfileEmitter {
 public:
  AsciiPlotEmitter(std::ostream& out, report::PlotOptions options = {})
      : out_(&out), options_(std::move(options)) {}
  Status emit(const AnalysisResult& result) override;

 private:
  std::ostream* out_;
  report::PlotOptions options_;
};

/// PREFIX.dat + PREFIX.gp gnuplot pair. Needs want_series.
class GnuplotEmitter : public ProfileEmitter {
 public:
  explicit GnuplotEmitter(std::string prefix) : prefix_(std::move(prefix)) {}
  Status emit(const AnalysisResult& result) override;

 private:
  std::string prefix_;
};

/// Folds the batch stream through an AnalysisPipeline, then fans the
/// finished result out to the emitters in order. The result stays
/// available afterwards for callers that want more than the emitters
/// produce (diagnostics, exit codes).
class AnalysisSink : public BatchSink {
 public:
  explicit AnalysisSink(AnalysisOptions options = {},
                        std::vector<ProfileEmitter*> emitters = {},
                        const symtab::Resolver* resolver = nullptr)
      : pipeline_(std::move(options)),
        emitters_(std::move(emitters)),
        resolver_(resolver) {}

  Status begin(const TraceMeta& meta) override;
  Status on_batch(const TraceMeta& meta, const EventBatch& batch) override;
  Status on_end(const TraceMeta& meta) override;

  /// Valid after a successful on_end.
  const AnalysisResult& result() const { return result_; }
  AnalysisResult& result() { return result_; }

 private:
  AnalysisPipeline pipeline_;
  std::vector<ProfileEmitter*> emitters_;
  const symtab::Resolver* resolver_;
  AnalysisResult result_;
};

/// Counts records and batches; the bench harness's no-op consumer
/// (isolates source/stage throughput from analysis cost).
class CountingSink : public BatchSink {
 public:
  Status on_batch(const TraceMeta& meta, const EventBatch& batch) override;

  std::uint64_t fn_events() const { return fn_events_; }
  std::uint64_t temp_samples() const { return temp_samples_; }
  std::uint64_t batches() const { return batches_; }

 private:
  std::uint64_t fn_events_ = 0;
  std::uint64_t temp_samples_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace tempest::pipeline
