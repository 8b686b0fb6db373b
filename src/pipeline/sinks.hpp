// Batch sinks: analysis fold, lint fold, and report emitters.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
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

/// Runs the invariant checker over the stream; the report is available
/// after on_end. Note: sources consume clock syncs during alignment, so
/// a LintSink downstream of a fan-in or align stage lints the merged,
/// aligned stream — to lint a raw file as tempest-lint does, use
/// lint_trace_file, which shares LintEngine.
class LintSink : public BatchSink {
 public:
  explicit LintSink(analysis::LintOptions options = {}) : options_(options) {}

  Status begin(const TraceMeta& meta) override;
  Status on_batch(const TraceMeta& meta, const EventBatch& batch) override;
  Status on_end(const TraceMeta& meta) override;

  /// Valid after a successful on_end.
  const analysis::LintReport& report() const { return report_; }

 private:
  analysis::LintOptions options_;
  std::optional<analysis::LintEngine> engine_;
  analysis::LintReport report_;
};

/// Counts records and batches; the bench harness's no-op consumer
/// (isolates source/stage throughput from analysis cost).
class CountingSink : public BatchSink {
 public:
  Status on_batch(const TraceMeta& meta, const EventBatch& batch) override;

  std::uint64_t fn_events() const { return fn_events_; }
  std::uint64_t temp_samples() const { return temp_samples_; }
  std::uint64_t clock_syncs() const { return clock_syncs_; }
  std::uint64_t batches() const { return batches_; }

 private:
  std::uint64_t fn_events_ = 0;
  std::uint64_t temp_samples_ = 0;
  std::uint64_t clock_syncs_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace tempest::pipeline
