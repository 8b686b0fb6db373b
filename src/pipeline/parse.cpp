// Batch entry points, rebuilt as thin wrappers over the streaming
// pipeline. parse_trace prepares the in-memory trace exactly as before
// (align or sort) and then folds it through AnalysisPipeline — the same
// consumer core the streaming sources feed — so both paths produce
// bit-identical profiles by construction.
#include "parser/parse.hpp"

#include "pipeline/analysis.hpp"
#include "trace/align.hpp"
#include "trace/reader.hpp"

namespace tempest::parser {

Result<RunProfile> parse_trace(trace::Trace trace, const ParseOptions& options,
                               const symtab::Resolver* resolver) {
  if (options.align_clocks) {
    const Status aligned = trace::align_clocks(&trace);
    if (!aligned) return Result<RunProfile>::error(aligned.message());
  } else {
    trace.sort_by_time();
  }

  pipeline::AnalysisOptions fold_options;
  fold_options.profile = options.profile;
  return std::move(pipeline::analyze_trace(trace, std::move(fold_options), resolver).profile);
}

Result<RunProfile> parse_trace_file(const std::string& path,
                                    const ParseOptions& options) {
  auto loaded = trace::read_trace_file(path);
  if (!loaded.is_ok()) return Result<RunProfile>::error(loaded.message());
  return parse_trace(std::move(loaded).value(), options);
}

}  // namespace tempest::parser
