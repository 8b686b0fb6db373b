// The parser entry point, a thin wrapper over the one analysis path:
// parse_trace folds a raw in-memory trace through analyze_trace. Files
// stream through pipeline::TraceInput.
#include "parser/parse.hpp"

#include "pipeline/analysis.hpp"

namespace tempest::parser {

Result<RunProfile> parse_trace(const trace::Trace& trace, const ParseOptions& options,
                               const symtab::Resolver* resolver) {
  pipeline::AnalysisOptions fold_options;
  fold_options.profile = options.profile;
  auto analyzed = pipeline::analyze_trace(trace, std::move(fold_options), resolver,
                                          options.align_clocks);
  if (!analyzed.is_ok()) return Result<RunProfile>::error(analyzed.message());
  return std::move(analyzed).value().profile;
}

}  // namespace tempest::parser
