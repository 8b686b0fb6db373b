#include "export/run.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "export/perfetto.hpp"
#include "export/speedscope.hpp"
#include "pipeline/source.hpp"

namespace tempest::exporter {

bool parse_format(const std::string& name, Format* format) {
  if (name == "perfetto" || name == "chrome") {
    *format = Format::kPerfetto;
    return true;
  }
  if (name == "speedscope") {
    *format = Format::kSpeedscope;
    return true;
  }
  return false;
}

Result<ExportRunResult> run_export(const std::vector<std::string>& paths,
                                   std::ostream& out,
                                   const ExportRunOptions& options) {
  namespace pipeline = tempest::pipeline;
  using Out = Result<ExportRunResult>;

  if (paths.empty()) return Out::error("no trace file given");
  if (options.format == Format::kSpeedscope && options.spool_prefix.empty()) {
    return Out::error("speedscope export needs a spool prefix");
  }

  pipeline::TraceInput input;
  const Status opened = input.open(paths, options.align, options.threads);
  if (!opened) return Out::error(opened.message());

  const pipeline::TraceMeta& meta = input.meta();
  ExportRunResult result;

  std::optional<symtab::Resolver> resolver;
  const symtab::Resolver* resolver_ptr = nullptr;
  if (options.symbolize) {
    const std::string& exe =
        options.exe_override.empty() ? meta.executable : options.exe_override;
    if (!exe.empty()) {
      auto built = symtab::Resolver::for_executable(exe, meta.load_bias);
      if (built.is_ok()) {
        resolver.emplace(std::move(built).value());
        resolver_ptr = &*resolver;
      } else {
        result.warnings.push_back("symbolization unavailable (" +
                                  built.message() +
                                  "); addresses render as hex");
      }
    }
  }

  ClockCorrelator correlator(meta.tsc_ticks_per_second, input.syncs());

  std::optional<PerfettoExporter> perfetto;
  std::optional<SpeedscopeExporter> speedscope;
  SpanExportCore* exporter = nullptr;
  if (options.format == Format::kPerfetto) {
    perfetto.emplace(out, std::move(correlator), resolver_ptr);
    if (!options.annotations.empty()) {
      perfetto->set_annotations(options.annotations);
    }
    exporter = &*perfetto;
  } else {
    speedscope.emplace(out, std::move(correlator), options.spool_prefix,
                       resolver_ptr);
    if (!options.annotations.empty()) {
      result.warnings.push_back(
          "diff annotations are perfetto-only; speedscope output unmarked");
    }
    exporter = &*speedscope;
  }

  const Status ran = input.run({exporter});
  if (!ran) return Out::error(ran.message());

  result.stats = exporter->stats();
  result.warnings.insert(result.warnings.end(), exporter->warnings().begin(),
                         exporter->warnings().end());
  return Out(std::move(result));
}

}  // namespace tempest::exporter
