// The Tempest parser as a standalone command-line tool.
//
// Post-processing step of the paper's workflow: "run their code, and
// invoke the Tempest parser for post processing. By default, Tempest
// writes data to the standard output, but data can be dumped to a file
// in a variety of formats."
//
//   tempest_parse [options] <trace file>...
//     --unit C|F          report unit (default F, the paper's choice)
//     --format text|csv|json
//                         text  = the Fig 2a standard output (default)
//                         csv   = thermal time series
//                         json  = full profile dump
//     --plot [SENSOR]     append an ASCII thermal profile (Fig 2b style);
//                         optional sensor-name filter
//     --span FUNCTION     mark FUNCTION's execution spans on plots/CSV
//                         (repeatable)
//     --min-samples N     significance threshold (default 2)
//     --top N             print at most N functions per node
//     --gnuplot PREFIX    write PREFIX.dat + PREFIX.gp (render with
//                         `gnuplot PREFIX.gp` -> profile.png)
//     --stream            accepted for compatibility; changes nothing —
//                         every run streams in bounded memory
//     --threads N         worker threads for decode + analysis (default
//                         hardware concurrency, TEMPEST_ANALYSIS_THREADS
//                         overrides); output is byte-identical at any N,
//                         --threads 1 is the historical serial path
//     --no-align          skip cross-node clock alignment (diagnostics)
//     --exe PATH          symbolise against PATH instead of the path
//                         recorded in the trace
//     --export FORMAT     emit an interactive timeline instead of a
//                         profile: perfetto (Chrome trace-event JSON,
//                         open at ui.perfetto.dev) or speedscope;
//                         honours --threads / --no-align / --exe and
//                         writes to standard output
//     --version           print tool and trace-format version
//
// Every run streams in bounded memory. Passing several trace files (one
// per MPI rank) fan-ins them in a single pass: headers and trailers are
// joined, clocks are fitted from every file's sync records, and records
// merge by aligned global time (recorded time with --no-align) — the
// paper's parallel-hot-spot workflow without concatenating the files
// first.
#include <unistd.h>

#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "export/run.hpp"
#include "pipeline/sinks.hpp"
#include "pipeline/source.hpp"
#include "report/ascii_plot.hpp"
#include "report/stdout_format.hpp"
#include "trace/writer.hpp"

namespace {

constexpr const char* kUsage =
    "[--unit C|F] [--format text|csv|json] [--plot [SENSOR]]\n"
    "       [--span FUNCTION]... [--min-samples N] [--top N] [--gnuplot PREFIX]\n"
    "       [--stream] [--threads N] [--no-align] [--exe PATH]\n"
    "       [--export FORMAT] [--version] <trace file>...";

int fail_usage(const tempest::cli::ArgParser& args, const char* argv0,
               const std::string& message) {
  if (!message.empty()) std::cerr << "tempest_parse: " << message << "\n";
  args.print_usage(std::cerr, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using tempest::Status;
  namespace cli = tempest::cli;
  namespace pipeline = tempest::pipeline;

  std::string format = "text", plot_sensor, exe_override, gnuplot_prefix;
  std::string export_format;
  std::vector<std::string> span_functions;
  bool plot = false, align = true, version = false;
  tempest::parser::ProfileOptions profile_options;
  std::size_t top = 0;
  unsigned threads = cli::default_analysis_threads();

  cli::ArgParser args(kUsage);
  args.add_value("--unit", [&](const std::string& v) {
    if (!tempest::parse_temp_unit(v.c_str(), &profile_options.unit)) {
      return Status::error("bad unit '" + v + "' (use C or F)");
    }
    return Status::ok();
  });
  args.add_value("--format", [&](const std::string& v) {
    if (v != "text" && v != "csv" && v != "json") {
      return Status::error("unknown format '" + v + "'");
    }
    format = v;
    return Status::ok();
  });
  args.add_optional_value("--plot", [&](const std::string* v) {
    plot = true;
    if (v != nullptr) plot_sensor = *v;
  });
  args.add_value("--span", [&](const std::string& v) {
    span_functions.push_back(v);
    return Status::ok();
  });
  args.add_value("--min-samples", [&](const std::string& v) {
    return cli::parse_size(v, &profile_options.min_samples_significant);
  });
  args.add_value("--top", [&](const std::string& v) {
    return cli::parse_size(v, &top);
  });
  args.add_value("--gnuplot", [&](const std::string& v) {
    gnuplot_prefix = v;
    return Status::ok();
  });
  args.add_flag("--stream", [] {});  // every run streams
  args.add_value("--threads", [&](const std::string& v) {
    return cli::parse_threads(v, &threads);
  });
  args.add_flag("--no-align", [&] { align = false; });
  args.add_value("--exe", [&](const std::string& v) {
    exe_override = v;
    return Status::ok();
  });
  args.add_value("--export", [&](const std::string& v) {
    tempest::exporter::Format probe;
    if (!tempest::exporter::parse_format(v, &probe)) {
      return Status::error("unknown export format '" + v +
                           "' (use perfetto or speedscope)");
    }
    export_format = v;
    return Status::ok();
  });
  args.add_flag("--version", [&] { version = true; });

  const Status parsed = args.parse(argc, argv);
  if (!parsed) return fail_usage(args, argv[0], parsed.message());
  if (version) {
    cli::print_version(std::cout, "tempest_parse",
                       tempest::trace::kTraceVersion);
    return 0;
  }
  if (args.help_requested()) return fail_usage(args, argv[0], "");
  const std::vector<std::string>& paths = args.positional();
  if (paths.empty()) return fail_usage(args, argv[0], "no trace file given");

  if (!export_format.empty()) {
    // Timeline export replaces the profile emitters entirely.
    tempest::exporter::ExportRunOptions export_options;
    tempest::exporter::parse_format(export_format, &export_options.format);
    export_options.align = align;
    export_options.exe_override = exe_override;
    export_options.threads = threads;
    export_options.spool_prefix =
        "/tmp/tempest_parse." + std::to_string(getpid());
    auto exported =
        tempest::exporter::run_export(paths, std::cout, export_options);
    if (!exported.is_ok()) {
      std::cerr << "tempest_parse: " << exported.message() << "\n";
      return 1;
    }
    for (const std::string& warning : exported.value().warnings) {
      std::cerr << "tempest_parse: warning: " << warning << "\n";
    }
    return 0;
  }

  pipeline::AnalysisOptions analysis_options;
  analysis_options.profile = profile_options;
  analysis_options.exe_override = exe_override;
  analysis_options.want_series =
      format == "csv" || plot || !gnuplot_prefix.empty();
  analysis_options.span_functions = span_functions;
  analysis_options.threads = threads;

  // Primary format first, then the plot / gnuplot add-ons.
  std::vector<std::unique_ptr<pipeline::ProfileEmitter>> owned;
  tempest::report::StdoutOptions stdout_options;
  stdout_options.max_functions = top;
  tempest::report::PlotOptions plot_options;
  plot_options.sensor_filter = plot_sensor;
  if (format == "text") {
    owned.push_back(
        std::make_unique<pipeline::TextEmitter>(std::cout, stdout_options));
  } else if (format == "csv") {
    owned.push_back(std::make_unique<pipeline::CsvSeriesEmitter>(std::cout));
  } else {
    owned.push_back(std::make_unique<pipeline::JsonEmitter>(std::cout));
  }
  if (plot) {
    owned.push_back(
        std::make_unique<pipeline::AsciiPlotEmitter>(std::cout, plot_options));
  }
  if (!gnuplot_prefix.empty()) {
    owned.push_back(std::make_unique<pipeline::GnuplotEmitter>(gnuplot_prefix));
  }
  std::vector<pipeline::ProfileEmitter*> emitters;
  emitters.reserve(owned.size());
  for (const auto& e : owned) emitters.push_back(e.get());

  pipeline::TraceInput input;
  pipeline::AnalysisSink sink(analysis_options, emitters);
  Status ran = input.open(paths, align, threads);
  if (ran) ran = input.run({&sink});
  if (!ran) {
    std::cerr << "tempest_parse: " << ran.message() << "\n";
    return 1;
  }
  const tempest::parser::RunProfile& profile = sink.result().profile;

  if (!gnuplot_prefix.empty()) {
    std::cerr << "wrote " << gnuplot_prefix << ".dat and " << gnuplot_prefix
              << ".gp\n";
  }
  if (profile.diagnostics.unmatched_exits > 0 ||
      profile.diagnostics.force_closed > 0) {
    std::cerr << "note: " << profile.diagnostics.unmatched_exits
              << " unmatched exits, " << profile.diagnostics.force_closed
              << " functions force-closed at trace end\n";
  }
  return 0;
}
