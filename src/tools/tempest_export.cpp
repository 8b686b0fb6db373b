// Interactive trace export: recorded Tempest traces -> timeline files
// that open directly in Perfetto / chrome://tracing or speedscope.
//
//   tempest-export [options] <trace file>...
//     --format perfetto|speedscope
//                       output format (default perfetto; "chrome" is an
//                       alias for perfetto)
//     --out FILE        output path; default <first trace>.<format>.json,
//                       "-" writes to standard output
//     --merge-ranks     required to fan-in several per-rank trace files
//                       into one cross-rank timeline (clock-correlated)
//     --stream          accepted for compatibility; changes nothing —
//                       every export streams in bounded memory
//     --threads N       worker threads for decode/read-ahead
//                       (default hardware concurrency, or the
//                       TEMPEST_ANALYSIS_THREADS env var); output is
//                       byte-identical at any N
//     --no-align        skip cross-node clock alignment (diagnostics)
//     --no-symbolize    render raw addresses instead of symbol names
//     --exe PATH        symbolise against PATH instead of the recorded
//                       executable path
//     --version         print tool and trace-format version
//
// Multi-rank: pass one trace per rank with --merge-ranks. Ranks merge
// by aligned global time; the output's metadata section reports each
// rank's clock skew, drift, and fit residual, and the tool warns when
// the residual exceeds the temperature sample period (cross-rank
// attribution would smear). A telemetry snapshot is appended to
// <out>.telemetry.jsonl so `tempest-top --once` can show export runs.
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "export/run.hpp"
#include "telemetry/metrics.hpp"
#include "trace/writer.hpp"

namespace {

constexpr const char* kUsage =
    "[--format perfetto|speedscope] [--out FILE] [--merge-ranks]\n"
    "       [--stream] [--threads N] [--no-align] [--no-symbolize]\n"
    "       [--exe PATH] [--version] <trace file>...";

int fail_usage(const tempest::cli::ArgParser& args, const char* argv0,
               const std::string& message) {
  if (!message.empty()) std::cerr << "tempest-export: " << message << "\n";
  args.print_usage(std::cerr, argv0);
  return 2;
}

/// One flat snapshot line, same shape as the recorder's heartbeat
/// sidecar, so tempest-top can render what an export run did.
void write_telemetry_sidecar(const std::string& out_path) {
  std::ofstream side(out_path + ".telemetry.jsonl",
                     std::ios::app | std::ios::binary);
  if (!side.is_open()) return;  // best effort: telemetry never fails a run
  tempest::telemetry::write_snapshot_json(
      side, tempest::telemetry::metrics().snapshot(), 0.0);
  side << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using tempest::Status;
  namespace cli = tempest::cli;
  namespace exporter = tempest::exporter;

  exporter::ExportRunOptions options;
  options.threads = cli::default_analysis_threads();
  std::string out_path;
  bool merge_ranks = false, version = false;

  cli::ArgParser args(kUsage);
  args.add_value("--format", [&](const std::string& v) {
    if (!exporter::parse_format(v, &options.format)) {
      return Status::error("unknown format '" + v +
                           "' (use perfetto or speedscope)");
    }
    return Status::ok();
  });
  args.add_value("--out", [&](const std::string& v) {
    out_path = v;
    return Status::ok();
  });
  args.add_flag("--merge-ranks", [&] { merge_ranks = true; });
  args.add_flag("--stream", [] {});  // every export streams
  args.add_value("--threads", [&](const std::string& v) {
    return cli::parse_threads(v, &options.threads);
  });
  args.add_flag("--no-align", [&] { options.align = false; });
  args.add_flag("--no-symbolize", [&] { options.symbolize = false; });
  args.add_value("--exe", [&](const std::string& v) {
    options.exe_override = v;
    return Status::ok();
  });
  args.add_flag("--version", [&] { version = true; });

  const Status parsed = args.parse(argc, argv);
  if (!parsed) return fail_usage(args, argv[0], parsed.message());
  if (version) {
    cli::print_version(std::cout, "tempest-export",
                       tempest::trace::kTraceVersion);
    return 0;
  }
  if (args.help_requested()) return fail_usage(args, argv[0], "");
  const std::vector<std::string>& paths = args.positional();
  if (paths.empty()) return fail_usage(args, argv[0], "no trace file given");
  if (paths.size() > 1 && !merge_ranks) {
    return fail_usage(args, argv[0],
                      "several trace files given; pass --merge-ranks to "
                      "fan them into one cross-rank timeline");
  }

  const char* format_name =
      options.format == exporter::Format::kPerfetto ? "perfetto"
                                                    : "speedscope";
  if (out_path.empty()) {
    out_path = paths[0] + "." + format_name + ".json";
  }
  const bool to_stdout = out_path == "-";
  options.spool_prefix =
      to_stdout ? "/tmp/tempest-export." + std::to_string(getpid())
                : out_path;

  std::ofstream file_out;
  if (!to_stdout) {
    file_out.open(out_path, std::ios::binary | std::ios::trunc);
    if (!file_out.is_open()) {
      std::cerr << "tempest-export: cannot open " << out_path
                << " for writing\n";
      return 1;
    }
  }
  std::ostream& out = to_stdout ? std::cout : file_out;

  auto ran = exporter::run_export(paths, out, options);
  if (!ran.is_ok()) {
    std::cerr << "tempest-export: " << ran.message() << "\n";
    return 1;
  }
  const exporter::ExportRunResult& result = ran.value();
  for (const std::string& warning : result.warnings) {
    std::cerr << "tempest-export: warning: " << warning << "\n";
  }
  if (!to_stdout) {
    write_telemetry_sidecar(out_path);
    std::cerr << "wrote " << out_path << " (" << format_name << ", "
              << result.stats.events_exported << " events, "
              << result.stats.bytes_written << " bytes)\n";
    if (result.stats.spans_dropped > 0 ||
        result.stats.spans_force_closed > 0) {
      std::cerr << "note: " << result.stats.spans_dropped
                << " unmatched exits dropped, "
                << result.stats.spans_force_closed
                << " spans force-closed\n";
    }
  }
  return 0;
}
