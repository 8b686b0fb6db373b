// tempest-diff: what changed between runs.
//
// The profiles answer "where is this run hot"; continuous profiling
// asks "what changed since the last one". tempest-diff aligns two
// analyzed profiles by function (symbol name, address fallback,
// FLTR-filter tolerant), scores every delta with a Welch-style t
// statistic over the Sdv/Var stats the paper mandates, and ranks
// significant regressions/improvements. Functions without enough
// activations for a spread estimate (main, one-shot phases) are
// reported but never ranked — which keeps leaf culprits on top.
//
//   tempest-diff [options] BASELINE.trace CURRENT.trace
//     --format text|json   ranking output (default text)
//     --confidence X       rank only deltas at confidence >= X (0.95)
//     --min-time-delta S   ignore |total time| deltas below S seconds
//     --min-rel-change F   ignore relative changes below F (default 0.01)
//     --min-temp-delta D   sensor-average floor, display units (0.1)
//     --unit C|F           temperature unit (default F)
//     --min-samples N      thermal significance threshold (default 2)
//     --per-node           align per (node, function) instead of pooled
//     --no-align           skip clock alignment on both inputs
//     --exe PATH           symbolise against PATH
//     --threads N          analysis workers per input (default 1)
//     --perfetto OUT       also re-export the baseline trace to OUT with
//                          ranked findings marked (instants + metadata)
//     --fail-on-regression exit 4 when any regression ranks
//
//   tempest-diff --trend [options] RUN1 RUN2 RUN3...
//   tempest-diff --trend --trend-dir DIR
//   tempest-diff --trend --poll ENDPOINT [--interval S] [--count N]
//     --interval S         seconds between polls (default 1; 0 < S <= 1e9)
//     --top N              keep top-N functions per run (0 = all)
//     emits schema-versioned JSONL: a header line, then one series
//     entry per run per surviving function (DESIGN.md §15).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "diff/diff.hpp"
#include "diff/trend.hpp"
#include "export/run.hpp"
#include "trace/writer.hpp"

namespace {

constexpr const char* kUsage =
    "[--format text|json] [--confidence X] [--min-time-delta S]\n"
    "       [--min-rel-change F] [--min-temp-delta D] [--unit C|F]\n"
    "       [--min-samples N] [--per-node] [--no-align] [--exe PATH]\n"
    "       [--threads N] [--perfetto OUT] [--fail-on-regression]\n"
    "       [--version] BASELINE CURRENT\n"
    "       --trend [--top N] RUN1 RUN2 RUN3... | --trend-dir DIR |\n"
    "       --poll ENDPOINT [--interval S] [--count N]\n"
    "       S is a duration in seconds, 0 < S <= 1e9";

int fail_usage(const tempest::cli::ArgParser& args, const char* argv0,
               const std::string& message) {
  if (!message.empty()) std::cerr << "tempest-diff: " << message << "\n";
  args.print_usage(std::cerr, argv0);
  return 2;
}

int fail(const std::string& message) {
  std::cerr << "tempest-diff: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using tempest::Status;
  namespace cli = tempest::cli;
  namespace diff = tempest::diff;

  std::string format = "text", exe_override, perfetto_out, trend_dir, poll_endpoint;
  bool version = false, trend = false, per_node = false, align = true;
  bool fail_on_regression = false;
  diff::DiffOptions diff_options;
  tempest::parser::ProfileOptions profile_options;
  std::size_t top = 0, poll_count = 3;
  double poll_interval = 1.0;
  unsigned threads = 1;

  cli::ArgParser args(kUsage);
  args.add_value("--format", [&](const std::string& v) {
    if (v != "text" && v != "json") {
      return Status::error("unknown format '" + v + "'");
    }
    format = v;
    return Status::ok();
  });
  args.add_value("--confidence", [&](const std::string& v) {
    const Status parsed = cli::parse_double(v, &diff_options.min_confidence);
    if (!parsed) return parsed;
    if (diff_options.min_confidence < 0.0 || diff_options.min_confidence > 1.0) {
      return Status::error("--confidence must be in [0, 1]");
    }
    return Status::ok();
  });
  args.add_value("--min-time-delta", [&](const std::string& v) {
    return cli::parse_double(v, &diff_options.min_time_delta_s);
  });
  args.add_value("--min-rel-change", [&](const std::string& v) {
    return cli::parse_double(v, &diff_options.min_rel_change);
  });
  args.add_value("--min-temp-delta", [&](const std::string& v) {
    return cli::parse_double(v, &diff_options.min_temp_delta);
  });
  args.add_value("--unit", [&](const std::string& v) {
    if (!tempest::parse_temp_unit(v.c_str(), &profile_options.unit)) {
      return Status::error("bad unit '" + v + "' (use C or F)");
    }
    return Status::ok();
  });
  args.add_value("--min-samples", [&](const std::string& v) {
    return cli::parse_size(v, &profile_options.min_samples_significant);
  });
  args.add_flag("--per-node", [&] { per_node = true; });
  args.add_flag("--no-align", [&] { align = false; });
  args.add_value("--exe", [&](const std::string& v) {
    exe_override = v;
    return Status::ok();
  });
  args.add_value("--threads", [&](const std::string& v) {
    return cli::parse_threads(v, &threads);
  });
  args.add_value("--perfetto", [&](const std::string& v) {
    perfetto_out = v;
    return Status::ok();
  });
  args.add_flag("--fail-on-regression", [&] { fail_on_regression = true; });
  args.add_flag("--trend", [&] { trend = true; });
  args.add_value("--trend-dir", [&](const std::string& v) {
    trend_dir = v;
    return Status::ok();
  });
  args.add_value("--top", [&](const std::string& v) {
    return cli::parse_size(v, &top);
  });
  args.add_value("--poll", [&](const std::string& v) {
    poll_endpoint = v;
    return Status::ok();
  });
  args.add_value("--interval", [&](const std::string& v) {
    return cli::parse_seconds(v, &poll_interval);
  });
  args.add_value("--count", [&](const std::string& v) {
    return cli::parse_size(v, &poll_count);
  });
  args.add_flag("--version", [&] { version = true; });

  const Status parsed = args.parse(argc, argv);
  if (!parsed) return fail_usage(args, argv[0], parsed.message());
  if (version) {
    cli::print_version(std::cout, "tempest-diff", tempest::trace::kTraceVersion);
    return 0;
  }
  if (args.help_requested()) return fail_usage(args, argv[0], "");

  diff_options.per_node = per_node;
  diff::LoadOptions load;
  load.profile = profile_options;
  load.align = align;
  load.exe_override = exe_override;
  load.threads = threads;

  std::vector<std::string> paths = args.positional();

  if (!poll_endpoint.empty() || trend || !trend_dir.empty()) {
    // Trend mode: a series over many runs, not a pairwise ranking.
    if (!poll_endpoint.empty()) {
      diff::PollOptions poll;
      poll.endpoint = poll_endpoint;
      poll.interval_s = poll_interval;
      poll.count = poll_count;
      poll.top = top;
      const Status ran = diff::write_trend_poll(poll, std::cout);
      if (!ran) return fail(ran.message());
      return 0;
    }
    if (!trend_dir.empty()) {
      if (!paths.empty()) {
        return fail_usage(args, argv[0],
                          "--trend-dir and positional runs are exclusive");
      }
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(trend_dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".trace") {
          paths.push_back(entry.path().string());
        }
      }
      if (ec) return fail(trend_dir + ": " + ec.message());
      std::sort(paths.begin(), paths.end());  // run order = name order
      if (paths.empty()) return fail(trend_dir + ": no .trace files");
    }
    if (paths.size() < 2) {
      return fail_usage(args, argv[0], "trend mode needs at least 2 runs");
    }
    diff::TrendOptions trend_options;
    trend_options.load = load;
    trend_options.top = top;
    const Status ran = diff::write_trend(paths, std::cout, trend_options);
    if (!ran) return fail(ran.message());
    return 0;
  }

  if (paths.size() != 2) {
    return fail_usage(args, argv[0],
                      "diff mode takes exactly a BASELINE and a CURRENT trace "
                      "(use --trend for a series over more runs)");
  }

  auto base = diff::load_run(paths[0], load);
  if (!base.is_ok()) return fail(base.message());
  auto cur = diff::load_run(paths[1], load);
  if (!cur.is_ok()) return fail(cur.message());

  const diff::DiffResult result =
      diff::diff_runs(base.value(), cur.value(), diff_options);

  if (format == "json") {
    diff::write_diff_json(std::cout, result);
    std::cout << "\n";
  } else {
    diff::write_diff_text(std::cout, result);
  }

  if (!perfetto_out.empty()) {
    // Mark the ranked findings on the baseline timeline so the spans
    // that moved are findable by scrubbing, not just by name.
    tempest::exporter::ExportRunOptions export_options;
    export_options.format = tempest::exporter::Format::kPerfetto;
    export_options.align = align;
    export_options.exe_override = exe_override;
    for (const auto* list : {&result.regressions, &result.improvements}) {
      for (const auto& d : *list) {
        tempest::exporter::DiffAnnotation a;
        a.function = d.key;
        a.delta_time_s = d.delta_time_s;
        a.confidence = d.confidence;
        a.regression = d.delta_time_s >= 0.0;
        export_options.annotations.push_back(std::move(a));
      }
    }
    std::ofstream out(perfetto_out, std::ios::binary);
    if (!out) return fail("cannot open " + perfetto_out);
    auto exported =
        tempest::exporter::run_export({paths[0]}, out, export_options);
    if (!exported.is_ok()) return fail(exported.message());
    for (const std::string& warning : exported.value().warnings) {
      std::cerr << "tempest-diff: warning: " << warning << "\n";
    }
    std::cerr << "wrote " << perfetto_out << "\n";
  }

  if (fail_on_regression && !result.regressions.empty()) return 4;
  return 0;
}
