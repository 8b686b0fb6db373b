// tempest-lint: validate trace files against the paper's invariants.
//
//   tempest-lint [options] <trace file>...
//     --json          machine-readable output (one JSON object per file)
//     --hz RATE       expected tempd sampling rate (default: 4, the
//                     paper's rate; 0 disables the absolute check)
//     --tolerance F   cadence tolerance factor (default 2.0)
//     --symtab EXE    cross-check the trace against a static audit of
//                     the instrumented binary: events outside the
//                     binary's instrumented set are errors, instrumented
//                     functions with zero events warnings
//     --strict        warnings also fail the exit code
//     -q, --quiet     suppress per-finding output; exit code only
//     --version       print tool and trace-format version
//
// Exit codes: 0 all traces clean, 1 invariant violations found,
// 2 usage error or unreadable trace/binary file.
//
// Lints stream through LintEngine (lint_trace_file reads the trace in
// bounded batches), so arbitrarily large traces check in constant
// memory.
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "audit/audit.hpp"
#include "common/cli.hpp"
#include "trace/writer.hpp"

namespace {

constexpr const char* kUsage =
    "[--json] [--hz RATE] [--tolerance F] [--symtab EXE] [--strict] [-q] "
    "[--version] <trace file>...";

}  // namespace

int main(int argc, char** argv) {
  using tempest::Status;

  tempest::analysis::LintOptions options;
  options.expected_hz = 4.0;  // the paper's tempd rate
  bool json = false, strict = false, quiet = false;

  tempest::cli::ArgParser args(kUsage);
  args.add_flag("--json", [&] { json = true; });
  args.add_value("--hz", [&](const std::string& v) {
    return tempest::cli::parse_double(v, &options.expected_hz);
  });
  args.add_value("--tolerance", [&](const std::string& v) {
    return tempest::cli::parse_double(v, &options.cadence_tolerance);
  });
  std::string symtab_exe;
  args.add_value("--symtab", [&](const std::string& v) {
    symtab_exe = v;
    return Status::ok();
  });
  args.add_flag("--strict", [&] { strict = true; });
  args.add_flag("-q", [&] { quiet = true; });
  args.add_flag("--quiet", [&] { quiet = true; });
  bool version = false;
  args.add_flag("--version", [&] { version = true; });

  const Status parsed = args.parse(argc, argv);
  if (!parsed) {
    std::cerr << "tempest-lint: " << parsed.message() << "\n";
    args.print_usage(std::cerr, argv[0]);
    return 2;
  }
  if (version) {
    tempest::cli::print_version(std::cout, "tempest-lint",
                                tempest::trace::kTraceVersion);
    return 0;
  }
  if (args.help_requested()) {
    args.print_usage(std::cerr, argv[0]);
    return 0;
  }
  const std::vector<std::string>& paths = args.positional();
  if (paths.empty()) {
    args.print_usage(std::cerr, argv[0]);
    return 2;
  }

  // --symtab: audit the binary once, cross-check every trace against it.
  tempest::analysis::CoverageInventory coverage;
  const tempest::analysis::CoverageInventory* coverage_ptr = nullptr;
  if (!symtab_exe.empty()) {
    auto inventory = tempest::audit::analyze_binary(symtab_exe);
    if (!inventory.is_ok()) {
      std::cerr << "tempest-lint: --symtab: " << inventory.message() << "\n";
      return 2;
    }
    coverage.functions.reserve(inventory.value().functions.size());
    for (const auto& fn : inventory.value().functions) {
      coverage.functions.push_back({fn.addr, fn.size, fn.name, fn.instrumented});
    }
    coverage_ptr = &coverage;
  }

  bool any_errors = false, any_warnings = false;
  for (const std::string& path : paths) {
    auto report = tempest::analysis::lint_trace_file(path, options, coverage_ptr);
    if (!report.is_ok()) {
      std::cerr << "tempest-lint: " << report.message() << "\n";
      return 2;
    }
    const auto& r = report.value();
    any_errors = any_errors || r.error_count > 0;
    any_warnings = any_warnings || r.warning_count > 0;
    if (json) {
      std::cout << tempest::analysis::to_json(r) << "\n";
    } else if (!quiet) {
      if (paths.size() > 1) std::cout << path << ":\n";
      tempest::analysis::write_human(std::cout, r);
    }
  }
  if (any_errors) return 1;
  if (strict && any_warnings) return 1;
  return 0;
}
