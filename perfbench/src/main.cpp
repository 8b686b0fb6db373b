// perfbench: the load generator behind perfbench/run.py.
//
//   perfbench record      --seed N --first base|session --trace 0|1
//                         --work DIR
//   perfbench gen-analyze --seed N --out DIR --exe PATH
//   perfbench analyze     --mode profile|export --threads N --input FILE
//                         --out FILE --trace 0|1 [--check 1]
//   perfbench collect     --seed N --seconds S --trace 0|1 --work DIR
//                         --collectd PATH
//
// Workload sizes are constants of each subcommand; connection and shard
// counts follow nproc. Every subcommand prints one JSON object on stdout
// (its sizes, measurements, check verdicts and, with --trace 1, per-span
// totals) and, when
// --spans FILE is given with --trace 1, writes its spans there as a
// Chrome Trace Event array. run.py turns these into the benchmark's
// metrics.
#include <fstream>
#include <iostream>
#include <string>

#include "bench_provenance.hpp"
#include "common.hpp"
#include "telemetry/log.hpp"

namespace perfbench {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench record|gen-analyze|analyze|collect "
                 "[--key value]...\n";
    return 2;
  }
  const std::string command = argv[1];
  if (command == "build-type") {
    std::cout << bench_prov::kBuildType << "\n";
    return 0;
  }
  if (!bench_prov::check_build("perfbench", false)) return 2;
  tempest::telemetry::Logger::instance().set_threshold(
      tempest::telemetry::LogLevel::kError);
  const perfbench::Args args(argc, argv, 2);
  try {
    if (command == "record") return perfbench::run_record(args);
    if (command == "gen-analyze") return perfbench::run_gen_analyze(args);
    if (command == "analyze") return perfbench::run_analyze(args);
    if (command == "collect") return perfbench::run_collect(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench: unknown command '" << command << "'\n";
  return 2;
}
