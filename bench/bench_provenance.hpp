// Build-type provenance for benchmark outputs.
//
// Every BENCH_*.json committed to the repo is a performance claim, and
// a claim measured on a -O0 asserts-on build is a lie by omission. The
// bench binaries compile in the CMake build type and (a) refuse to run
// from an unoptimised build unless --allow-debug is passed, (b) stamp
// the build type — plus the cores they ran on and the source commit —
// into the JSON they emit, so a stray debug artefact or a number from
// another host shape is visible in the file rather than silently
// replacing Release numbers.
#pragma once

#include <sched.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

namespace bench_prov {

#ifdef TEMPEST_BENCH_BUILD_TYPE
inline constexpr const char* kBuildType = TEMPEST_BENCH_BUILD_TYPE;
#else
inline constexpr const char* kBuildType = "unspecified";
#endif

/// CPUs this process may run on (its affinity mask, which containers
/// narrow below the machine's core count).
inline unsigned cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// The source tree's commit, suffixed "-dirty" when it has uncommitted
/// changes; "unknown" outside a git checkout.
inline std::string git_sha() {
#ifdef TEMPEST_BENCH_SOURCE_DIR
  const std::string cmd = std::string("git -C '") + TEMPEST_BENCH_SOURCE_DIR +
                          "' describe --always --dirty --abbrev=12 2>/dev/null";
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[128] = {};
    const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    pclose(pipe);
    std::string sha = got ? buf : "";
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
    if (!sha.empty()) return sha;
  }
#endif
  return "unknown";
}

inline bool optimized_build() {
#ifdef NDEBUG
  return std::strcmp(kBuildType, "Release") == 0 ||
         std::strcmp(kBuildType, "RelWithDebInfo") == 0 ||
         std::strcmp(kBuildType, "MinSizeRel") == 0;
#else
  return false;
#endif
}

/// Gate to call before measuring anything. Returns false (and says
/// why) when this is not an optimised build and the caller did not
/// explicitly opt in with --allow-debug.
inline bool check_build(const char* bench_name, bool allow_debug) {
  if (optimized_build()) return true;
  if (allow_debug) {
    std::cerr << bench_name << ": WARNING: measuring a '" << kBuildType
              << "' build (--allow-debug); numbers are not comparable to "
                 "committed Release results\n";
    return true;
  }
  std::cerr << bench_name << ": refusing to bench a '" << kBuildType
            << "' build — rebuild with -DCMAKE_BUILD_TYPE=Release or pass "
               "--allow-debug to measure anyway\n";
  return false;
}

}  // namespace bench_prov
