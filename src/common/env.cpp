#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/cli.hpp"

namespace tempest {

bool env_raw(const char* name, std::string* out) {
  // Tempest never calls setenv/putenv, so the environment block is
  // immutable for the process lifetime and getenv is safe from any
  // thread. NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  *out = v;
  return true;
}

std::string env_string(const char* name, const std::string& fallback) {
  std::string v;
  return env_raw(name, &v) ? v : fallback;
}

double env_double(const char* name, double fallback) {
  double v = fallback;
  env_double_checked(name, &v);
  return v;
}

long env_long(const char* name, long fallback) {
  long v = fallback;
  env_long_checked(name, &v);
  return v;
}

EnvParse env_double_checked(const char* name, double* out) {
  std::string v;
  if (!env_raw(name, &v)) return EnvParse::kAbsent;
  return cli::parse_double(v, out) ? EnvParse::kOk : EnvParse::kMalformed;
}

EnvParse env_long_checked(const char* name, long* out) {
  std::string v;
  if (!env_raw(name, &v)) return EnvParse::kAbsent;
  try {
    std::size_t pos = 0;
    const long n = std::stol(v, &pos);
    if (pos != v.size()) return EnvParse::kMalformed;
    *out = n;
    return EnvParse::kOk;
  } catch (...) {
    return EnvParse::kMalformed;
  }
}

bool env_bool(const char* name, bool fallback) {
  std::string v;
  if (!env_raw(name, &v)) return fallback;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return fallback;
}

}  // namespace tempest
