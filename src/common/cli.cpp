#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "common/env.hpp"

namespace tempest::cli {

void ArgParser::add_flag(const std::string& name, std::function<void()> fn) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kFlag;
  opt.on_flag = std::move(fn);
  options_.push_back(std::move(opt));
}

void ArgParser::add_value(const std::string& name,
                          std::function<Status(const std::string&)> fn) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kValue;
  opt.on_value = std::move(fn);
  options_.push_back(std::move(opt));
}

void ArgParser::add_optional_value(const std::string& name,
                                   std::function<void(const std::string*)> fn) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kOptionalValue;
  opt.on_optional = std::move(fn);
  options_.push_back(std::move(opt));
}

Status ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return Status::ok();
    }
    if (arg.empty() || arg[0] != '-' || arg == "-") {
      positional_.push_back(arg);
      continue;
    }
    // --name=value attaches the value inline; split before matching so
    // both spellings hit the same option table.
    std::string name = arg;
    std::optional<std::string> inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    const Option* match = nullptr;
    for (const Option& opt : options_) {
      if (opt.name == name) {
        match = &opt;
        break;
      }
    }
    if (match == nullptr) {
      return Status::error("unknown option " + name);
    }
    switch (match->kind) {
      case Kind::kFlag:
        if (inline_value) {
          return Status::error(name + " takes no value");
        }
        match->on_flag();
        break;
      case Kind::kValue: {
        std::string value;
        if (inline_value) {
          value = *inline_value;
        } else {
          if (i + 1 >= argc) {
            return Status::error("missing value for " + name);
          }
          value = argv[++i];
        }
        const Status handled = match->on_value(value);
        if (!handled) return handled;
        break;
      }
      case Kind::kOptionalValue: {
        if (inline_value) {
          match->on_optional(&*inline_value);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
          const std::string value = argv[++i];
          match->on_optional(&value);
        } else {
          match->on_optional(nullptr);
        }
        break;
      }
    }
  }
  return Status::ok();
}

void ArgParser::print_usage(std::ostream& os, const char* argv0) const {
  os << "usage: " << argv0 << " " << usage_ << "\n";
}

Status parse_size(const std::string& value, std::size_t* out) {
  if (value.empty()) return Status::error("expected a number, got ''");
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::error("number out of range: '" + value + "'");
  }
  if (end == value.c_str() || *end != '\0' || value[0] == '-') {
    return Status::error("expected a number, got '" + value + "'");
  }
  *out = static_cast<std::size_t>(parsed);
  return Status::ok();
}

Status parse_double(const std::string& value, double* out) {
  if (value.empty()) return Status::error("expected a number, got ''");
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (errno == ERANGE) {
    return Status::error("number out of range: '" + value + "'");
  }
  if (end == value.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return Status::error("expected a number, got '" + value + "'");
  }
  *out = parsed;
  return Status::ok();
}

Status check_seconds(double seconds) {
  if (seconds > 0.0 && seconds <= kMaxSeconds) return Status::ok();
  char shown[32];
  std::snprintf(shown, sizeof(shown), "%g", seconds);
  return Status::error(std::string("expected seconds in (0, 1e9], got ") + shown);
}

Status parse_seconds(const std::string& value, double* out) {
  double seconds = 0.0;
  Status parsed = parse_double(value, &seconds);
  if (parsed) parsed = check_seconds(seconds);
  if (parsed) *out = seconds;
  return parsed;
}

Status parse_threads(const std::string& value, unsigned* out) {
  std::size_t n = 0;
  Status parsed = parse_size(value, &n);
  if (parsed && n == 0) parsed = Status::error("--threads must be at least 1");
  if (parsed) *out = static_cast<unsigned>(std::min(n, kMaxThreads));
  return parsed;
}

unsigned default_analysis_threads() {
  const long from_env = env_long("TEMPEST_ANALYSIS_THREADS", 0);
  if (from_env > 0) return static_cast<unsigned>(from_env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void print_version(std::ostream& os, const std::string& tool,
                   std::uint32_t trace_format_version) {
#ifdef TEMPEST_BUILD_TYPE
  const char* build_type = TEMPEST_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  os << tool << " (tempest) trace format v" << trace_format_version << ", "
     << (build_type[0] != '\0' ? build_type : "unknown") << " build\n";
}

}  // namespace tempest::cli
