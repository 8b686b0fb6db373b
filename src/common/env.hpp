// Environment-variable configuration helpers.
//
// Tempest is configured transparently (link the library, run the code),
// so all knobs have env-var overrides: TEMPEST_HZ, TEMPEST_OUT,
// TEMPEST_UNIT, ... These helpers parse them defensively — a malformed
// value falls back to the default rather than aborting the profiled run.
#pragma once

#include <string>

namespace tempest {

/// Raw lookup; empty optional semantics via found flag.
bool env_raw(const char* name, std::string* out);

std::string env_string(const char* name, const std::string& fallback);
double env_double(const char* name, double fallback);
long env_long(const char* name, long fallback);
bool env_bool(const char* name, bool fallback);

/// Checked variants: tell "unset" apart from "set but malformed" so
/// config can warn about the latter instead of silently falling back —
/// TEMPEST_MAX_EVENTS=banana should not quietly become unbounded. A
/// double parses by cli::parse_double's rules, as a command line's
/// does: the whole string, and finite ("inf" and "nan" are malformed).
enum class EnvParse { kAbsent, kOk, kMalformed };

EnvParse env_long_checked(const char* name, long* out);
EnvParse env_double_checked(const char* name, double* out);

}  // namespace tempest
