// JSON profile dump ("data can be dumped to a file in a variety of
// formats" — text, CSV and JSON here).
#pragma once

#include <ostream>

#include "parser/profile.hpp"

namespace tempest::report {

/// Serialise the complete profile as a JSON object (stable key order,
/// strings escaped; suitable for downstream tooling). When `run_stats`
/// is non-null and present, a "run_stats" object with the recorder's
/// RUNSTATS trailer is appended — absent otherwise, so pre-RUNSTATS
/// traces keep their exact historical output.
void write_profile_json(std::ostream& out, const parser::RunProfile& profile,
                        const trace::RunStats* run_stats = nullptr);

}  // namespace tempest::report
