// TEMPEST_FILTER suppression files — audit-side API.
//
// The line format and its parser live in common/filter_file.hpp so the
// recording runtime (src/core) can consume filters without linking the
// audit library. This header re-exports the shared types under
// tempest::audit and adds the one audit-only operation: suggesting a
// filter from an overhead ranking.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/filter_file.hpp"
#include "common/status.hpp"

namespace tempest::audit {

struct Inventory;
struct OverheadReport;

using common::FilterFile;
using common::FilterRule;
using common::parse_filter_file;
using common::read_filter_file;
using common::write_filter_file;

/// Suggest suppressions from an overhead ranking: the top_n functions
/// by predicted probe events. `main` is never suggested — suppressing
/// it would blind the profile's whole-run summary. The output order is
/// deterministic (the ranking sorts by predicted probe events with
/// function address as the tiebreak), so repeated audits of the same
/// binary + trace produce byte-identical filter files that diff
/// cleanly across runs.
FilterFile suggest_filter(const Inventory& inventory,
                          const OverheadReport& overhead, std::size_t top_n);

}  // namespace tempest::audit
