// TEMPEST_FILTER suppression files — the shared line format.
//
// The adaptive-instrumentation loop has two halves: tempest-audit
// (src/audit) *emits* suppression suggestions, and the recording
// runtime (src/core) *consumes* them at session start via the
// TEMPEST_FILTER environment variable. Both halves speak this
// deliberately trivial format:
//
//   # TEMPEST_FILTER v1
//   # <free-form comment>
//   suppress <raw-symbol-name>        # <reason>
//
// Blank lines and `#` comments are ignored; each directive line is the
// word `suppress`, one mangled symbol name, and an optional trailing
// `# reason`. Unknown directives are an error (a typo must not
// silently keep a hot function instrumented).
//
// The parser lives here in src/common so that src/core stays free of
// the audit library (which drags in the whole ELF analyzer); the audit
// layer re-exports these types for its callers. The recorder reads the
// file once per session, through common::ByteInput: a path that names
// anything but a regular file, or a file over kMaxFilterFileBytes, is
// refused unread, so the variable cannot make a run block or read
// without bound.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace tempest::common {

struct FilterRule {
  std::string symbol;  ///< raw (mangled) name, matching the ELF symtab
  std::string reason;  ///< advisory; round-trips through the file
};

inline bool operator==(const FilterRule& a, const FilterRule& b) {
  return a.symbol == b.symbol && a.reason == b.reason;
}

struct FilterFile {
  std::vector<FilterRule> rules;
};

/// Emit the canonical file form (version header, one directive per rule).
void write_filter_file(std::ostream& out, const FilterFile& filter);
Status write_filter_file(const std::string& path, const FilterFile& filter);

/// The largest filter file read_filter_file reads.
inline constexpr std::uint64_t kMaxFilterFileBytes = std::uint64_t{16} << 20;

/// Parse filter-file text. Unknown directives and directives without a
/// symbol are errors naming the line number.
Result<FilterFile> parse_filter_file(std::string_view text);

/// Read and parse the file at `path`. Refused unread: a path that does
/// not open ("cannot open filter file <path>"), anything but a regular
/// file ("<path>: not a regular file") and a file over
/// kMaxFilterFileBytes.
Result<FilterFile> read_filter_file(const std::string& path);

}  // namespace tempest::common
