// Top-level Tempest parser.
//
// "The Tempest parser acquires function timestamps and provides a
// mapping between timestamps and temperature ... then reads the symbol
// table of the executable to map addresses of functions to their
// names." parse_trace performs exactly that pipeline: clock alignment
// -> timeline -> symbolisation (ELF symtab + synthetic names) ->
// sample attribution -> RunProfile.
#pragma once

#include "common/status.hpp"
#include "parser/profile.hpp"
#include "symtab/resolver.hpp"
#include "trace/trace.hpp"

namespace tempest::parser {

struct ParseOptions {
  ProfileOptions profile;
  bool align_clocks = true;
};

/// Parse a raw in-memory trace, as recorded. When `resolver` is null one
/// is built from the trace's recorded executable path and load bias (and
/// symbolisation degrades to hex addresses if that fails — the profile
/// stays usable).
Result<RunProfile> parse_trace(const trace::Trace& trace, const ParseOptions& options = {},
                               const symtab::Resolver* resolver = nullptr);

}  // namespace tempest::parser
