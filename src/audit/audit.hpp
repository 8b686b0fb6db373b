// Static instrumentation audit: what will this binary's profile miss?
//
// Tempest's completeness story rests on -finstrument-functions hooking
// every function, but nothing at runtime can verify that: an inlined,
// selectively-compiled, or hook-stripped function simply never emits
// events, and tempest-lint can only check what made it into the trace.
// This library closes that blind spot by analysing the instrumented ELF
// *without running it*:
//
//   * classify every .text function as instrumented or not by whether
//     its body references __cyg_profile_func_enter/_exit — via
//     PC32/PLT32 relocations in relocatable objects, via a direct
//     call/jmp-opcode scan in linked binaries (where the linker already
//     resolved the relocations away);
//   * build an approximate static call graph from the same two sources
//     (edges are kept only when the target is exactly a known function
//     entry, which filters nearly all false decodes — see DESIGN.md §11
//     for the residual approximation limits);
//   * derive a coverage report (uninstrumented functions, hookless
//     functions reachable from instrumented code — the "silent
//     subtrees" that execute inside profiled regions without a trace —
//     and hook call sites whose containing symbol was stripped);
//   * join the static inventory with a recorded trace's observed
//     per-function call counts to rank the call sites that dominate
//     probe overhead, feeding the TEMPEST_FILTER suppression file that
//     future adaptive instrumentation consumes (src/audit/filter.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "symtab/elf.hpp"

namespace tempest::audit {

/// One .text function in the audited binary. Addresses are link-time:
/// virtual addresses in linked binaries, file-offset-normalised section
/// offsets in relocatable objects (unique either way).
struct FunctionRecord {
  std::uint64_t addr = 0;
  std::uint64_t size = 0;        ///< st_size; patched to the next symbol when 0
  std::string name;              ///< raw (possibly mangled)
  bool instrumented = false;     ///< body references the cyg hooks
  std::uint32_t static_callers = 0;  ///< call-graph in-degree
  std::uint32_t static_callees = 0;  ///< call-graph out-degree
  std::uint64_t trace_calls = 0;     ///< joined enter events (predict_overhead)
};

/// How a call edge was recovered.
enum class EdgeSource : std::uint8_t {
  kReloc,  ///< PC32/PLT32 relocation against a function symbol
  kScan,   ///< direct E8 call / E9 tail-jmp whose target is a function entry
};

struct CallEdge {
  std::uint32_t caller = 0;  ///< index into Inventory::functions
  std::uint32_t callee = 0;
  EdgeSource source = EdgeSource::kScan;
};

/// The static inventory of one binary: every function, its
/// instrumentation state, and the approximate call graph. The hook
/// functions themselves are deliberately absent — they are the probes,
/// not workload.
struct Inventory {
  std::string binary_path;
  std::uint16_t elf_type = 0;        ///< ET_REL / ET_EXEC / ET_DYN
  bool hooks_linked = false;         ///< a cyg hook symbol exists at all
  std::size_t instrumented_count = 0;
  /// Hook call sites at addresses no known function covers: the hooks
  /// are present but the calling function's symbol was stripped, so the
  /// profile will show hex addresses for real instrumented code.
  std::size_t stripped_hook_sites = 0;
  std::vector<FunctionRecord> functions;  ///< sorted by addr
  std::vector<CallEdge> edges;            ///< deduped, sorted (caller, callee)

  /// Function whose [addr, addr+size) covers `link_addr`; -1 if none.
  int find_index(std::uint64_t link_addr) const;
  const FunctionRecord* find(std::uint64_t link_addr) const;
};

/// Analyse a parsed ELF image (pure; tests craft images directly).
Inventory analyze_image(const symtab::ElfImage& image, std::string binary_path);

/// Read and analyse a binary. Errors are the ELF reader's (missing
/// file, non-ELF, truncation) — an uninstrumented binary is a valid
/// result with instrumented_count == 0, not an error.
Result<Inventory> analyze_binary(const std::string& path);

/// Coverage: which functions will silently vanish from profiles.
struct CoverageReport {
  std::size_t total = 0;
  std::size_t instrumented = 0;
  std::size_t uninstrumented = 0;
  bool hooks_linked = false;
  std::size_t stripped_hook_sites = 0;
  std::vector<std::uint32_t> uninstrumented_fns;  ///< indices, addr order
  /// Uninstrumented functions reachable from an instrumented caller:
  /// they run inside profiled regions but never emit events, so their
  /// time silently folds into the caller's inclusive time.
  std::vector<std::uint32_t> silent_subtree_fns;
};
CoverageReport build_coverage(const Inventory& inventory);

/// Probe-overhead ranking: which functions dominate instrumentation
/// cost. With a trace, calls are observed; statically, the call-graph
/// in-degree stands in as a unit-call estimate.
struct OverheadEntry {
  std::uint32_t fn = 0;               ///< index into Inventory::functions
  std::uint64_t calls = 0;            ///< observed (or in-degree proxy)
  std::uint64_t predicted_probes = 0; ///< 2 probes per call (enter + exit)
  double share = 0.0;                 ///< of total predicted probes
};
struct OverheadReport {
  bool from_trace = false;
  std::uint64_t total_probes = 0;
  /// Trace fn events at addresses the inventory does not cover
  /// (synthetic region events excluded) — nonzero means the trace and
  /// binary disagree; tempest-lint --symtab turns that into findings.
  std::uint64_t unattributed_events = 0;
  std::vector<OverheadEntry> ranked;  ///< descending predicted_probes
};

/// Join observed per-function call counts from a recorded trace
/// (events unbias through the trace's own load_bias) into
/// `inventory->functions[].trace_calls` and rank. An unreadable or
/// damaged trace, trailing bytes included, is an error Result naming
/// the path.
Result<OverheadReport> predict_overhead(Inventory* inventory,
                                        const std::string& trace_path);

/// Trace-free ranking from static fan-in alone.
OverheadReport predict_overhead_static(const Inventory& inventory);

}  // namespace tempest::audit
