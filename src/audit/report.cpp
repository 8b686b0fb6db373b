#include "audit/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "symtab/resolver.hpp"

namespace tempest::audit {
namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

const char* elf_type_name(std::uint16_t type) {
  switch (type) {
    case symtab::kEtRel: return "rel";
    case symtab::kEtExec: return "exec";
    case symtab::kEtDyn: return "dyn";
    default: return "other";
  }
}

void json_function(std::ostream& os, const FunctionRecord& fn) {
  os << "{\"name\":" << json::quote(fn.name) << ",\"addr\":\""
     << hex(fn.addr) << "\",\"size\":" << fn.size
     << ",\"instrumented\":" << (fn.instrumented ? "true" : "false")
     << ",\"static_callers\":" << fn.static_callers
     << ",\"static_callees\":" << fn.static_callees << "}";
}

}  // namespace

std::string to_json(const Inventory& inventory, const CoverageReport& coverage,
                    const OverheadReport* overhead, const ReportOptions& options) {
  std::ostringstream os;
  std::size_t reloc_edges = 0;
  for (const CallEdge& e : inventory.edges) {
    if (e.source == EdgeSource::kReloc) ++reloc_edges;
  }
  os << "{\"binary\":" << json::quote(inventory.binary_path)
     << ",\"elf_type\":\"" << elf_type_name(inventory.elf_type)
     << "\",\"hooks_linked\":" << (inventory.hooks_linked ? "true" : "false")
     << ",\"functions\":" << inventory.functions.size()
     << ",\"instrumented\":" << coverage.instrumented
     << ",\"uninstrumented\":" << coverage.uninstrumented
     << ",\"call_graph\":{\"edges\":" << inventory.edges.size()
     << ",\"reloc_edges\":" << reloc_edges
     << ",\"scan_edges\":" << inventory.edges.size() - reloc_edges << "}";

  // Coverage gaps: every silent-subtree member, then other
  // uninstrumented functions up to the cap.
  os << ",\"coverage\":{\"stripped_hook_sites\":" << coverage.stripped_hook_sites
     << ",\"silent_subtree_functions\":" << coverage.silent_subtree_fns.size()
     << ",\"gaps\":[";
  const std::set<std::uint32_t> silent(coverage.silent_subtree_fns.begin(),
                                       coverage.silent_subtree_fns.end());
  std::size_t listed = 0;
  bool first = true;
  auto emit_gap = [&](std::uint32_t fn_index) {
    if (listed >= options.max_list) return;
    if (!first) os << ",";
    first = false;
    ++listed;
    const FunctionRecord& fn = inventory.functions[fn_index];
    os << "{\"name\":" << json::quote(fn.name) << ",\"addr\":\""
       << hex(fn.addr) << "\",\"reachable_from_instrumented\":"
       << (silent.count(fn_index) > 0 ? "true" : "false") << "}";
  };
  for (const std::uint32_t i : coverage.silent_subtree_fns) emit_gap(i);
  for (const std::uint32_t i : coverage.uninstrumented_fns) {
    if (silent.count(i) == 0) emit_gap(i);
  }
  os << "]}";

  if (overhead != nullptr) {
    os << ",\"overhead\":{\"from_trace\":"
       << (overhead->from_trace ? "true" : "false")
       << ",\"total_probe_events\":" << overhead->total_probes
       << ",\"unattributed_events\":" << overhead->unattributed_events
       << ",\"ranked\":[";
    const std::size_t n = std::min(options.max_list, overhead->ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      const OverheadEntry& entry = overhead->ranked[i];
      const FunctionRecord& fn = inventory.functions[entry.fn];
      if (i > 0) os << ",";
      os << "{\"name\":" << json::quote(fn.name) << ",\"addr\":\""
         << hex(fn.addr) << "\",\"calls\":" << entry.calls
         << ",\"predicted_probe_events\":" << entry.predicted_probes
         << ",\"share\":" << std::setprecision(6) << entry.share
         << ",\"static_callers\":" << fn.static_callers
         << ",\"static_callees\":" << fn.static_callees << "}";
    }
    os << "]}";
  }

  os << ",\"instrumented_functions\":[";
  std::size_t emitted = 0;
  for (const FunctionRecord& fn : inventory.functions) {
    if (!fn.instrumented) continue;
    if (emitted >= options.max_list) break;
    if (emitted > 0) os << ",";
    ++emitted;
    json_function(os, fn);
  }
  os << "]}";
  return os.str();
}

void write_human(std::ostream& out, const Inventory& inventory,
                 const CoverageReport& coverage, const OverheadReport* overhead,
                 const ReportOptions& options) {
  out << "== instrumentation audit: " << inventory.binary_path << " ==\n";
  out << "ELF type: " << elf_type_name(inventory.elf_type)
      << ", hooks linked: " << (inventory.hooks_linked ? "yes" : "no") << "\n";
  out << "functions: " << inventory.functions.size() << " ("
      << coverage.instrumented << " instrumented, " << coverage.uninstrumented
      << " not), call-graph edges: " << inventory.edges.size() << "\n";
  if (coverage.stripped_hook_sites > 0) {
    out << "WARNING: " << coverage.stripped_hook_sites
        << " hook call site(s) outside any known function symbol "
        << "(instrumented code will profile as hex addresses)\n";
  }

  out << "\n-- coverage gaps (" << coverage.silent_subtree_fns.size()
      << " reachable from instrumented code) --\n";
  const std::set<std::uint32_t> silent(coverage.silent_subtree_fns.begin(),
                                       coverage.silent_subtree_fns.end());
  std::size_t listed = 0;
  for (const std::uint32_t i : coverage.silent_subtree_fns) {
    if (listed >= options.max_list) break;
    ++listed;
    const FunctionRecord& fn = inventory.functions[i];
    out << "  silent  " << hex(fn.addr) << "  " << symtab::demangle(fn.name)
        << "\n";
  }
  for (const std::uint32_t i : coverage.uninstrumented_fns) {
    if (silent.count(i) > 0) continue;
    if (listed >= options.max_list) break;
    ++listed;
    const FunctionRecord& fn = inventory.functions[i];
    out << "  no-hook " << hex(fn.addr) << "  " << symtab::demangle(fn.name)
        << "\n";
  }
  if (coverage.uninstrumented_fns.size() > listed) {
    out << "  (" << coverage.uninstrumented_fns.size() - listed
        << " more suppressed)\n";
  }

  if (overhead != nullptr) {
    out << "\n-- probe overhead ranking ("
        << (overhead->from_trace ? "observed calls from trace"
                                 : "static fan-in estimate")
        << ", " << overhead->total_probes << " predicted probe events) --\n";
    const std::size_t n = std::min(options.max_list, overhead->ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      const OverheadEntry& entry = overhead->ranked[i];
      const FunctionRecord& fn = inventory.functions[entry.fn];
      out << "  " << std::setw(3) << static_cast<int>(entry.share * 100.0 + 0.5)
          << "%  " << entry.calls << (overhead->from_trace ? " calls" : " callers")
          << "  " << symtab::demangle(fn.name) << "\n";
    }
    if (overhead->unattributed_events > 0) {
      out << "  WARNING: " << overhead->unattributed_events
          << " trace event(s) at addresses this binary does not cover\n";
    }
  }
}

}  // namespace tempest::audit
