#include "audit/audit.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "trace/reader.hpp"

namespace tempest::audit {
namespace {

constexpr const char* kHookEnter = "__cyg_profile_func_enter";
constexpr const char* kHookExit = "__cyg_profile_func_exit";

bool is_hook_name(const std::string& name) {
  return name == kHookEnter || name == kHookExit;
}

/// Link-time origin of a section: virtual address in linked binaries,
/// file offset in relocatable objects (where every sh_addr is 0 and
/// symbols/relocations are section-relative — the file offset gives
/// each section a unique, stable base).
std::uint64_t section_origin(const symtab::ElfImage& image, std::size_t index) {
  const symtab::SectionInfo& sec = image.sections[index];
  return image.elf_type == symtab::kEtRel ? sec.offset : sec.addr;
}

/// Normalise a defined symbol's value into the shared address space.
std::uint64_t symbol_addr(const symtab::ElfImage& image,
                          const symtab::SymbolInfo& sym) {
  if (image.elf_type == symtab::kEtRel && sym.shndx < image.sections.size()) {
    return section_origin(image, sym.shndx) + sym.value;
  }
  return sym.value;
}

struct EdgeKey {
  std::uint32_t caller, callee;
  bool operator<(const EdgeKey& other) const {
    return caller != other.caller ? caller < other.caller : callee < other.callee;
  }
};

}  // namespace

int Inventory::find_index(std::uint64_t link_addr) const {
  const auto it = std::upper_bound(
      functions.begin(), functions.end(), link_addr,
      [](std::uint64_t a, const FunctionRecord& f) { return a < f.addr; });
  if (it == functions.begin()) return -1;
  const auto prev = std::prev(it);
  if (link_addr >= prev->addr && link_addr < prev->addr + prev->size) {
    return static_cast<int>(prev - functions.begin());
  }
  return -1;
}

const FunctionRecord* Inventory::find(std::uint64_t link_addr) const {
  const int i = find_index(link_addr);
  return i < 0 ? nullptr : &functions[static_cast<std::size_t>(i)];
}

Inventory analyze_image(const symtab::ElfImage& image, std::string binary_path) {
  Inventory inv;
  inv.binary_path = std::move(binary_path);
  inv.elf_type = image.elf_type;

  // Hook identities: defined hook symbols give scan targets; any hook
  // symbol (defined or extern, as in a .o) marks the binary as carrying
  // instrumentation, and its symtab indices match relocations.
  std::set<std::uint64_t> hook_addrs;
  std::set<std::uint32_t> hook_sym_indices;
  for (std::size_t i = 0; i < image.symbols.size(); ++i) {
    const symtab::SymbolInfo& sym = image.symbols[i];
    if (!is_hook_name(sym.name)) continue;
    inv.hooks_linked = true;
    hook_sym_indices.insert(static_cast<std::uint32_t>(i));
    if (sym.is_defined()) hook_addrs.insert(symbol_addr(image, sym));
  }

  // Function inventory: defined STT_FUNC symbols, deduped by address
  // (C1/C2 constructor aliases land on one entry), hooks excluded.
  std::map<std::uint64_t, FunctionRecord> by_addr;
  for (const symtab::SymbolInfo& sym : image.symbols) {
    if (!sym.is_function() || !sym.is_defined()) continue;
    if (sym.shndx >= image.sections.size()) continue;  // SHN_ABS etc.
    if (is_hook_name(sym.name)) continue;
    if (image.elf_type != symtab::kEtRel && sym.value == 0) continue;
    FunctionRecord fn;
    fn.addr = symbol_addr(image, sym);
    fn.size = sym.size;
    fn.name = sym.name;
    auto [it, inserted] = by_addr.try_emplace(fn.addr, std::move(fn));
    if (!inserted && it->second.size < sym.size) {
      it->second.size = sym.size;  // alias with the larger extent wins
      it->second.name = sym.name;
    }
  }
  inv.functions.reserve(by_addr.size());
  for (auto& [addr, fn] : by_addr) inv.functions.push_back(std::move(fn));
  // Zero-sized symbols (assembler stubs) extend to the next function so
  // call sites inside them still attribute (same rule as the Resolver).
  for (std::size_t i = 0; i < inv.functions.size(); ++i) {
    if (inv.functions[i].size == 0) {
      inv.functions[i].size = (i + 1 < inv.functions.size())
                                  ? inv.functions[i + 1].addr - inv.functions[i].addr
                                  : 1;
    }
  }

  // Entry-address index for the scan's exact-target sieve.
  std::map<std::uint64_t, std::uint32_t> entry_index;
  for (std::size_t i = 0; i < inv.functions.size(); ++i) {
    entry_index[inv.functions[i].addr] = static_cast<std::uint32_t>(i);
  }

  std::set<EdgeKey> reloc_edges, scan_edges;
  auto record_hook_site = [&](std::uint64_t site_addr) {
    const int caller = inv.find_index(site_addr);
    if (caller < 0) {
      ++inv.stripped_hook_sites;
    } else {
      inv.functions[static_cast<std::size_t>(caller)].instrumented = true;
    }
  };

  // Relocation pass (relocatable objects; linked binaries rarely retain
  // text relocations unless linked with --emit-relocs). A PC32/PLT32
  // call inserts S + A - P, so the runtime target is S + A + 4.
  std::set<std::size_t> sections_with_relocs;
  for (const symtab::RelocInfo& reloc : image.relocations) {
    sections_with_relocs.insert(reloc.target_section);
    if (reloc.type != symtab::kRX8664Pc32 && reloc.type != symtab::kRX8664Plt32) {
      continue;
    }
    const std::uint64_t site =
        section_origin(image, reloc.target_section) + reloc.offset;
    if (hook_sym_indices.count(reloc.sym_index) > 0) {
      record_hook_site(site);
      continue;
    }
    const symtab::SymbolInfo& target_sym = image.symbols[reloc.sym_index];
    std::uint64_t target = 0;
    if (target_sym.type == 3 /* STT_SECTION */ &&
        target_sym.shndx < image.sections.size()) {
      target = section_origin(image, target_sym.shndx) +
               static_cast<std::uint64_t>(reloc.addend) + 4;
    } else if (target_sym.is_function() && target_sym.is_defined()) {
      target = symbol_addr(image, target_sym);
    } else {
      continue;  // extern call: callee unknown to this object
    }
    const auto callee_it = entry_index.find(target);
    const int caller = inv.find_index(site);
    if (callee_it == entry_index.end() || caller < 0) continue;
    reloc_edges.insert({static_cast<std::uint32_t>(caller), callee_it->second});
  }

  // Byte-scan pass over executable sections the relocations did not
  // cover (in objects the rel32 fields still hold placeholders, so
  // scanning them would decode garbage). E8 is `call rel32`, E9 a
  // `jmp rel32` tail call; an edge survives only when the computed
  // target is exactly a known function entry.
  for (std::size_t si = 0; si < image.sections.size(); ++si) {
    const symtab::SectionInfo& sec = image.sections[si];
    if (!sec.executable() || sec.bytes.empty()) continue;
    if (sections_with_relocs.count(si) > 0) continue;
    const std::uint64_t origin = section_origin(image, si);
    for (std::size_t off = 0; off + 5 <= sec.bytes.size(); ++off) {
      const unsigned char op = sec.bytes[off];
      if (op != 0xE8 && op != 0xE9) continue;
      std::int32_t rel = 0;
      std::memcpy(&rel, sec.bytes.data() + off + 1, sizeof(rel));
      const std::uint64_t target =
          origin + off + 5 + static_cast<std::uint64_t>(static_cast<std::int64_t>(rel));
      if (hook_addrs.count(target) > 0) {
        record_hook_site(origin + off);
        continue;
      }
      const auto callee_it = entry_index.find(target);
      if (callee_it == entry_index.end()) continue;
      const int caller = inv.find_index(origin + off);
      if (caller < 0) continue;
      const auto caller_idx = static_cast<std::uint32_t>(caller);
      // A jmp landing back on the caller's own entry is a loop, not a
      // tail call; direct E8 recursion is a genuine self edge.
      if (op == 0xE9 && callee_it->second == caller_idx) continue;
      scan_edges.insert({caller_idx, callee_it->second});
    }
  }

  inv.edges.reserve(reloc_edges.size() + scan_edges.size());
  for (const EdgeKey& e : reloc_edges) {
    inv.edges.push_back({e.caller, e.callee, EdgeSource::kReloc});
  }
  for (const EdgeKey& e : scan_edges) {
    if (reloc_edges.count(e) == 0) {
      inv.edges.push_back({e.caller, e.callee, EdgeSource::kScan});
    }
  }
  std::sort(inv.edges.begin(), inv.edges.end(),
            [](const CallEdge& a, const CallEdge& b) {
              return a.caller != b.caller ? a.caller < b.caller
                                          : a.callee < b.callee;
            });
  for (const CallEdge& e : inv.edges) {
    ++inv.functions[e.caller].static_callees;
    ++inv.functions[e.callee].static_callers;
  }
  for (const FunctionRecord& fn : inv.functions) {
    if (fn.instrumented) ++inv.instrumented_count;
  }
  return inv;
}

Result<Inventory> analyze_binary(const std::string& path) {
  auto image = symtab::read_elf_image(path);
  if (!image.is_ok()) return Result<Inventory>::error(image.message());
  return analyze_image(image.value(), path);
}

CoverageReport build_coverage(const Inventory& inventory) {
  CoverageReport report;
  report.total = inventory.functions.size();
  report.instrumented = inventory.instrumented_count;
  report.uninstrumented = report.total - report.instrumented;
  report.hooks_linked = inventory.hooks_linked;
  report.stripped_hook_sites = inventory.stripped_hook_sites;

  for (std::size_t i = 0; i < inventory.functions.size(); ++i) {
    if (!inventory.functions[i].instrumented) {
      report.uninstrumented_fns.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // BFS over the call graph from every instrumented function: an
  // uninstrumented function it can reach executes inside profiled
  // regions yet never emits events.
  std::vector<std::vector<std::uint32_t>> out(inventory.functions.size());
  for (const CallEdge& e : inventory.edges) out[e.caller].push_back(e.callee);
  std::vector<char> visited(inventory.functions.size(), 0);
  std::vector<std::uint32_t> queue;
  for (std::size_t i = 0; i < inventory.functions.size(); ++i) {
    if (inventory.functions[i].instrumented) {
      visited[i] = 1;
      queue.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!queue.empty()) {
    const std::uint32_t cur = queue.back();
    queue.pop_back();
    for (const std::uint32_t next : out[cur]) {
      if (visited[next] != 0) continue;
      visited[next] = 1;
      queue.push_back(next);
    }
  }
  for (std::size_t i = 0; i < inventory.functions.size(); ++i) {
    if (visited[i] != 0 && !inventory.functions[i].instrumented) {
      report.silent_subtree_fns.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return report;
}

namespace {

OverheadReport rank(const Inventory& inventory, bool from_trace,
                    std::uint64_t unattributed) {
  OverheadReport report;
  report.from_trace = from_trace;
  report.unattributed_events = unattributed;
  for (std::size_t i = 0; i < inventory.functions.size(); ++i) {
    const FunctionRecord& fn = inventory.functions[i];
    const std::uint64_t calls =
        from_trace ? fn.trace_calls
                   : (fn.instrumented ? fn.static_callers : 0);
    if (calls == 0) continue;
    OverheadEntry entry;
    entry.fn = static_cast<std::uint32_t>(i);
    entry.calls = calls;
    entry.predicted_probes = calls * 2;  // enter + exit per call
    report.ranked.push_back(entry);
    report.total_probes += entry.predicted_probes;
  }
  for (OverheadEntry& entry : report.ranked) {
    entry.share = report.total_probes > 0
                      ? static_cast<double>(entry.predicted_probes) /
                            static_cast<double>(report.total_probes)
                      : 0.0;
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [&](const OverheadEntry& a, const OverheadEntry& b) {
              if (a.predicted_probes != b.predicted_probes) {
                return a.predicted_probes > b.predicted_probes;
              }
              return inventory.functions[a.fn].addr <
                     inventory.functions[b.fn].addr;
            });
  return report;
}

}  // namespace

Result<OverheadReport> predict_overhead(Inventory* inventory,
                                        const std::string& trace_path) {
  auto opened = trace::TraceStreamReader::open_file(trace_path);
  if (!opened.is_ok()) return Result<OverheadReport>::error(opened.message());
  trace::TraceStreamReader reader = std::move(opened).value();
  const Status eof = reader.expect_eof();
  if (!eof) return Result<OverheadReport>::error(eof.message());
  const std::uint64_t load_bias = reader.header().load_bias;

  for (FunctionRecord& fn : inventory->functions) fn.trace_calls = 0;
  std::uint64_t unattributed = 0;

  constexpr std::size_t kBatch = std::size_t{1} << 16;
  std::vector<trace::FnEvent> events;
  for (std::size_t appended = 1; appended > 0;) {
    events.clear();
    const Status read = reader.next_fn_events(&events, kBatch, &appended);
    if (!read) return Result<OverheadReport>::error(read.message());
    for (const trace::FnEvent& e : events) {
      if (e.kind != trace::FnEventKind::kEnter) continue;
      // Synthetic region addresses never came from the cyg probes.
      if (e.addr >= trace::kSyntheticAddrBase) continue;
      if (e.addr < load_bias) {
        ++unattributed;
        continue;
      }
      const int fn = inventory->find_index(e.addr - load_bias);
      if (fn < 0) {
        ++unattributed;
      } else {
        ++inventory->functions[static_cast<std::size_t>(fn)].trace_calls;
      }
    }
  }
  return rank(*inventory, /*from_trace=*/true, unattributed);
}

OverheadReport predict_overhead_static(const Inventory& inventory) {
  return rank(inventory, /*from_trace=*/false, 0);
}

}  // namespace tempest::audit
