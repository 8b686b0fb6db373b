// Static instrumentation audit: classification, call-graph extraction,
// coverage gaps, filter round-trips, and the trace overhead join —
// driven over hand-built ElfImages plus the real instrumented demo.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "audit/filter.hpp"
#include "audit/report.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace {

using namespace tempest::audit;
using tempest::symtab::ElfImage;
using tempest::symtab::RelocInfo;
using tempest::symtab::SectionInfo;
using tempest::symtab::SymbolInfo;

SymbolInfo make_symbol(std::string name, std::uint64_t value, std::uint64_t size,
                       std::uint16_t shndx, unsigned char type) {
  SymbolInfo sym;
  sym.name = std::move(name);
  sym.value = value;
  sym.size = size;
  sym.shndx = shndx;
  sym.type = type;
  return sym;
}

/// A relocatable object with three functions in .text (file offset
/// 0x100): f [0x00,0x20) and g [0x20,0x40) call the cyg hooks via PLT32
/// relocations; h [0x40,0x60) is deliberately hook-stripped (compiled
/// without instrumentation). f calls g, g calls h. One extra hook
/// relocation lands past every symbol — a stripped hook site.
ElfImage build_rel_image() {
  ElfImage image;
  image.elf_type = tempest::symtab::kEtRel;

  image.sections.resize(2);
  SectionInfo& text = image.sections[1];
  text.name = ".text";
  text.type = tempest::symtab::kShtProgbits;
  text.flags = tempest::symtab::kShfExecinstr;
  text.offset = 0x100;
  text.size = 0x80;

  image.symbols.push_back(SymbolInfo{});  // null entry
  image.symbols.push_back(make_symbol("f", 0x00, 0x20, 1, tempest::symtab::kSttFunc));
  image.symbols.push_back(make_symbol("g", 0x20, 0x20, 1, tempest::symtab::kSttFunc));
  image.symbols.push_back(make_symbol("h", 0x40, 0x20, 1, tempest::symtab::kSttFunc));
  image.symbols.push_back(
      make_symbol("__cyg_profile_func_enter", 0, 0, 0, 0));  // extern
  image.symbols.push_back(
      make_symbol("__cyg_profile_func_exit", 0, 0, 0, 0));   // extern

  auto add_reloc = [&](std::uint64_t offset, std::uint32_t type,
                       std::uint32_t sym) {
    RelocInfo reloc;
    reloc.offset = offset;
    reloc.type = type;
    reloc.sym_index = sym;
    reloc.addend = -4;
    reloc.target_section = 1;
    image.relocations.push_back(reloc);
  };
  add_reloc(0x05, tempest::symtab::kRX8664Plt32, 4);  // f: hook enter
  add_reloc(0x18, tempest::symtab::kRX8664Plt32, 5);  // f: hook exit
  add_reloc(0x10, tempest::symtab::kRX8664Plt32, 2);  // f -> g
  add_reloc(0x25, tempest::symtab::kRX8664Plt32, 4);  // g: hook enter
  add_reloc(0x30, tempest::symtab::kRX8664Pc32, 3);   // g -> h
  add_reloc(0x70, tempest::symtab::kRX8664Plt32, 4);  // hook site, no symbol
  return image;
}

int index_of(const Inventory& inv, const std::string& name) {
  for (std::size_t i = 0; i < inv.functions.size(); ++i) {
    if (inv.functions[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TEST(AuditClassify, RelocObjectClassification) {
  const Inventory inv = analyze_image(build_rel_image(), "fake.o");
  EXPECT_EQ(inv.elf_type, tempest::symtab::kEtRel);
  EXPECT_TRUE(inv.hooks_linked);
  ASSERT_EQ(inv.functions.size(), 3u);  // hooks excluded, f/g/h in addr order
  EXPECT_EQ(inv.functions[0].name, "f");
  EXPECT_EQ(inv.functions[0].addr, 0x100u);
  EXPECT_EQ(inv.functions[2].name, "h");

  EXPECT_TRUE(inv.functions[0].instrumented);
  EXPECT_TRUE(inv.functions[1].instrumented);
  EXPECT_FALSE(inv.functions[2].instrumented);  // the hook-stripped object
  EXPECT_EQ(inv.instrumented_count, 2u);
  EXPECT_EQ(inv.stripped_hook_sites, 1u);
}

TEST(AuditClassify, RelocObjectCallGraph) {
  const Inventory inv = analyze_image(build_rel_image(), "fake.o");
  ASSERT_EQ(inv.edges.size(), 2u);
  EXPECT_EQ(inv.edges[0].caller, 0u);  // f -> g
  EXPECT_EQ(inv.edges[0].callee, 1u);
  EXPECT_EQ(inv.edges[0].source, EdgeSource::kReloc);
  EXPECT_EQ(inv.edges[1].caller, 1u);  // g -> h
  EXPECT_EQ(inv.edges[1].callee, 2u);
  EXPECT_EQ(inv.functions[0].static_callees, 1u);
  EXPECT_EQ(inv.functions[1].static_callers, 1u);
  EXPECT_EQ(inv.functions[2].static_callers, 1u);
  EXPECT_EQ(inv.functions[2].static_callees, 0u);
}

TEST(AuditCoverage, HookStrippedFunctionIsFlaggedAsGap) {
  const Inventory inv = analyze_image(build_rel_image(), "fake.o");
  const CoverageReport coverage = build_coverage(inv);
  EXPECT_EQ(coverage.total, 3u);
  EXPECT_EQ(coverage.instrumented, 2u);
  EXPECT_EQ(coverage.uninstrumented, 1u);
  EXPECT_TRUE(coverage.hooks_linked);
  EXPECT_EQ(coverage.stripped_hook_sites, 1u);
  const int h = index_of(inv, "h");
  ASSERT_GE(h, 0);
  // h shows up both as an uninstrumented function and — because the
  // instrumented g calls it — as a silent subtree inside profiled code.
  ASSERT_EQ(coverage.uninstrumented_fns.size(), 1u);
  EXPECT_EQ(coverage.uninstrumented_fns[0], static_cast<std::uint32_t>(h));
  ASSERT_EQ(coverage.silent_subtree_fns.size(), 1u);
  EXPECT_EQ(coverage.silent_subtree_fns[0], static_cast<std::uint32_t>(h));
}

/// A linked PIE: .text at vaddr 0x1000 with two functions and a defined
/// hook; no relocations survive linking, so classification and edges
/// must come from the E8/E9 byte scan.
ElfImage build_dyn_image() {
  ElfImage image;
  image.elf_type = tempest::symtab::kEtDyn;

  image.sections.resize(2);
  SectionInfo& text = image.sections[1];
  text.name = ".text";
  text.type = tempest::symtab::kShtProgbits;
  text.flags = tempest::symtab::kShfExecinstr;
  text.addr = 0x1000;
  text.offset = 0x1000;
  text.size = 0x50;
  text.bytes.assign(0x50, 0x90);  // nop sled

  auto put_call = [&](std::size_t off, unsigned char op, std::uint64_t target) {
    text.bytes[off] = op;
    const auto rel = static_cast<std::int32_t>(
        static_cast<std::int64_t>(target) -
        static_cast<std::int64_t>(0x1000 + off + 5));
    std::memcpy(text.bytes.data() + off + 1, &rel, sizeof(rel));
  };
  put_call(0x00, 0xE8, 0x1040);  // a: call hook enter -> instrumented
  put_call(0x08, 0xE8, 0x1020);  // a: call b -> scan edge
  put_call(0x25, 0xE9, 0x1020);  // b: jmp to own entry -> loop, not an edge
  put_call(0x2D, 0xE8, 0x1111);  // decode noise: target is no entry

  image.symbols.push_back(SymbolInfo{});
  image.symbols.push_back(make_symbol("a", 0x1000, 0x20, 1, tempest::symtab::kSttFunc));
  image.symbols.push_back(make_symbol("b", 0x1020, 0x20, 1, tempest::symtab::kSttFunc));
  image.symbols.push_back(make_symbol("__cyg_profile_func_enter", 0x1040, 0x10, 1,
                                      tempest::symtab::kSttFunc));
  return image;
}

TEST(AuditClassify, LinkedBinaryScanClassification) {
  const Inventory inv = analyze_image(build_dyn_image(), "fake-pie");
  EXPECT_TRUE(inv.hooks_linked);
  ASSERT_EQ(inv.functions.size(), 2u);  // the hook itself is not workload
  EXPECT_EQ(index_of(inv, "__cyg_profile_func_enter"), -1);
  EXPECT_TRUE(inv.functions[0].instrumented);   // a
  EXPECT_FALSE(inv.functions[1].instrumented);  // b

  ASSERT_EQ(inv.edges.size(), 1u);  // self-jmp and noise call sieved out
  EXPECT_EQ(inv.edges[0].caller, 0u);
  EXPECT_EQ(inv.edges[0].callee, 1u);
  EXPECT_EQ(inv.edges[0].source, EdgeSource::kScan);

  const CoverageReport coverage = build_coverage(inv);
  ASSERT_EQ(coverage.silent_subtree_fns.size(), 1u);
  EXPECT_EQ(inv.functions[coverage.silent_subtree_fns[0]].name, "b");
}

TEST(AuditClassify, ZeroSizeSymbolsExtendToNextEntry) {
  ElfImage image = build_dyn_image();
  image.symbols[1].size = 0;  // a: assembler stub without st_size
  image.symbols[2].size = 0;  // b: last function
  const Inventory inv = analyze_image(image, "fake-pie");
  ASSERT_EQ(inv.functions.size(), 2u);
  EXPECT_EQ(inv.functions[0].size, 0x20u);  // extends to b's entry
  EXPECT_EQ(inv.functions[1].size, 1u);     // last: minimal extent
  // The call at a+0x08 still attributes to a.
  EXPECT_EQ(inv.find_index(0x1008), 0);
}

TEST(AuditClassify, FindIndexBoundaries) {
  const Inventory inv = analyze_image(build_dyn_image(), "fake-pie");
  EXPECT_EQ(inv.find_index(0x0fff), -1);
  EXPECT_EQ(inv.find_index(0x1000), 0);
  EXPECT_EQ(inv.find_index(0x101f), 0);
  EXPECT_EQ(inv.find_index(0x1020), 1);
  EXPECT_EQ(inv.find_index(0x1040), -1);  // the hook's body is no function
  EXPECT_EQ(inv.find(0x1000)->name, "a");
  EXPECT_EQ(inv.find(0x9999), nullptr);
}

TEST(AuditClassify, UninstrumentedBinaryIsValidNotError) {
  ElfImage image = build_dyn_image();
  image.symbols.pop_back();        // drop the hook symbol
  image.sections[1].bytes.assign(0x50, 0x90);  // and every call site
  const Inventory inv = analyze_image(image, "plain");
  EXPECT_FALSE(inv.hooks_linked);
  EXPECT_EQ(inv.instrumented_count, 0u);
  const CoverageReport coverage = build_coverage(inv);
  EXPECT_EQ(coverage.uninstrumented, 2u);
  EXPECT_TRUE(coverage.silent_subtree_fns.empty());  // nothing to reach from
}

TEST(AuditFilter, RoundTripPreservesRules) {
  FilterFile filter;
  filter.rules.push_back({"_ZN4slowEv", "120 calls, 97% of predicted probe events"});
  filter.rules.push_back({"plain_c_fn", ""});
  std::stringstream buffer;
  write_filter_file(buffer, filter);
  EXPECT_NE(buffer.str().find("# TEMPEST_FILTER v1"), std::string::npos);

  auto loaded = parse_filter_file(buffer.str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  ASSERT_EQ(loaded.value().rules.size(), 2u);
  EXPECT_EQ(loaded.value().rules[0], filter.rules[0]);
  EXPECT_EQ(loaded.value().rules[1], filter.rules[1]);
}

TEST(AuditFilter, RejectsUnknownDirectiveWithLineNumber) {
  auto loaded = parse_filter_file("# TEMPEST_FILTER v1\n\nsupress typo_fn\n");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.message().find("line 3"), std::string::npos);
  EXPECT_NE(loaded.message().find("supress"), std::string::npos);
}

TEST(AuditFilter, RejectsSuppressWithoutSymbol) {
  auto loaded = parse_filter_file("suppress   # no symbol here\n");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.message().find("line 1"), std::string::npos);
}

TEST(AuditFilter, SuggestSkipsMainAndCapsAtTopN) {
  Inventory inv;
  for (const char* name : {"main", "hot", "warm", "cool"}) {
    FunctionRecord fn;
    fn.addr = 0x1000 + inv.functions.size() * 0x10;
    fn.size = 0x10;
    fn.name = name;
    fn.instrumented = true;
    inv.functions.push_back(fn);
  }
  inv.functions[0].trace_calls = 100;  // main: hottest but never suggested
  inv.functions[1].trace_calls = 50;
  inv.functions[2].trace_calls = 10;
  inv.functions[3].trace_calls = 1;
  const OverheadReport overhead = [&] {
    OverheadReport r;
    r.from_trace = true;
    for (std::uint32_t i = 0; i < 4; ++i) {
      const std::uint64_t calls = inv.functions[i].trace_calls;
      r.ranked.push_back({i, calls, calls * 2, 0.0});
      r.total_probes += calls * 2;
    }
    std::sort(r.ranked.begin(), r.ranked.end(),
              [](const OverheadEntry& a, const OverheadEntry& b) {
                return a.predicted_probes > b.predicted_probes;
              });
    for (auto& e : r.ranked) {
      e.share = static_cast<double>(e.predicted_probes) /
                static_cast<double>(r.total_probes);
    }
    return r;
  }();

  const FilterFile filter = suggest_filter(inv, overhead, 2);
  ASSERT_EQ(filter.rules.size(), 2u);
  EXPECT_EQ(filter.rules[0].symbol, "hot");
  EXPECT_EQ(filter.rules[1].symbol, "warm");
  EXPECT_NE(filter.rules[0].reason.find("50 calls"), std::string::npos);

  // Determinism: ties in overhead share break on function address, so
  // repeated suggestion + serialisation is byte-identical. Give every
  // function the same call count to make the tiebreak do all the work.
  Inventory tied = inv;
  OverheadReport flat;
  flat.from_trace = true;
  for (std::uint32_t i = 0; i < 4; ++i) {
    tied.functions[i].trace_calls = 10;
    flat.ranked.push_back({i, 10, 20, 0.25});
    flat.total_probes += 20;
  }
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    std::ostringstream buffer;
    write_filter_file(buffer, suggest_filter(tied, flat, 3));
    *out = buffer.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Address order among the tied non-main functions: hot < warm < cool.
  EXPECT_LT(first.find("suppress hot"), first.find("suppress warm"));
  EXPECT_LT(first.find("suppress warm"), first.find("suppress cool"));
}

class AuditOverheadJoin : public ::testing::Test {
 protected:
  std::string trace_path() const {
    return ::testing::TempDir() + "audit_join.trace";
  }
  void TearDown() override { std::remove(trace_path().c_str()); }
};

TEST_F(AuditOverheadJoin, TraceCallCountsDriveRanking) {
  using namespace tempest::trace;
  constexpr std::uint64_t kBias = 0x555500000000ULL;

  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "fake-pie";
  t.load_bias = kBias;
  t.nodes.push_back({0, "node0"});
  t.threads.push_back({0, 0, 0});
  std::uint64_t tsc = 0;
  auto push = [&](std::uint64_t addr, FnEventKind kind) {
    t.fn_events.push_back({++tsc, addr, 0, 0, kind});
  };
  for (int i = 0; i < 3; ++i) {  // a: 3 calls
    push(kBias + 0x1000, FnEventKind::kEnter);
    push(kBias + 0x1000, FnEventKind::kExit);
  }
  push(kBias + 0x1020, FnEventKind::kEnter);  // b: 1 call
  push(kBias + 0x1020, FnEventKind::kExit);
  push(kBias + 0x4000, FnEventKind::kEnter);  // covered by no function
  t.synthetic_symbols.push_back({kSyntheticAddrBase, "region"});
  push(kSyntheticAddrBase, FnEventKind::kEnter);  // exempt from the join
  {
    std::ofstream out(trace_path(), std::ios::binary);
    ASSERT_TRUE(write_trace(out, t));
  }

  Inventory inv = analyze_image(build_dyn_image(), "fake-pie");
  auto overhead = predict_overhead(&inv, trace_path());
  ASSERT_TRUE(overhead.is_ok()) << overhead.message();
  const OverheadReport& report = overhead.value();
  EXPECT_TRUE(report.from_trace);
  EXPECT_EQ(report.unattributed_events, 1u);
  EXPECT_EQ(inv.functions[0].trace_calls, 3u);
  EXPECT_EQ(inv.functions[1].trace_calls, 1u);
  ASSERT_EQ(report.ranked.size(), 2u);
  EXPECT_EQ(report.ranked[0].fn, 0u);
  EXPECT_EQ(report.ranked[0].predicted_probes, 6u);
  EXPECT_EQ(report.total_probes, 8u);
  EXPECT_DOUBLE_EQ(report.ranked[0].share, 0.75);
}

TEST_F(AuditOverheadJoin, TraceLongerThanOneBatchJoinsEveryCall) {
  // More events than predict_overhead's 64 Ki-record batch.
  using namespace tempest::trace;
  constexpr std::uint64_t kBias = 0x555500000000ULL;
  Trace t;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "fake-pie";
  t.load_bias = kBias;
  t.nodes.push_back({0, "node0"});
  t.threads.push_back({0, 0, 0});
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    t.fn_events.push_back({2 * i, kBias + 0x1000, 0, 0, FnEventKind::kEnter});
    t.fn_events.push_back({2 * i + 1, kBias + 0x1000, 0, 0, FnEventKind::kExit});
  }
  const std::string path = ::testing::TempDir() + "audit_join_long.trace";
  ASSERT_TRUE(write_trace_file(path, t));
  Inventory inv = analyze_image(build_dyn_image(), "fake-pie");
  auto overhead = predict_overhead(&inv, path);
  std::remove(path.c_str());
  ASSERT_TRUE(overhead.is_ok()) << overhead.message();
  EXPECT_EQ(inv.functions[0].trace_calls, 40'000u);
  EXPECT_EQ(overhead.value().unattributed_events, 0u);
}

TEST_F(AuditOverheadJoin, UnreadableTraceIsError) {
  Inventory inv = analyze_image(build_dyn_image(), "fake-pie");
  auto overhead = predict_overhead(&inv, "/nonexistent/never.trace");
  ASSERT_FALSE(overhead.is_ok());
  EXPECT_NE(overhead.message().find("cannot open"), std::string::npos);
}

TEST(AuditReport, JsonAndHumanCarryStableStructure) {
  const Inventory inv = analyze_image(build_rel_image(), "fake.o");
  const CoverageReport coverage = build_coverage(inv);
  const OverheadReport overhead = predict_overhead_static(inv);

  const std::string json = to_json(inv, coverage, &overhead);
  for (const char* key :
       {"\"binary\"", "\"elf_type\"", "\"hooks_linked\"", "\"functions\"",
        "\"instrumented\"", "\"uninstrumented\"", "\"call_graph\"",
        "\"coverage\"", "\"overhead\"", "\"stripped_hook_sites\"",
        "\"silent_subtree_functions\"", "\"gaps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"elf_type\":\"rel\""), std::string::npos);
  EXPECT_NE(json.find("\"hooks_linked\":true"), std::string::npos);

  std::ostringstream human;
  write_human(human, inv, coverage, &overhead);
  EXPECT_NE(human.str().find("instrumentation audit"), std::string::npos);
  EXPECT_NE(human.str().find("coverage gaps"), std::string::npos);
  EXPECT_NE(human.str().find("h"), std::string::npos);
}

#ifdef TEMPEST_DEMO_BIN
// Structural golden against the real instrumented example binary: the
// audit must see its instrumentation, not just synthetic fixtures.
TEST(AuditGolden, TransparentDemoIsInstrumented) {
  auto analyzed = analyze_binary(TEMPEST_DEMO_BIN);
  ASSERT_TRUE(analyzed.is_ok()) << analyzed.message();
  const Inventory& inv = analyzed.value();

  EXPECT_TRUE(inv.hooks_linked);
  EXPECT_GT(inv.instrumented_count, 0u);
  EXPECT_FALSE(inv.edges.empty());
  const int main_idx = index_of(inv, "main");
  ASSERT_GE(main_idx, 0);
  EXPECT_TRUE(inv.functions[static_cast<std::size_t>(main_idx)].instrumented);
  EXPECT_EQ(index_of(inv, "__cyg_profile_func_enter"), -1);
  EXPECT_EQ(index_of(inv, "__cyg_profile_func_exit"), -1);
  ASSERT_TRUE(std::is_sorted(
      inv.functions.begin(), inv.functions.end(),
      [](const FunctionRecord& a, const FunctionRecord& b) { return a.addr < b.addr; }));

  const CoverageReport coverage = build_coverage(inv);
  EXPECT_EQ(coverage.instrumented + coverage.uninstrumented, coverage.total);
  const OverheadReport overhead = predict_overhead_static(inv);
  EXPECT_FALSE(overhead.from_trace);
  const std::string json = to_json(inv, coverage, &overhead);
  EXPECT_NE(json.find("\"hooks_linked\":true"), std::string::npos);
}
#endif

}  // namespace
