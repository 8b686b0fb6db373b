// ELF symbol-table parsing and address resolution, exercised against
// this test binary itself.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "live_heap.hpp"
#include "symtab/elf.hpp"
#include "symtab/resolver.hpp"

// External-linkage functions with known names to find in our own symtab.
extern "C" __attribute__((noinline)) int tempest_symtab_probe_fn(int x) {
  return x * 3 + 1;
}

namespace tempest_symtab_test {
__attribute__((noinline)) double cxx_probe_function(double v) { return v * 0.5; }
}  // namespace tempest_symtab_test

namespace {

using tempest::symtab::demangle;
using tempest::symtab::Resolver;

TEST(Elf, RejectsNonElfAndMissingFiles) {
  EXPECT_FALSE(tempest::symtab::read_function_symbols("/nonexistent").is_ok());
  EXPECT_FALSE(tempest::symtab::read_function_symbols("/etc/hostname").is_ok());
}

TEST(Elf, RefusesFifoAndDeviceAtOnce) {
  // A FIFO would block the read and /dev/zero never ends: both fail
  // before a byte is read, naming the path.
  const std::string fifo = ::testing::TempDir() + "/symtab_fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {fifo, std::string("/dev/zero")}) {
    const auto symbols = tempest::symtab::read_function_symbols(path);
    ASSERT_FALSE(symbols.is_ok()) << path;
    EXPECT_EQ(symbols.message(), path + ": not a regular file");
    EXPECT_FALSE(tempest::symtab::read_elf_image(path).is_ok()) << path;
  }
  std::remove(fifo.c_str());
}

TEST(Elf, SparseHoleAfterTheImageIsNeverRead) {
  // A copy of this binary, then the same copy extended by a 512 MiB
  // hole, as a session's metadata may name any large regular file. The
  // readers fetch the header, the section table and the sections they
  // use, so the hole is never read: the same results, in under 4 MiB
  // of heap.
  const std::string path = ::testing::TempDir() + "/symtab_holed_exe." +
                           std::to_string(::getpid());
  {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    ASSERT_TRUE(out.good());
  }
  const auto symbols = tempest::symtab::read_function_symbols(path);
  const auto image = tempest::symtab::read_elf_image(path);
  ASSERT_TRUE(symbols.is_ok()) << symbols.message();
  ASSERT_TRUE(image.is_ok()) << image.message();

  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  struct stat st {};
  ASSERT_EQ(::fstat(fd, &st), 0);
  ASSERT_EQ(::ftruncate(fd, st.st_size + (off_t{512} << 20)), 0);
  ::close(fd);

  std::optional<tempest::Result<std::vector<tempest::symtab::FuncSymbol>>> holed_symbols;
  std::optional<tempest::Result<tempest::symtab::ElfImage>> holed_image;
  const std::int64_t peak = live_heap::peak_heap([&] {
    holed_symbols.emplace(tempest::symtab::read_function_symbols(path));
    holed_image.emplace(tempest::symtab::read_elf_image(path));
  });
  std::remove(path.c_str());
  ASSERT_TRUE(holed_symbols->is_ok()) << holed_symbols->message();
  ASSERT_TRUE(holed_image->is_ok()) << holed_image->message();
  EXPECT_TRUE(holed_symbols->value() == symbols.value());
  EXPECT_TRUE(holed_image->value() == image.value());
  EXPECT_LT(peak, std::int64_t{4} << 20);
}

TEST(Elf, ReadsOwnSymbols) {
  auto symbols = tempest::symtab::read_function_symbols("/proc/self/exe");
  ASSERT_TRUE(symbols.is_ok()) << symbols.message();
  EXPECT_GT(symbols.value().size(), 100u);
  bool found_probe = false;
  for (const auto& s : symbols.value()) {
    if (s.name == "tempest_symtab_probe_fn") {
      found_probe = true;
      EXPECT_GT(s.size, 0u);
    }
  }
  EXPECT_TRUE(found_probe);
}

TEST(Resolver, ResolvesCFunctionByRuntimeAddress) {
  auto resolver = Resolver::for_current_process();
  ASSERT_TRUE(resolver.is_ok()) << resolver.message();
  // Force materialisation so the pointer is the real function.
  volatile int sink = tempest_symtab_probe_fn(2);
  (void)sink;
  const auto addr = reinterpret_cast<std::uint64_t>(&tempest_symtab_probe_fn);
  EXPECT_EQ(resolver.value().resolve(addr), "tempest_symtab_probe_fn");
  // Interior address (a few bytes in) still resolves to the function.
  EXPECT_EQ(resolver.value().resolve(addr + 3), "tempest_symtab_probe_fn");
}

TEST(Resolver, ResolvesAndDemanglesCxxFunction) {
  auto resolver = Resolver::for_current_process();
  ASSERT_TRUE(resolver.is_ok());
  volatile double sink = tempest_symtab_test::cxx_probe_function(4.0);
  (void)sink;
  const auto addr =
      reinterpret_cast<std::uint64_t>(&tempest_symtab_test::cxx_probe_function);
  const std::string name = resolver.value().resolve(addr);
  EXPECT_NE(name.find("cxx_probe_function"), std::string::npos) << name;
  EXPECT_NE(name.find("tempest_symtab_test"), std::string::npos) << name;
}

TEST(Resolver, UnknownAddressRendersHex) {
  Resolver resolver({}, 0);
  std::string name;
  EXPECT_FALSE(resolver.resolve_checked(0x12345678, &name));
  EXPECT_EQ(name, "0x12345678");
}

TEST(Resolver, OnlyTheRunningProcessAsksDladdr) {
  // qsort lives in libc, outside any table built here. An offline
  // resolver must not name it after whatever this process maps there;
  // the resolver for the running process may.
  const auto addr = reinterpret_cast<std::uint64_t>(&std::qsort);
  Resolver offline({{0x1000, 0x10, "fn"}}, 0);
  std::string name;
  EXPECT_FALSE(offline.resolve_checked(addr, &name));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(addr));
  EXPECT_EQ(name, hex);

  auto self = Resolver::for_current_process();
  ASSERT_TRUE(self.is_ok()) << self.message();
  EXPECT_TRUE(self.value().resolve_checked(addr, &name));
  EXPECT_NE(name.find("qsort"), std::string::npos) << name;  // sanitizers wrap it
}

TEST(Resolver, ExecutableAndExplicitSymbolsResolveAlike) {
  // for_executable keeps the string table and each symbol's offset in
  // it; the explicit constructor packs the names it is given. Every
  // function's start, its last byte and the byte after it must resolve
  // to the same name, or miss alike, either way.
  const std::uint64_t bias = 0x10000;
  const auto symbols = tempest::symtab::read_function_symbols("/proc/self/exe");
  ASSERT_TRUE(symbols.is_ok()) << symbols.message();
  const auto from_file = Resolver::for_executable("/proc/self/exe", bias);
  ASSERT_TRUE(from_file.is_ok()) << from_file.message();
  const Resolver explicit_symbols(symbols.value(), bias);
  ASSERT_EQ(from_file.value().symbol_count(), explicit_symbols.symbol_count());
  std::size_t checked = 0;
  for (const auto& sym : symbols.value()) {
    const std::uint64_t start = sym.value + bias;
    const std::uint64_t last = start + (sym.size > 0 ? sym.size - 1 : 0);
    for (const std::uint64_t addr : {start, last, last + 1}) {
      std::string file_name;
      std::string explicit_name;
      const bool file_named = from_file.value().resolve_checked(addr, &file_name);
      const bool explicit_named = explicit_symbols.resolve_checked(addr, &explicit_name);
      ASSERT_EQ(file_named, explicit_named) << sym.name << " at 0x" << std::hex << addr;
      ASSERT_EQ(file_name, explicit_name) << sym.name << " at 0x" << std::hex << addr;
      ++checked;
    }
  }
  EXPECT_GT(checked, 300u);
}

TEST(Resolver, BuildingFromAnExecutableAllocatesAFewTimes) {
  // The section table, the symbol and string tables and the ranges:
  // O(1) allocations, not one string per symbol.
  std::optional<tempest::Result<Resolver>> built;
  const std::int64_t allocations = live_heap::allocations(
      [&] { built.emplace(Resolver::for_executable("/proc/self/exe", 0)); });
  ASSERT_TRUE(built->is_ok()) << built->message();
  EXPECT_GT(built->value().symbol_count(), 100u);
  EXPECT_LT(allocations, 16);
}

TEST(Resolver, ZeroSizedSymbolExtendsToNext) {
  Resolver resolver({{0x1000, 0, "stub"}, {0x1100, 0x10, "real"}}, 0);
  EXPECT_EQ(resolver.resolve(0x1050), "stub");
  EXPECT_EQ(resolver.resolve(0x1105), "real");
  std::string name;
  EXPECT_FALSE(resolver.resolve_checked(0x1150, &name));  // past "real"
}

TEST(Resolver, LoadBiasShiftsRanges) {
  Resolver resolver({{0x1000, 0x100, "fn"}}, 0x7f0000000000ULL);
  EXPECT_EQ(resolver.resolve(0x7f0000001080ULL), "fn");
  std::string name;
  EXPECT_FALSE(resolver.resolve_checked(0x1080, &name));  // unbiased misses
}

TEST(Demangle, HandlesMangledAndPlainNames) {
  EXPECT_EQ(demangle("_Z3foov"), "foo()");
  EXPECT_EQ(demangle("plain_c_name"), "plain_c_name");
  EXPECT_EQ(demangle(""), "");
}

}  // namespace
