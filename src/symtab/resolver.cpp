#include "symtab/resolver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#if defined(__linux__)
#include <dlfcn.h>
#include <link.h>
#include <unistd.h>
#endif
#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace tempest::symtab {

namespace {

/// The NUL-terminated `raw` demangled into `out`; false, leaving `out`
/// alone, when it is not a mangled name.
bool demangle_into(const char* raw, std::string* out) {
#if defined(__GNUG__)
  int status = 0;
  char* demangled = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
  const bool ok = status == 0 && demangled != nullptr;
  if (ok) out->assign(demangled);
  std::free(demangled);
  return ok;
#else
  (void)raw;
  (void)out;
  return false;
#endif
}

/// Explicit symbols as a function table: their names in one buffer.
FunctionTable to_table(const std::vector<FuncSymbol>& symbols) {
  FunctionTable table;
  std::size_t bytes = 0;
  for (const FuncSymbol& sym : symbols) bytes += sym.name.size() + 1;
  table.names.reserve(bytes);
  table.entries.reserve(symbols.size());
  for (const FuncSymbol& sym : symbols) {
    table.entries.push_back({sym.value, sym.size, table.names.size()});
    table.names.insert(table.names.end(), sym.name.begin(), sym.name.end());
    table.names.push_back('\0');
  }
  return table;
}

}  // namespace

std::string demangle(const std::string& name) {
  std::string out;
  if (demangle_into(name.c_str(), &out)) return out;
  return name;
}

std::uint64_t current_load_bias() {
#if defined(__linux__)
  std::uint64_t bias = 0;
  // The first dl_iterate_phdr entry with an empty name is the main
  // executable; dlpi_addr is exactly the load bias.
  dl_iterate_phdr(
      [](struct dl_phdr_info* info, std::size_t, void* data) -> int {
        if (info->dlpi_name == nullptr || info->dlpi_name[0] == '\0') {
          *static_cast<std::uint64_t*>(data) = info->dlpi_addr;
          return 1;  // stop iteration
        }
        return 0;
      },
      &bias);
  return bias;
#else
  return 0;
#endif
}

Resolver::Resolver(std::vector<FuncSymbol> symbols, std::uint64_t load_bias) {
  build(to_table(symbols), load_bias);
}

void Resolver::build(FunctionTable table, std::uint64_t load_bias) {
  names_ = std::move(table.names);
  ranges_.reserve(table.entries.size());
  for (const FunctionTable::Entry& e : table.entries) {
    const std::uint64_t start = e.value + load_bias;
    ranges_.push_back({start, e.size > 0 ? start + e.size : start, e.name});
  }
  std::sort(ranges_.begin(), ranges_.end(),
            [](const Range& a, const Range& b) { return a.start < b.start; });
  // Zero-sized symbols (assembler stubs) extend to the next symbol.
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    if (ranges_[i].end == ranges_[i].start) {
      ranges_[i].end = (i + 1 < ranges_.size()) ? ranges_[i + 1].start
                                                : ranges_[i].start + 1;
    }
  }
}

Result<Resolver> Resolver::for_current_process() {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return Result<Resolver>::error("cannot readlink /proc/self/exe");
  buf[n] = '\0';
  auto built = for_executable(buf, current_load_bias());
  if (!built.is_ok()) return built;
  Resolver resolver = std::move(built).value();
  resolver.in_process_ = true;
  return resolver;
#else
  return Result<Resolver>::error("self-resolution requires Linux");
#endif
}

Result<Resolver> Resolver::for_executable(const std::string& path,
                                          std::uint64_t load_bias) {
  auto table = read_function_table(path);
  if (!table.is_ok()) return Result<Resolver>::error(table.message());
  Resolver resolver;
  resolver.build(std::move(table).value(), load_bias);
  return resolver;
}

bool Resolver::resolve_checked(std::uint64_t addr, std::string* name) const {
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), addr,
      [](std::uint64_t a, const Range& r) { return a < r.start; });
  if (it != ranges_.begin()) {
    const Range& r = *std::prev(it);
    if (addr >= r.start && addr < r.end) {
      const char* raw = names_.data() + r.name;
      if (!demangle_into(raw, name)) name->assign(raw);
      return true;
    }
  }
#if defined(__linux__)
  Dl_info info;
  if (in_process_ && dladdr(reinterpret_cast<void*>(addr), &info) != 0 &&
      info.dli_sname != nullptr) {
    *name = demangle(info.dli_sname);
    return true;
  }
#endif
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(addr));
  *name = buf;
  return false;
}

std::string Resolver::resolve(std::uint64_t addr) const {
  std::string name;
  resolve_checked(addr, &name);
  return name;
}

}  // namespace tempest::symtab
