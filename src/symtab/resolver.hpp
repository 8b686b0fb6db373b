// Runtime address -> function name resolution.
//
// Combines the ELF symbol table with the load bias (PIE executables
// relocate), producing sorted [start, end) ranges for binary-searched
// lookup. Each range holds the offset of its raw name in one buffer of
// names (the executable's string table, as read_function_table returns
// it), so a build allocates O(1) times however many symbols there are;
// a name is demangled when an address resolves to it. Addresses the
// table misses render as hex so the profile is still usable. A
// resolver for the running process (for_current_process) first asks
// dladdr about them, e.g. for shared-library functions.
// dladdr looks in this process's own address space, which says nothing
// about addresses another process recorded, so every other resolver (a
// trace's executable and bias) renders them as hex.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "symtab/elf.hpp"

namespace tempest::symtab {

/// Demangle a C++ symbol; returns the input unchanged when it is not a
/// mangled name.
std::string demangle(const std::string& name);

/// Load bias of the main executable (0 for non-PIE).
std::uint64_t current_load_bias();

class Resolver {
 public:
  /// Build from explicit symbols and bias (offline trace parsing).
  Resolver(std::vector<FuncSymbol> symbols, std::uint64_t load_bias);

  /// Build for the running process: /proc/self/exe + current bias.
  static Result<Resolver> for_current_process();

  /// Build for a recorded executable path + recorded bias.
  static Result<Resolver> for_executable(const std::string& path,
                                         std::uint64_t load_bias);

  /// Resolve a runtime address to a demangled function name.
  std::string resolve(std::uint64_t addr) const;

  /// Resolve, reporting whether the address was named (by the symbol
  /// table, or by dladdr for the running process); false means hex.
  bool resolve_checked(std::uint64_t addr, std::string* name) const;

  std::size_t symbol_count() const { return ranges_.size(); }

 private:
  Resolver() = default;
  /// Ranges from `table`'s entries shifted by `load_bias`, its names kept.
  void build(FunctionTable table, std::uint64_t load_bias);

  struct Range {
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t name;  ///< offset of the raw name in names_
  };
  std::vector<Range> ranges_;  ///< sorted by start
  std::vector<char> names_;    ///< NUL-terminated raw names
  bool in_process_ = false;    ///< set by for_current_process: dladdr may help
};

}  // namespace tempest::symtab
