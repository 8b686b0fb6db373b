// Minimal ELF64 reader: symbol tables, section headers, relocations.
//
// The Tempest parser "reads the symbol table of the executable to map
// addresses of functions to their names". This is that component,
// implemented directly against the ELF64 layout (no libelf dependency).
// Every entry point runs one bounds-checked reader core, which reads
// the ELF header, the section table and then only the sections its
// caller uses:
//
//   * read_function_table — STT_FUNC entries from .symtab (falling
//     back to .dynsym for stripped-but-dynamic binaries), each with the
//     offset of its name in the table's string table; what the Resolver
//     keeps. Reads the first .symtab (else the first .dynsym) and its
//     string table, however many tables the file lists, in four heap
//     blocks whatever the symbol count.
//   * read_function_symbols — the same table with one string per name.
//   * read_elf_image — the full static inventory the audit pass needs:
//     every section header (with raw bytes for executable sections),
//     the complete symbol table in original index order, and all RELA
//     relocations that patch executable sections (.rela.text of
//     relocatable objects, .rela.plt of linked binaries). Reads
//     .shstrtab, the executable sections, the symbol table with its
//     string table, and those RELA sections. An image whose executable
//     sections list more bytes than the file holds is refused, so what
//     it copies stays within the file's size.
//   * parse_elf_image — read_elf_image over bytes already in memory.
//
// A path is read through common::ByteInput, the input class the trace
// and TEMPEST_FILTER readers share: opened non-blocking and read by
// pread only if it names a regular file (it may come from a peer's
// trace metadata). Debug info and every other section stay unread, so
// memory is bounded by the sections above, not by the file's size.
// Every offset/size/index from the file is validated before use, and
// every range is checked against the file's size before it is read:
// malformed input, or a file cut while it is read, returns a Status
// error, never an out-of-bounds read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace tempest::symtab {

/// One function symbol at its link-time address.
struct FuncSymbol {
  std::uint64_t value = 0;  ///< st_value (link-time address)
  std::uint64_t size = 0;   ///< st_size; 0 when the assembler omitted it
  std::string name;         ///< raw (possibly mangled) name

  bool operator==(const FuncSymbol&) const = default;
};

// ELF constants the audit layer keys on (System V ABI / x86-64 psABI).
inline constexpr std::uint16_t kEtRel = 1;   ///< relocatable object (.o)
inline constexpr std::uint16_t kEtExec = 2;  ///< fixed-address executable
inline constexpr std::uint16_t kEtDyn = 3;   ///< PIE executable / shared object
inline constexpr std::uint32_t kShtProgbits = 1;
inline constexpr std::uint32_t kShtSymtab = 2;
inline constexpr std::uint32_t kShtDynsym = 11;
inline constexpr std::uint32_t kShtRela = 4;
inline constexpr std::uint64_t kShfExecinstr = 0x4;
inline constexpr unsigned char kSttFunc = 2;
inline constexpr std::uint32_t kRX8664Pc32 = 2;    ///< R_X86_64_PC32
inline constexpr std::uint32_t kRX8664Plt32 = 4;   ///< R_X86_64_PLT32

/// One section header, name resolved through .shstrtab. Raw bytes are
/// retained only for executable sections (SHF_EXECINSTR) — that is what
/// the audit call-scan reads; keeping everything would double the
/// file's footprint for no consumer.
struct SectionInfo {
  std::string name;
  std::uint32_t type = 0;
  std::uint64_t flags = 0;
  std::uint64_t addr = 0;    ///< virtual address (0 in ET_REL objects)
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t link = 0;
  std::uint32_t info = 0;
  std::uint64_t entsize = 0;
  std::vector<unsigned char> bytes;  ///< populated iff executable()

  bool executable() const { return (flags & kShfExecinstr) != 0; }
  bool operator==(const SectionInfo&) const = default;
};

/// One symbol, kept in original symtab index order so relocation
/// r_sym indices resolve directly.
struct SymbolInfo {
  std::uint64_t value = 0;
  std::uint64_t size = 0;
  std::string name;
  std::uint16_t shndx = 0;     ///< defining section index (SHN_UNDEF = 0)
  unsigned char type = 0;      ///< STT_*
  unsigned char bind = 0;      ///< STB_*

  bool is_function() const { return type == kSttFunc; }
  bool is_defined() const { return shndx != 0; }
  bool operator==(const SymbolInfo&) const = default;
};

/// One RELA relocation patching an executable section.
struct RelocInfo {
  std::uint64_t offset = 0;        ///< fixup location (vaddr, or section
                                   ///< offset in ET_REL objects)
  std::uint32_t type = 0;          ///< R_X86_64_*
  std::uint32_t sym_index = 0;     ///< into ElfImage::symbols
  std::int64_t addend = 0;
  std::uint32_t target_section = 0;  ///< section index the fixup lands in

  bool operator==(const RelocInfo&) const = default;
};

/// Everything the static audit needs from one object or executable.
struct ElfImage {
  std::uint16_t elf_type = 0;  ///< ET_REL / ET_EXEC / ET_DYN
  std::vector<SectionInfo> sections;
  std::vector<SymbolInfo> symbols;   ///< full table, original index order
  bool symbols_from_dynsym = false;  ///< .symtab absent, fell back
  std::vector<RelocInfo> relocations;  ///< only those hitting exec sections

  bool operator==(const ElfImage&) const = default;
};

/// The function symbols of one symbol table, their names left in that
/// table's string table: what a Resolver keeps, read with O(1)
/// allocations however many symbols the table holds.
struct FunctionTable {
  struct Entry {
    std::uint64_t value = 0;  ///< st_value (link-time address)
    std::uint64_t size = 0;   ///< st_size; 0 when the assembler omitted it
    std::uint64_t name = 0;   ///< offset of its NUL-terminated name in `names`
  };
  std::vector<Entry> entries;  ///< symbol-table order
  std::vector<char> names;     ///< the string table
};

/// The STT_FUNC entries with a nonzero address and a non-empty name, of
/// the first .symtab, or else of the first .dynsym, that has any.
/// Errors cover missing files, anything but a regular file, non-ELF
/// input, wrong class/endianness, truncation and a short read, and name
/// the path.
Result<FunctionTable> read_function_table(const std::string& path);

/// read_function_table with each name copied out: one string per
/// symbol, for callers that want them. Same table, same errors.
Result<std::vector<FuncSymbol>> read_function_symbols(const std::string& path);

/// Parse the full static inventory from an ELF64 file (see ElfImage).
/// Accepts linked executables and relocatable objects alike; the same
/// malformed-input contract as read_function_symbols applies.
Result<ElfImage> read_elf_image(const std::string& path);

/// In-memory variant of read_elf_image for callers that already hold
/// the file bytes (fuzz tests craft images directly). Same reader core,
/// so the same image or error; messages omit the path.
Result<ElfImage> parse_elf_image(const std::vector<char>& file);

}  // namespace tempest::symtab
