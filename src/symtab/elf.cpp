#include "symtab/elf.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/byte_input.hpp"

namespace tempest::symtab {
namespace {

using common::ByteInput;

// ELF64 structures, laid out per the System V ABI. Defined locally so
// the parser also builds on non-ELF hosts (where it just never runs).
#pragma pack(push, 1)
struct Elf64Ehdr {
  unsigned char e_ident[16];
  std::uint16_t e_type;
  std::uint16_t e_machine;
  std::uint32_t e_version;
  std::uint64_t e_entry;
  std::uint64_t e_phoff;
  std::uint64_t e_shoff;
  std::uint32_t e_flags;
  std::uint16_t e_ehsize;
  std::uint16_t e_phentsize;
  std::uint16_t e_phnum;
  std::uint16_t e_shentsize;
  std::uint16_t e_shnum;
  std::uint16_t e_shstrndx;
};

struct Elf64ShdrFull {
  std::uint32_t sh_name;
  std::uint32_t sh_type;
  std::uint64_t sh_flags;
  std::uint64_t sh_addr;
  std::uint64_t sh_offset;
  std::uint64_t sh_size;
  std::uint32_t sh_link;
  std::uint32_t sh_info;
  std::uint64_t sh_addralign;
  std::uint64_t sh_entsize;
};

struct Elf64Sym {
  std::uint32_t st_name;
  unsigned char st_info;
  unsigned char st_other;
  std::uint16_t st_shndx;
  std::uint64_t st_value;
  std::uint64_t st_size;
};

struct Elf64Rela {
  std::uint64_t r_offset;
  std::uint64_t r_info;
  std::int64_t r_addend;
};
#pragma pack(pop)

constexpr std::uint32_t kShtNobits = 8;  // .bss: sh_offset is meaningless

bool contains(const ByteInput& bytes, const Elf64ShdrFull& sec) {
  return bytes.contains(sec.sh_offset, sec.sh_size);
}

/// The whole entries of a section that fits the image, as `Entry`
/// records (a trailing partial entry is ignored).
template <typename Entry>
Status read_entries(const ByteInput& bytes, const Elf64ShdrFull& sec,
                    std::vector<Entry>* out) {
  out->resize(sec.sh_size / sizeof(Entry));
  return bytes.read(sec.sh_offset, out->size() * sizeof(Entry), out->data());
}

/// A string table's bytes; empty when the section does not fit the
/// image, so every name read through it comes back empty.
Status read_string_table(const ByteInput& bytes, const Elf64ShdrFull& sec,
                         std::vector<char>* out) {
  out->clear();
  if (!contains(bytes, sec)) return Status::ok();
  return read_entries(bytes, sec, out);
}

/// The length of the NUL-terminated name at `name_off` in a string
/// table. Returns false (never reads out of bounds) when the offset is
/// outside the table or the table ends before a terminator.
bool name_length(const std::vector<char>& table, std::uint32_t name_off,
                 std::size_t* len) {
  if (name_off >= table.size()) return false;
  const std::size_t max_len = table.size() - name_off;
  *len = strnlen(table.data() + name_off, max_len);
  return *len < max_len;  // else the table is not NUL-terminated here
}

/// Read a NUL-terminated name out of a string table; false as
/// name_length.
bool read_name(const std::vector<char>& table, std::uint32_t name_off,
               std::string* out) {
  std::size_t len = 0;
  if (!name_length(table, name_off, &len)) return false;
  out->assign(table.data() + name_off, len);
  return true;
}

/// Read and validate the ELF header plus the section-header table: the
/// front end of every entry point.
Status read_headers(const ByteInput& bytes, Elf64Ehdr* ehdr,
                    std::vector<Elf64ShdrFull>* sections) {
  if (!bytes.contains(0, sizeof(Elf64Ehdr))) {
    return Status::error("file too small for ELF header");
  }
  const Status read = bytes.read(0, sizeof(Elf64Ehdr), ehdr);
  if (!read) return read;
  if (std::memcmp(ehdr->e_ident, "\x7f" "ELF", 4) != 0) {
    return Status::error("not an ELF file");
  }
  if (ehdr->e_ident[4] != 2 /* ELFCLASS64 */) {
    return Status::error("only ELF64 is supported");
  }
  if (ehdr->e_ident[5] != 1 /* little-endian */) {
    return Status::error("only little-endian ELF is supported");
  }
  if (ehdr->e_shentsize != sizeof(Elf64ShdrFull)) {
    return Status::error("unexpected section header size");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(ehdr->e_shnum) * sizeof(Elf64ShdrFull);
  if (!bytes.contains(ehdr->e_shoff, table_bytes)) {
    return Status::error("section headers beyond end of file");
  }
  sections->resize(ehdr->e_shnum);
  return bytes.read(ehdr->e_shoff, table_bytes, sections->data());
}

/// Everything parse_elf_image and read_elf_image return: the section
/// table, .shstrtab, the executable sections' bytes, the chosen symbol
/// table with its string table, and the RELA sections that patch
/// executable sections. Nothing else in the image is read.
Result<ElfImage> read_image(const ByteInput& bytes) {
  using R = Result<ElfImage>;
  Elf64Ehdr ehdr;
  std::vector<Elf64ShdrFull> raw_sections;
  Status read = read_headers(bytes, &ehdr, &raw_sections);
  if (!read) return R::error(read.message());

  ElfImage image;
  image.elf_type = ehdr.e_type;

  // Section names resolve through .shstrtab; a bogus e_shstrndx just
  // leaves names empty (the audit keys on types and flags, not names).
  std::vector<char> shstrtab;
  if (ehdr.e_shstrndx < raw_sections.size()) {
    read = read_string_table(bytes, raw_sections[ehdr.e_shstrndx], &shstrtab);
    if (!read) return R::error(read.message());
  }

  // Every executable section's bytes are kept, so together they must
  // fit the file: valid files never overlap them, and a crafted one that
  // lists one range in many headers would be copied once per header.
  std::uint64_t exec_bytes = 0;
  for (const auto& raw : raw_sections) {
    if ((raw.sh_flags & kShfExecinstr) == 0 || raw.sh_type == kShtNobits ||
        raw.sh_size == 0) {
      continue;
    }
    if (!contains(bytes, raw)) {
      return R::error("executable section beyond end of file");
    }
    if (!bytes.contains(exec_bytes, raw.sh_size)) {
      return R::error("executable sections larger than the file");
    }
    exec_bytes += raw.sh_size;
  }

  image.sections.reserve(raw_sections.size());
  for (const auto& raw : raw_sections) {
    SectionInfo sec;
    (void)read_name(shstrtab, raw.sh_name, &sec.name);
    sec.type = raw.sh_type;
    sec.flags = raw.sh_flags;
    sec.addr = raw.sh_addr;
    sec.offset = raw.sh_offset;
    sec.size = raw.sh_size;
    sec.link = raw.sh_link;
    sec.info = raw.sh_info;
    sec.entsize = raw.sh_entsize;
    if (sec.executable() && raw.sh_type != kShtNobits && raw.sh_size > 0) {
      read = read_entries(bytes, raw, &sec.bytes);
      if (!read) return R::error(read.message());
    }
    image.sections.push_back(std::move(sec));
  }

  // Full symbol table in original index order (relocations index it).
  // Prefer .symtab; a stripped binary's .dynsym is better than nothing.
  int sym_index = -1;
  for (std::uint32_t want : {kShtSymtab, kShtDynsym}) {
    for (std::size_t i = 0; i < raw_sections.size() && sym_index < 0; ++i) {
      if (raw_sections[i].sh_type == want) sym_index = static_cast<int>(i);
    }
    if (sym_index >= 0) {
      image.symbols_from_dynsym = (want == kShtDynsym);
      break;
    }
  }
  if (sym_index >= 0) {
    const Elf64ShdrFull& symtab = raw_sections[static_cast<std::size_t>(sym_index)];
    if (!contains(bytes, symtab)) return R::error("symbol table beyond end of file");
    if (symtab.sh_entsize != sizeof(Elf64Sym)) {
      return R::error("unexpected symbol entry size");
    }
    if (symtab.sh_link >= raw_sections.size()) {
      return R::error("symbol table links to missing string table");
    }
    std::vector<Elf64Sym> raw_symbols;
    std::vector<char> strtab;
    read = read_entries(bytes, symtab, &raw_symbols);
    if (read) read = read_string_table(bytes, raw_sections[symtab.sh_link], &strtab);
    if (!read) return R::error(read.message());
    image.symbols.reserve(raw_symbols.size());
    for (const Elf64Sym& raw : raw_symbols) {
      SymbolInfo sym;
      sym.value = raw.st_value;
      sym.size = raw.st_size;
      sym.shndx = raw.st_shndx;
      sym.type = raw.st_info & 0x0f;
      sym.bind = static_cast<unsigned char>(raw.st_info >> 4);
      // An unreadable name is an empty name, not a parse failure — the
      // rest of the table is still useful.
      (void)read_name(strtab, raw.st_name, &sym.name);
      image.symbols.push_back(std::move(sym));
    }
  }

  // RELA sections whose sh_info names an executable section: .rela.text
  // in relocatable objects, .rela.plt in linked binaries. SHT_REL (no
  // addend) does not occur on x86-64.
  std::vector<Elf64Rela> relas;
  for (const auto& raw : raw_sections) {
    if (raw.sh_type != kShtRela) continue;
    if (raw.sh_info >= image.sections.size()) continue;
    if (!image.sections[raw.sh_info].executable()) continue;
    if (!contains(bytes, raw)) {
      return R::error("relocation section beyond end of file");
    }
    if (raw.sh_entsize != sizeof(Elf64Rela)) {
      return R::error("unexpected relocation entry size");
    }
    read = read_entries(bytes, raw, &relas);
    if (!read) return R::error(read.message());
    for (const Elf64Rela& rela : relas) {
      RelocInfo reloc;
      reloc.offset = rela.r_offset;
      reloc.type = static_cast<std::uint32_t>(rela.r_info & 0xffffffffu);
      const std::uint64_t sym = rela.r_info >> 32;
      if (sym >= image.symbols.size()) continue;  // dangling index: skip entry
      reloc.sym_index = static_cast<std::uint32_t>(sym);
      reloc.addend = rela.r_addend;
      reloc.target_section = raw.sh_info;
      image.relocations.push_back(reloc);
    }
  }
  return image;
}

}  // namespace

Result<FunctionTable> read_function_table(const std::string& path) {
  using R = Result<FunctionTable>;
  const ByteInput bytes(path, "cannot open " + path);
  if (!bytes.opened()) return R::error(bytes.opened().message());

  Elf64Ehdr ehdr;
  std::vector<Elf64ShdrFull> sections;
  Status read = read_headers(bytes, &ehdr, &sections);
  if (!read) return R::error(read.message() + ": " + path);

  // The first .symtab; failing that, the first .dynsym. A table that
  // does not fit the file, or links nowhere, is passed over. Two tables
  // at most, however many the section table lists, so a crafted file
  // cannot multiply what is read.
  std::vector<Elf64Sym> symbols;
  FunctionTable table;
  for (std::uint32_t want : {kShtSymtab, kShtDynsym}) {
    const auto sec = std::find_if(
        sections.begin(), sections.end(),
        [want](const Elf64ShdrFull& s) { return s.sh_type == want; });
    if (sec == sections.end() || sec->sh_link >= sections.size()) continue;
    const Elf64ShdrFull& names = sections[sec->sh_link];
    if (!contains(bytes, *sec) || !contains(bytes, names) ||
        sec->sh_entsize != sizeof(Elf64Sym)) {
      continue;
    }
    read = read_entries(bytes, *sec, &symbols);
    if (read) read = read_entries(bytes, names, &table.names);
    if (!read) return R::error(read.message() + ": " + path);

    table.entries.reserve(symbols.size());
    for (const Elf64Sym& sym : symbols) {
      std::size_t len = 0;
      if ((sym.st_info & 0x0f) != kSttFunc || sym.st_value == 0 ||
          !name_length(table.names, sym.st_name, &len) || len == 0) {
        continue;
      }
      table.entries.push_back({sym.st_value, sym.st_size, sym.st_name});
    }
    if (!table.entries.empty()) return table;
  }
  return R::error("no function symbols found in " + path);
}

Result<std::vector<FuncSymbol>> read_function_symbols(const std::string& path) {
  auto table = read_function_table(path);
  if (!table.is_ok()) return Result<std::vector<FuncSymbol>>::error(table.message());
  const FunctionTable& t = table.value();
  std::vector<FuncSymbol> out;
  out.reserve(t.entries.size());
  for (const FunctionTable::Entry& e : t.entries) {
    out.push_back({e.value, e.size, std::string(t.names.data() + e.name)});
  }
  return out;
}

Result<ElfImage> parse_elf_image(const std::vector<char>& file) {
  return read_image(ByteInput(std::string_view(file.data(), file.size())));
}

Result<ElfImage> read_elf_image(const std::string& path) {
  const ByteInput bytes(path, "cannot open " + path);
  if (!bytes.opened()) return Result<ElfImage>::error(bytes.opened().message());
  auto image = read_image(bytes);
  if (!image.is_ok()) {
    return Result<ElfImage>::error(image.message() + ": " + path);
  }
  return image;
}

}  // namespace tempest::symtab
