#include "symtab/elf.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tempest::symtab {
namespace {

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

/// Overflow-safe "does [offset, offset+size) fit inside the file?".
/// `offset + size > file.size()` alone wraps for hostile 64-bit values.
bool range_in_file(const std::vector<char>& file, std::uint64_t offset,
                   std::uint64_t size) {
  return offset <= file.size() && size <= file.size() - offset;
}

/// Read a NUL-terminated name out of a string-table section. Returns
/// false (never reads out of bounds) when the offset is outside the
/// table or the table ends before a terminator.
bool read_name(const std::vector<char>& file, const Elf64ShdrFull& strtab,
               std::uint32_t name_off, std::string* out) {
  if (!range_in_file(file, strtab.sh_offset, strtab.sh_size)) return false;
  if (name_off >= strtab.sh_size) return false;
  const char* base = file.data() + strtab.sh_offset + name_off;
  const std::size_t max_len = strtab.sh_size - name_off;
  const std::size_t len = strnlen(base, max_len);
  if (len == max_len) return false;  // table not NUL-terminated here
  out->assign(base, len);
  return true;
}

/// Parse and validate the ELF header plus the section-header table.
/// Shared front end of both public entry points.
Status read_sections(const std::vector<char>& file, Elf64Ehdr* ehdr,
                     std::vector<Elf64ShdrFull>* sections) {
  if (file.size() < sizeof(Elf64Ehdr)) {
    return Status::error("file too small for ELF header");
  }
  std::memcpy(ehdr, file.data(), sizeof(*ehdr));
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
  if (!range_in_file(file, ehdr->e_shoff, table_bytes)) {
    return Status::error("section headers beyond end of file");
  }
  sections->resize(ehdr->e_shnum);
  for (std::size_t i = 0; i < sections->size(); ++i) {
    std::memcpy(&(*sections)[i],
                file.data() + ehdr->e_shoff + i * sizeof(Elf64ShdrFull),
                sizeof(Elf64ShdrFull));
  }
  return Status::ok();
}

Result<std::vector<FuncSymbol>> extract(const std::vector<char>& file,
                                        const Elf64ShdrFull& symtab,
                                        const Elf64ShdrFull& strtab) {
  if (!range_in_file(file, symtab.sh_offset, symtab.sh_size) ||
      !range_in_file(file, strtab.sh_offset, strtab.sh_size)) {
    return Result<std::vector<FuncSymbol>>::error("ELF: section beyond end of file");
  }
  if (symtab.sh_entsize != sizeof(Elf64Sym)) {
    return Result<std::vector<FuncSymbol>>::error("ELF: unexpected symbol entry size");
  }
  const std::size_t count = symtab.sh_size / sizeof(Elf64Sym);

  std::vector<FuncSymbol> out;
  out.reserve(count / 4);
  for (std::size_t i = 0; i < count; ++i) {
    Elf64Sym sym;
    std::memcpy(&sym, file.data() + symtab.sh_offset + i * sizeof(Elf64Sym), sizeof(sym));
    if ((sym.st_info & 0x0f) != kSttFunc || sym.st_value == 0) continue;
    std::string name;
    if (!read_name(file, strtab, sym.st_name, &name) || name.empty()) continue;
    out.push_back({sym.st_value, sym.st_size, std::move(name)});
  }
  return out;
}

/// Owns an open file descriptor.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// The whole of a regular file, read at its size into one buffer. The
/// path may come from a peer's trace metadata, so anything else — a FIFO
/// that would block, a device that never ends — is refused unread.
Result<std::vector<char>> slurp_file(const std::string& path) {
  const FileDescriptor fd(::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC));
  if (fd.get() < 0) return Result<std::vector<char>>::error("cannot open " + path);
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return Result<std::vector<char>>::error(path + ": not a regular file");
  }
  std::vector<char> bytes(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd.get(), bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);  // the file shrank while it was read
  return bytes;
}

}  // namespace

Result<std::vector<FuncSymbol>> read_function_symbols(const std::string& path) {
  auto file = slurp_file(path);
  if (!file.is_ok()) return Result<std::vector<FuncSymbol>>::error(file.message());

  Elf64Ehdr ehdr;
  std::vector<Elf64ShdrFull> sections;
  const Status parsed = read_sections(file.value(), &ehdr, &sections);
  if (!parsed) {
    return Result<std::vector<FuncSymbol>>::error(parsed.message() + ": " + path);
  }

  // Prefer the full .symtab; fall back to .dynsym.
  for (std::uint32_t want : {kShtSymtab, kShtDynsym}) {
    for (const auto& sec : sections) {
      if (sec.sh_type != want) continue;
      if (sec.sh_link >= sections.size()) continue;
      auto result = extract(file.value(), sec, sections[sec.sh_link]);
      if (result.is_ok() && !result.value().empty()) return result;
    }
  }
  return Result<std::vector<FuncSymbol>>::error("no function symbols found in " + path);
}

Result<ElfImage> parse_elf_image(const std::vector<char>& file) {
  Elf64Ehdr ehdr;
  std::vector<Elf64ShdrFull> raw_sections;
  const Status parsed = read_sections(file, &ehdr, &raw_sections);
  if (!parsed) return Result<ElfImage>::error(parsed.message());

  ElfImage image;
  image.elf_type = ehdr.e_type;

  // Section names resolve through .shstrtab; a bogus e_shstrndx just
  // leaves names empty (the audit keys on types and flags, not names).
  const Elf64ShdrFull* shstr = ehdr.e_shstrndx < raw_sections.size()
                                   ? &raw_sections[ehdr.e_shstrndx]
                                   : nullptr;

  image.sections.reserve(raw_sections.size());
  for (const auto& raw : raw_sections) {
    SectionInfo sec;
    if (shstr != nullptr) {
      (void)read_name(file, *shstr, raw.sh_name, &sec.name);
    }
    sec.type = raw.sh_type;
    sec.flags = raw.sh_flags;
    sec.addr = raw.sh_addr;
    sec.offset = raw.sh_offset;
    sec.size = raw.sh_size;
    sec.link = raw.sh_link;
    sec.info = raw.sh_info;
    sec.entsize = raw.sh_entsize;
    if (sec.executable() && raw.sh_type != kShtNobits && raw.sh_size > 0) {
      if (!range_in_file(file, raw.sh_offset, raw.sh_size)) {
        return Result<ElfImage>::error("executable section beyond end of file");
      }
      const auto* base =
          reinterpret_cast<const unsigned char*>(file.data() + raw.sh_offset);
      sec.bytes.assign(base, base + raw.sh_size);
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
    if (!range_in_file(file, symtab.sh_offset, symtab.sh_size)) {
      return Result<ElfImage>::error("symbol table beyond end of file");
    }
    if (symtab.sh_entsize != sizeof(Elf64Sym)) {
      return Result<ElfImage>::error("unexpected symbol entry size");
    }
    if (symtab.sh_link >= raw_sections.size()) {
      return Result<ElfImage>::error("symbol table links to missing string table");
    }
    const Elf64ShdrFull& strtab = raw_sections[symtab.sh_link];
    const std::size_t count = symtab.sh_size / sizeof(Elf64Sym);
    image.symbols.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Elf64Sym raw;
      std::memcpy(&raw, file.data() + symtab.sh_offset + i * sizeof(Elf64Sym),
                  sizeof(raw));
      SymbolInfo sym;
      sym.value = raw.st_value;
      sym.size = raw.st_size;
      sym.shndx = raw.st_shndx;
      sym.type = raw.st_info & 0x0f;
      sym.bind = static_cast<unsigned char>(raw.st_info >> 4);
      // An unreadable name is an empty name, not a parse failure — the
      // rest of the table is still useful.
      (void)read_name(file, strtab, raw.st_name, &sym.name);
      image.symbols.push_back(std::move(sym));
    }
  }

  // RELA sections whose sh_info names an executable section: .rela.text
  // in relocatable objects, .rela.plt in linked binaries. SHT_REL (no
  // addend) does not occur on x86-64.
  for (const auto& raw : raw_sections) {
    if (raw.sh_type != kShtRela) continue;
    if (raw.sh_info >= image.sections.size()) continue;
    if (!image.sections[raw.sh_info].executable()) continue;
    if (!range_in_file(file, raw.sh_offset, raw.sh_size)) {
      return Result<ElfImage>::error("relocation section beyond end of file");
    }
    if (raw.sh_entsize != sizeof(Elf64Rela)) {
      return Result<ElfImage>::error("unexpected relocation entry size");
    }
    const std::size_t count = raw.sh_size / sizeof(Elf64Rela);
    for (std::size_t i = 0; i < count; ++i) {
      Elf64Rela rela;
      std::memcpy(&rela, file.data() + raw.sh_offset + i * sizeof(Elf64Rela),
                  sizeof(rela));
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

Result<ElfImage> read_elf_image(const std::string& path) {
  auto file = slurp_file(path);
  if (!file.is_ok()) return Result<ElfImage>::error(file.message());
  auto image = parse_elf_image(file.value());
  if (!image.is_ok()) {
    return Result<ElfImage>::error(image.message() + ": " + path);
  }
  return image;
}

}  // namespace tempest::symtab
