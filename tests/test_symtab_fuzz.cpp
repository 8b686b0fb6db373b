// ELF-parser robustness: synthetic images, truncation, and corruption
// fuzzing. parse_elf_image must never crash or read out of bounds —
// malformed input either parses to a structurally valid ElfImage or
// fails with a Status (ASan/UBSan CI backs the "never OOB" claim).
// Every image is also written to a file and read back through the path
// entry points, which fetch ranges by pread: read_elf_image must give
// the same image or fail too, and read_function_symbols must return.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "live_heap.hpp"
#include "symtab/elf.hpp"

namespace {

using namespace tempest::symtab;

// Mirror of the on-disk ELF64 structures (the parser defines its own
// copies privately; the builder needs the same layout to craft inputs).
#pragma pack(push, 1)
struct RawEhdr {
  unsigned char e_ident[16];
  std::uint16_t e_type, e_machine;
  std::uint32_t e_version;
  std::uint64_t e_entry, e_phoff, e_shoff;
  std::uint32_t e_flags;
  std::uint16_t e_ehsize, e_phentsize, e_phnum, e_shentsize, e_shnum,
      e_shstrndx;
};
struct RawShdr {
  std::uint32_t sh_name, sh_type;
  std::uint64_t sh_flags, sh_addr, sh_offset, sh_size;
  std::uint32_t sh_link, sh_info;
  std::uint64_t sh_addralign, sh_entsize;
};
struct RawSym {
  std::uint32_t st_name;
  unsigned char st_info, st_other;
  std::uint16_t st_shndx;
  std::uint64_t st_value, st_size;
};
struct RawRela {
  std::uint64_t r_offset, r_info;
  std::int64_t r_addend;
};
#pragma pack(pop)

static_assert(sizeof(RawEhdr) == 64);
static_assert(sizeof(RawShdr) == 64);
static_assert(sizeof(RawSym) == 24);
static_assert(sizeof(RawRela) == 24);

/// A hand-built ET_REL object: .text with one instrumented function
/// `f` (a PLT32 reloc against an undefined __cyg_profile_func_enter),
/// full symtab/strtab/shstrtab, and the section header table last.
/// Field offsets are exposed so tests can corrupt specific headers.
struct SyntheticElf {
  std::vector<char> bytes;
  std::size_t shoff = 0;        ///< section header table
  std::size_t text_off = 0;     ///< .text payload
  std::size_t symtab_off = 0;   ///< first Elf64Sym
  std::size_t rela_off = 0;     ///< first Elf64Rela

  std::size_t shdr_off(std::size_t index) const {
    return shoff + index * sizeof(RawShdr);
  }
  RawShdr* shdr(std::size_t index) {
    return reinterpret_cast<RawShdr*>(bytes.data() + shdr_off(index));
  }
  RawEhdr* ehdr() { return reinterpret_cast<RawEhdr*>(bytes.data()); }
};

SyntheticElf build_synthetic_rel() {
  SyntheticElf out;
  auto append = [&](const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    out.bytes.insert(out.bytes.end(), p, p + n);
  };

  RawEhdr ehdr{};
  std::memcpy(ehdr.e_ident, "\x7f" "ELF", 4);
  ehdr.e_ident[4] = 2;  // ELFCLASS64
  ehdr.e_ident[5] = 1;  // little-endian
  ehdr.e_ident[6] = 1;
  ehdr.e_type = kEtRel;
  ehdr.e_machine = 62;  // EM_X86_64
  ehdr.e_version = 1;
  ehdr.e_ehsize = sizeof(RawEhdr);
  ehdr.e_shentsize = sizeof(RawShdr);
  ehdr.e_shnum = 6;
  ehdr.e_shstrndx = 5;
  append(&ehdr, sizeof(ehdr));  // e_shoff patched below

  // .text: 16 bytes; a call placeholder at offset 4 (the reloc target).
  out.text_off = out.bytes.size();
  const unsigned char text[16] = {0x55, 0x48, 0x89, 0xe5, 0xe8, 0, 0, 0,
                                  0,    0x90, 0x90, 0x5d, 0xc3, 0x90, 0x90, 0x90};
  append(text, sizeof(text));

  // .symtab: null, f (STT_FUNC in .text), undefined hook symbol.
  out.symtab_off = out.bytes.size();
  RawSym syms[3]{};
  syms[1].st_name = 1;  // "f"
  syms[1].st_info = 0x12;  // GLOBAL | FUNC
  syms[1].st_shndx = 1;
  syms[1].st_size = 16;
  syms[2].st_name = 3;  // "__cyg_profile_func_enter"
  syms[2].st_info = 0x10;  // GLOBAL | NOTYPE, undefined
  append(syms, sizeof(syms));

  // .strtab
  const char strtab[] = "\0f\0__cyg_profile_func_enter";
  const std::size_t strtab_off = out.bytes.size();
  append(strtab, sizeof(strtab));

  // .rela.text: one PLT32 against the hook symbol, patching .text+5.
  out.rela_off = out.bytes.size();
  RawRela rela{};
  rela.r_offset = 5;
  rela.r_info = (std::uint64_t{2} << 32) | kRX8664Plt32;
  rela.r_addend = -4;
  append(&rela, sizeof(rela));

  // .shstrtab
  const char shstrtab[] = "\0.text\0.symtab\0.strtab\0.rela.text\0.shstrtab";
  const std::size_t shstrtab_off = out.bytes.size();
  append(shstrtab, sizeof(shstrtab));

  // Section header table, last so every truncation clips it.
  out.shoff = out.bytes.size();
  RawShdr shdrs[6]{};
  shdrs[1] = {1, kShtProgbits, kShfExecinstr | 0x2, 0, out.text_off, 16,
              0, 0, 16, 0};
  shdrs[2] = {7, kShtSymtab, 0, 0, out.symtab_off, sizeof(syms),
              3, 1, 8, sizeof(RawSym)};
  shdrs[3] = {15, 3 /* SHT_STRTAB */, 0, 0, strtab_off, sizeof(strtab),
              0, 0, 1, 0};
  shdrs[4] = {23, kShtRela, 0, 0, out.rela_off, sizeof(rela),
              2, 1, 8, sizeof(RawRela)};
  shdrs[5] = {34, 3 /* SHT_STRTAB */, 0, 0, shstrtab_off, sizeof(shstrtab),
              0, 0, 1, 0};
  append(shdrs, sizeof(shdrs));

  out.ehdr()->e_shoff = out.shoff;
  return out;
}

/// `bytes` written to this process's temp file; returns its path.
std::string write_temp(const std::vector<char>& bytes) {
  const std::string path = ::testing::TempDir() + "/symtab_fuzz." +
                           std::to_string(::getpid()) + ".elf";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

/// parse_elf_image(bytes), checked against the same bytes read from a
/// file: read_elf_image must return the same image, or an error when
/// parse_elf_image does, and read_function_symbols must return.
tempest::Result<ElfImage> parse_both(const std::vector<char>& bytes) {
  tempest::Result<ElfImage> memory = parse_elf_image(bytes);
  const std::string path = write_temp(bytes);
  const tempest::Result<ElfImage> file = read_elf_image(path);
  EXPECT_EQ(file.is_ok(), memory.is_ok())
      << "file: " << file.message() << "; memory: " << memory.message();
  if (file.is_ok() && memory.is_ok()) {
    EXPECT_TRUE(file.value() == memory.value());
  }
  (void)read_function_symbols(path);
  std::remove(path.c_str());
  return memory;
}

TEST(SymtabFuzz, SyntheticRelParses) {
  SyntheticElf elf = build_synthetic_rel();
  auto image = parse_both(elf.bytes);
  ASSERT_TRUE(image.is_ok()) << image.message();
  const ElfImage& im = image.value();
  EXPECT_EQ(im.elf_type, kEtRel);
  ASSERT_EQ(im.sections.size(), 6u);
  EXPECT_EQ(im.sections[1].name, ".text");
  EXPECT_TRUE(im.sections[1].executable());
  EXPECT_EQ(im.sections[1].bytes.size(), 16u);
  EXPECT_EQ(im.sections[1].bytes[4], 0xe8);
  ASSERT_EQ(im.symbols.size(), 3u);
  EXPECT_FALSE(im.symbols_from_dynsym);
  EXPECT_EQ(im.symbols[1].name, "f");
  EXPECT_TRUE(im.symbols[1].is_function());
  EXPECT_TRUE(im.symbols[1].is_defined());
  EXPECT_EQ(im.symbols[2].name, "__cyg_profile_func_enter");
  EXPECT_FALSE(im.symbols[2].is_defined());
  ASSERT_EQ(im.relocations.size(), 1u);
  EXPECT_EQ(im.relocations[0].type, kRX8664Plt32);
  EXPECT_EQ(im.relocations[0].sym_index, 2u);
  EXPECT_EQ(im.relocations[0].offset, 5u);
  EXPECT_EQ(im.relocations[0].addend, -4);
  EXPECT_EQ(im.relocations[0].target_section, 1u);  // lands in .text
}

TEST(SymtabFuzz, TruncationAtEveryOffsetFailsCleanly) {
  const SyntheticElf elf = build_synthetic_rel();
  // The section header table sits last, so every strict prefix is
  // missing at least part of it: parse must error, never crash.
  for (std::size_t cut = 0; cut < elf.bytes.size(); ++cut) {
    std::vector<char> damaged(elf.bytes.begin(),
                              elf.bytes.begin() + static_cast<long>(cut));
    auto result = parse_both(damaged);
    ASSERT_FALSE(result.is_ok()) << "truncated image at " << cut << "/"
                                 << elf.bytes.size() << " parsed successfully";
    EXPECT_FALSE(result.message().empty());
  }
}

TEST(SymtabFuzz, NotElfRejected) {
  std::vector<char> garbage(128, 'x');
  auto result = parse_both(garbage);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("not an ELF"), std::string::npos);
}

TEST(SymtabFuzz, Elf32AndBigEndianRejected) {
  SyntheticElf elf = build_synthetic_rel();
  elf.ehdr()->e_ident[4] = 1;  // ELFCLASS32
  EXPECT_FALSE(parse_both(elf.bytes).is_ok());
  elf.ehdr()->e_ident[4] = 2;
  elf.ehdr()->e_ident[5] = 2;  // big-endian
  EXPECT_FALSE(parse_both(elf.bytes).is_ok());
}

TEST(SymtabFuzz, SectionTableOffsetOverflowRejected) {
  SyntheticElf elf = build_synthetic_rel();
  // Hostile e_shoff near UINT64_MAX: offset + size wraps past zero, so a
  // naive `shoff + bytes > size` check would pass. Must still error.
  elf.ehdr()->e_shoff = UINT64_MAX - 32;
  auto result = parse_both(elf.bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("section headers"), std::string::npos);
}

TEST(SymtabFuzz, SectionTablePastEndOfFileRejected) {
  // The table starts inside the file but runs past its end, starts at
  // or beyond the end, or counts one header more than the file holds.
  const SyntheticElf clean = build_synthetic_rel();
  const std::uint64_t size = clean.bytes.size();
  for (const std::uint64_t shoff :
       {std::uint64_t{clean.shoff + 1}, size - 1, size, size + 4096}) {
    SyntheticElf elf = clean;
    elf.ehdr()->e_shoff = shoff;
    auto result = parse_both(elf.bytes);
    ASSERT_FALSE(result.is_ok()) << "e_shoff " << shoff;
    EXPECT_NE(result.message().find("section headers"), std::string::npos);
  }
  SyntheticElf elf = clean;
  ++elf.ehdr()->e_shnum;
  auto result = parse_both(elf.bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("section headers"), std::string::npos);
}

/// The same image with its section table moved up front, after the ELF
/// header, so a cut can leave the table whole and clip the sections.
std::vector<char> table_first(const SyntheticElf& elf) {
  const std::size_t table = elf.bytes.size() - elf.shoff;
  std::vector<char> out(elf.bytes.begin(), elf.bytes.begin() + sizeof(RawEhdr));
  RawEhdr ehdr;
  std::memcpy(&ehdr, out.data(), sizeof(ehdr));
  ehdr.e_shoff = sizeof(RawEhdr);
  std::memcpy(out.data(), &ehdr, sizeof(ehdr));
  for (std::size_t i = 0; i < table / sizeof(RawShdr); ++i) {
    RawShdr shdr;
    std::memcpy(&shdr, elf.bytes.data() + elf.shdr_off(i), sizeof(shdr));
    if (shdr.sh_offset != 0) shdr.sh_offset += table;
    const char* p = reinterpret_cast<const char*>(&shdr);
    out.insert(out.end(), p, p + sizeof(shdr));
  }
  out.insert(out.end(), elf.bytes.begin() + sizeof(RawEhdr),
             elf.bytes.begin() + static_cast<long>(elf.shoff));
  return out;
}

TEST(SymtabFuzz, CutAtEverySectionBoundaryWithTheTableFirst) {
  // Sections in file order: .text, .symtab, .strtab, .rela.text,
  // .shstrtab. A cut that clips .text, .symtab or .rela.text fails; one
  // that clips only a string table leaves those names empty.
  const std::vector<char> whole = table_first(build_synthetic_rel());
  ASSERT_TRUE(parse_both(whole).is_ok());
  RawShdr shdrs[6];
  std::memcpy(shdrs, whole.data() + sizeof(RawEhdr), sizeof(shdrs));
  const std::uint64_t rela_end = shdrs[4].sh_offset + shdrs[4].sh_size;
  for (std::size_t i = 1; i < 6; ++i) {
    for (const std::uint64_t cut :
         {shdrs[i].sh_offset, shdrs[i].sh_offset + shdrs[i].sh_size}) {
      const std::vector<char> damaged(whole.begin(),
                                      whole.begin() + static_cast<long>(cut));
      auto result = parse_both(damaged);
      ASSERT_EQ(result.is_ok(), cut >= rela_end)
          << "cut at " << cut << "/" << whole.size() << ": " << result.message();
      if (result.is_ok() && cut < whole.size()) {
        EXPECT_TRUE(result.value().sections[1].name.empty());
        EXPECT_EQ(result.value().symbols[1].name, "f");
      }
    }
  }
}

TEST(SymtabFuzz, FunctionSymbolsComeFromTheFirstSymbolTable) {
  // Two symbol tables over the same entries, one cut to the null
  // symbol. read_function_symbols reads the first .symtab (and the
  // first .dynsym, of which there is none), however many the section
  // table lists, so `f` is found only when the full table comes first.
  SyntheticElf elf = build_synthetic_rel();
  auto* f = reinterpret_cast<RawSym*>(elf.bytes.data() + elf.symtab_off) + 1;
  f->st_value = 0x40;  // a linked address: value 0 is never a function
  *elf.shdr(4) = *elf.shdr(2);  // .rela.text becomes a second .symtab
  elf.shdr(2)->sh_size = sizeof(RawSym);
  std::string path = write_temp(elf.bytes);
  EXPECT_FALSE(read_function_symbols(path).is_ok());
  std::swap(*elf.shdr(2), *elf.shdr(4));
  path = write_temp(elf.bytes);
  const auto symbols = read_function_symbols(path);
  std::remove(path.c_str());
  ASSERT_TRUE(symbols.is_ok()) << symbols.message();
  ASSERT_EQ(symbols.value().size(), 1u);
  EXPECT_EQ(symbols.value()[0].name, "f");
}

/// An executable whose section table lists one `text`-byte range of
/// code in `headers` executable sections, after the null section.
std::vector<char> repeated_text_image(std::size_t text, std::uint16_t headers) {
  RawEhdr ehdr{};
  std::memcpy(ehdr.e_ident, "\x7f" "ELF", 4);
  ehdr.e_ident[4] = 2;  // ELFCLASS64
  ehdr.e_ident[5] = 1;  // little-endian
  ehdr.e_ident[6] = 1;
  ehdr.e_type = kEtExec;
  ehdr.e_machine = 62;  // EM_X86_64
  ehdr.e_version = 1;
  ehdr.e_ehsize = sizeof(RawEhdr);
  ehdr.e_shentsize = sizeof(RawShdr);
  ehdr.e_shnum = static_cast<std::uint16_t>(headers + 1);
  ehdr.e_shoff = sizeof(RawEhdr) + text;
  std::vector<char> out(sizeof(RawEhdr) + text, static_cast<char>(0x90));
  std::memcpy(out.data(), &ehdr, sizeof(ehdr));
  const RawShdr null{};
  const RawShdr code = {0, kShtProgbits, kShfExecinstr | 0x2, 0x401000, sizeof(RawEhdr),
                        text, 0, 0, 16, 0};
  const auto append = [&out](const RawShdr& shdr) {
    const char* p = reinterpret_cast<const char*>(&shdr);
    out.insert(out.end(), p, p + sizeof(shdr));
  };
  append(null);
  for (std::uint16_t i = 0; i < headers; ++i) append(code);
  return out;
}

TEST(SymtabFuzz, OneCodeRangeListedManyTimesIsRefused) {
  // 64 headers over one 1 MiB range of code: copied once per header,
  // 64 MiB. The executable sections list more bytes than the file
  // holds, so both entry points refuse it before copying any.
  const std::vector<char> bytes = repeated_text_image(std::size_t{1} << 20, 64);
  std::optional<tempest::Result<ElfImage>> result;
  const std::int64_t peak = live_heap::peak_heap([&] { result.emplace(parse_both(bytes)); });
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->message(), "executable sections larger than the file");
  EXPECT_LT(peak, 2 * static_cast<std::int64_t>(bytes.size()));
  // One header over the range is a valid image.
  EXPECT_TRUE(parse_both(repeated_text_image(std::size_t{1} << 20, 1)).is_ok());
}

TEST(SymtabFuzz, ExecSectionOffsetOverflowRejected) {
  SyntheticElf elf = build_synthetic_rel();
  elf.shdr(1)->sh_offset = UINT64_MAX - 8;  // wraps with sh_size = 16
  auto result = parse_both(elf.bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("executable section"), std::string::npos);
}

TEST(SymtabFuzz, SymtabWrongEntsizeRejected) {
  SyntheticElf elf = build_synthetic_rel();
  elf.shdr(2)->sh_entsize = 17;
  EXPECT_FALSE(parse_both(elf.bytes).is_ok());
}

TEST(SymtabFuzz, SymtabDanglingStrtabLinkRejected) {
  SyntheticElf elf = build_synthetic_rel();
  elf.shdr(2)->sh_link = 99;
  auto result = parse_both(elf.bytes);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("string table"), std::string::npos);
}

TEST(SymtabFuzz, UnterminatedStrtabYieldsEmptyNamesNotCrash) {
  SyntheticElf elf = build_synthetic_rel();
  // Point the hook symbol's name at the last strtab byte and strip the
  // terminator by shrinking the table: the name must come back empty
  // (no over-read), the rest of the table intact.
  elf.shdr(3)->sh_size -= 1;
  auto result = parse_both(elf.bytes);
  ASSERT_TRUE(result.is_ok()) << result.message();
  ASSERT_EQ(result.value().symbols.size(), 3u);
  EXPECT_EQ(result.value().symbols[1].name, "f");
  EXPECT_TRUE(result.value().symbols[2].name.empty());
}

TEST(SymtabFuzz, BogusShstrndxLeavesSectionNamesEmpty) {
  SyntheticElf elf = build_synthetic_rel();
  elf.ehdr()->e_shstrndx = 1000;
  auto result = parse_both(elf.bytes);
  ASSERT_TRUE(result.is_ok()) << result.message();
  for (const auto& sec : result.value().sections) {
    EXPECT_TRUE(sec.name.empty());
  }
  // Types and flags still drive the audit without names.
  EXPECT_TRUE(result.value().sections[1].executable());
}

TEST(SymtabFuzz, RelaDanglingSymbolIndexSkipsEntry) {
  SyntheticElf elf = build_synthetic_rel();
  auto* rela = reinterpret_cast<RawRela*>(elf.bytes.data() + elf.rela_off);
  rela->r_info = (std::uint64_t{99} << 32) | kRX8664Plt32;
  auto result = parse_both(elf.bytes);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_TRUE(result.value().relocations.empty());
}

TEST(SymtabFuzz, RelaWrongEntsizeRejected) {
  SyntheticElf elf = build_synthetic_rel();
  elf.shdr(4)->sh_entsize = 12;
  EXPECT_FALSE(parse_both(elf.bytes).is_ok());
}

class SymtabBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(SymtabBitFlip, BitFlipsNeverCrash) {
  const SyntheticElf elf = build_synthetic_rel();
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<std::size_t> pos_dist(0, elf.bytes.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);

  for (int trial = 0; trial < 80; ++trial) {
    std::vector<char> mutated = elf.bytes;
    for (int f = 0; f <= trial % 3; ++f) {
      mutated[pos_dist(rng)] ^= static_cast<char>(1 << bit_dist(rng));
    }
    auto result = parse_both(mutated);
    if (result.is_ok()) {
      // Whatever parsed must be safe to walk in full.
      const ElfImage& im = result.value();
      for (const auto& sec : im.sections) {
        if (sec.executable()) {
          EXPECT_LE(sec.bytes.size(), mutated.size());
        }
      }
      for (const auto& sym : im.symbols) (void)sym.is_function();
      for (const auto& reloc : im.relocations) {
        EXPECT_LT(reloc.sym_index, im.symbols.size());
        EXPECT_LT(reloc.target_section, im.sections.size());
      }
    } else {
      EXPECT_FALSE(result.message().empty());
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymtabBitFlip, ::testing::Range(0, 10));

TEST(SymtabFuzz, SelfExeRoundTrip) {
  auto image = read_elf_image("/proc/self/exe");
  ASSERT_TRUE(image.is_ok()) << image.message();
  const ElfImage& im = image.value();
  EXPECT_TRUE(im.elf_type == kEtExec || im.elf_type == kEtDyn);
  bool has_exec_bytes = false;
  for (const auto& sec : im.sections) {
    if (sec.executable() && !sec.bytes.empty()) has_exec_bytes = true;
  }
  EXPECT_TRUE(has_exec_bytes);
  EXPECT_FALSE(im.symbols.empty());
}

TEST(SymtabFuzz, MissingFileIsError) {
  auto image = read_elf_image("/nonexistent/no-such-binary");
  ASSERT_FALSE(image.is_ok());
  EXPECT_NE(image.message().find("cannot open"), std::string::npos);
}

}  // namespace
