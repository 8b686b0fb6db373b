// TEMPEST_FILTER files under truncation and mutation. The recorder
// reads whatever file the variable names, so the parser must return
// rules or an error naming a line of the input — never crash, never
// read out of bounds (the fuzz label runs this under ASan/UBSan) — and
// the same bytes must parse the same from a file as from memory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/filter_file.hpp"
#include "live_heap.hpp"

namespace {

using tempest::Result;
using tempest::common::FilterFile;
using tempest::common::kMaxFilterFileBytes;
using tempest::common::parse_filter_file;
using tempest::common::read_filter_file;

/// What tempest-audit writes, plus the spacing a hand edit adds.
const std::string kValid =
    "# TEMPEST_FILTER v1\n"
    "# suggested by tempest-audit\n"
    "\n"
    "suppress _ZN4slowEv  # 120 calls, 97% of predicted probe events\n"
    "suppress plain_c_fn\n"
    "\t suppress   _Z3fooi\t# tabbed # twice\n";

class FilterFileFuzz : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  /// Parse `text` from memory and from a file: both must give the same
  /// rules or the same error, and an error must name a line the text
  /// has.
  void expect_rules_or_line_error(const std::string& text) {
    const Result<FilterFile> memory = parse_filter_file(text);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    const Result<FilterFile> file = read_filter_file(path_);
    ASSERT_EQ(memory.is_ok(), file.is_ok()) << memory.message() << " | " << file.message();
    if (memory.is_ok()) {
      EXPECT_EQ(memory.value().rules, file.value().rules);
      return;
    }
    EXPECT_EQ(memory.message(), file.message());
    std::size_t line = 0;
    ASSERT_EQ(std::sscanf(memory.message().c_str(), "filter line %zu: ", &line), 1)
        << memory.message();
    EXPECT_GE(line, 1u);
    EXPECT_LE(line, 1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')))
        << memory.message();
  }

  const std::string path_ =
      ::testing::TempDir() + "filter_fuzz." + std::to_string(::getpid());
};

TEST_F(FilterFileFuzz, ValidFileParses) {
  const auto parsed = parse_filter_file(kValid);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const auto& rules = parsed.value().rules;
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].symbol, "_ZN4slowEv");
  EXPECT_EQ(rules[0].reason, "120 calls, 97% of predicted probe events");
  EXPECT_EQ(rules[1].symbol, "plain_c_fn");
  EXPECT_EQ(rules[1].reason, "");
  EXPECT_EQ(rules[2].symbol, "_Z3fooi");
  EXPECT_EQ(rules[2].reason, "tabbed # twice");
  expect_rules_or_line_error(kValid);
}

TEST_F(FilterFileFuzz, EveryCut) {
  for (std::size_t cut = 0; cut <= kValid.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    expect_rules_or_line_error(kValid.substr(0, cut));
  }
}

TEST_F(FilterFileFuzz, EveryByteFlipped) {
  for (std::size_t at = 0; at < kValid.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " + std::to_string(at));
      std::string mutated = kValid;
      mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
      expect_rules_or_line_error(mutated);
    }
  }
}

TEST_F(FilterFileFuzz, NulBytes) {
  for (std::size_t at = 0; at < kValid.size(); ++at) {
    SCOPED_TRACE("NUL at " + std::to_string(at));
    std::string mutated = kValid;
    mutated[at] = '\0';
    expect_rules_or_line_error(mutated);
  }
  // A NUL inside a name is part of the name.
  const auto parsed = parse_filter_file(std::string("suppress a\0b\n", 13));
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  ASSERT_EQ(parsed.value().rules.size(), 1u);
  EXPECT_EQ(parsed.value().rules[0].symbol, std::string("a\0b", 3));
}

TEST_F(FilterFileFuzz, CrlfLineEnds) {
  std::string crlf;
  for (const char c : kValid) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  expect_rules_or_line_error(crlf);
  // The CRLF copy gives the LF file's rules, reasons included: a blank
  // line stays blank and no reason keeps a trailing '\r'.
  const auto want = parse_filter_file(kValid);
  const auto got = parse_filter_file(crlf);
  ASSERT_TRUE(want.is_ok()) << want.message();
  ASSERT_TRUE(got.is_ok()) << got.message();
  EXPECT_EQ(got.value().rules, want.value().rules);
  // Directive lines keep their symbols: '\r' ends a field.
  const auto parsed = parse_filter_file("suppress _ZN4slowEv\r\nsuppress plain_c_fn\r\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  ASSERT_EQ(parsed.value().rules.size(), 2u);
  EXPECT_EQ(parsed.value().rules[0].symbol, "_ZN4slowEv");
  EXPECT_EQ(parsed.value().rules[1].symbol, "plain_c_fn");
}

TEST_F(FilterFileFuzz, MegabyteSymbolName) {
  const std::string name(std::size_t{1} << 20, 'x');
  const std::string text = kValid + "suppress " + name + "  # long\n";
  expect_rules_or_line_error(text);
  const auto parsed = parse_filter_file(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  ASSERT_EQ(parsed.value().rules.size(), 4u);
  EXPECT_EQ(parsed.value().rules.back().symbol, name);
}

TEST_F(FilterFileFuzz, FileOverTheBoundIsRefusedUnread) {
  // A sparse file one byte over the bound: refused before a byte is
  // read, so the refusal costs no memory.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << kValid;
  }
  ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(kMaxFilterFileBytes + 1)), 0);
  Result<FilterFile> read = FilterFile{};
  const std::int64_t peak = live_heap::peak_heap([&] { read = read_filter_file(path_); });
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.message(), path_ + ": filter file larger than 16 MiB");
  EXPECT_LT(peak, std::int64_t{1} << 20);
}

}  // namespace
