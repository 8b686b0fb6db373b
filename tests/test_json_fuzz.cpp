// JSON reader robustness: the grammar the shared reader accepts, and a
// deterministic mutation schedule over the two documents that cross a
// trust boundary — a collector /profile body and a heartbeat line (a
// TCP peer's HEARTBEAT frame is up to 8 MiB of arbitrary bytes).
// Truncation at every offset, bit-flip storms and 1 MiB of nested '['
// must never crash or read out of bounds (ASan/UBSan CI backs the
// "never OOB" claim), and whatever a damaged line delivers is exactly
// what it held before the damage.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "collectd/profile_client.hpp"
#include "common/json.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace tempest;

/// A /profile body as the collector writes it, with the names that
/// need the full grammar: braces, quotes, backslashes, control bytes.
std::string profile_body() {
  std::string body = "{\"sessions_folded\":3,\"functions\":[";
  const char* names[] = {"main::{lambda()#1}::operator()() const",
                         "quote\"back\\slash", "tab\tnl\n\x01", "plain_fn"};
  for (int i = 0; i < 4; ++i) {
    if (i > 0) body += ",";
    body += "{\"name\":";
    json::append_json_string(&body, names[i]);
    body += ",\"calls\":" + std::to_string(10 + i) +
            ",\"total_time_s\":1.25e-05,\"sessions\":2,\"activations\":7,"
            "\"time_mean_s\":0.5,\"time_var_s2\":0.25}";
  }
  body += "]}";
  return body;
}

/// A heartbeat line from the real snapshot writer.
std::string heartbeat_line() {
  std::ostringstream os;
  telemetry::write_snapshot_json(os, telemetry::metrics().snapshot(), 1.5, 7);
  return os.str();
}

std::string read_string(std::string_view text, bool* ok) {
  json::Reader in(text);
  std::string out;
  *ok = in.string(&out);
  return out;
}

// -- the grammar ---------------------------------------------------------

TEST(JsonReader, EveryByteRoundTripsThroughTheWriter) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  std::string quoted;
  json::append_json_string(&quoted, all);
  bool ok = false;
  EXPECT_EQ(read_string(quoted, &ok), all);
  EXPECT_TRUE(ok);
  EXPECT_EQ(json::quote("a\"b"), "\"a\\\"b\"");
}

TEST(JsonReader, DecodesEveryEscape) {
  bool ok = false;
  EXPECT_EQ(read_string(R"("\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC\ud83d\ude00")",
                        &ok),
            "\"\\/\b\f\n\r\tA\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_TRUE(ok);
  for (const char* bad :
       {R"("\x")", R"("\u12")", R"("\u12g4")", R"("\ud83d")", R"("\ud83dx")",
        R"("\ude00")", "\"raw\x01 control\"", R"("unterminated)", R"("\)"}) {
    read_string(bad, &ok);
    EXPECT_FALSE(ok) << bad;
  }
}

TEST(JsonReader, NumbersAreJsonNumbersFromABoundedCopy) {
  const auto number = [](std::string_view text, double* v) {
    json::Reader in(text);
    return in.number(v);
  };
  double v = 0.0;
  EXPECT_TRUE(number("-1.5e3,", &v));
  EXPECT_EQ(v, -1500.0);
  EXPECT_TRUE(number(" 42}", &v));
  EXPECT_EQ(v, 42.0);
  for (const char* bad : {"nan,", "inf,", "0x10,", "1e999,", "-,", "1.2.3,",
                          "12abc,", "12"}) {
    EXPECT_FALSE(number(bad, &v)) << bad;
  }
  EXPECT_FALSE(number(std::string(100, '1') + ",", &v));

  json::Reader in("18446744073709551616,");  // 2^64
  std::uint64_t u = 0;
  EXPECT_FALSE(in.number(&u));
  json::Reader negative("-1,");
  EXPECT_FALSE(negative.number(&u));
}

TEST(JsonReader, MembersBeforeTheFirstSyntaxErrorCount) {
  const json::NumberFields fields = json::read_numbers(
      R"({"a":1,"s":"x}","n":null,"o":{"d":[1,{"e":2}]},"b":-2.5,"c":)");
  ASSERT_EQ(fields.members.size(), 2u);
  EXPECT_EQ(fields.get("a"), 1.0);
  EXPECT_EQ(fields.get("b"), -2.5);
  EXPECT_EQ(fields.get("c", -7.0), -7.0);
  EXPECT_TRUE(json::read_numbers("[1,2]").members.empty());
  EXPECT_TRUE(json::read_numbers("").members.empty());
}

TEST(JsonReader, NestingDeeperThanTheBoundIsAnError) {
  const std::string at_bound = std::string(json::Reader::kMaxDepth, '[') +
                               std::string(json::Reader::kMaxDepth, ']');
  EXPECT_TRUE(json::Reader(at_bound).skip());
  const std::string over_bound = "[" + at_bound + "]";
  EXPECT_FALSE(json::Reader(over_bound).skip());
}

TEST(JsonReader, ProfileBodyParsesEveryField) {
  auto view = collectd::parse_fleet_profile(profile_body());
  ASSERT_TRUE(view.is_ok()) << view.message();
  EXPECT_EQ(view.value().sessions_folded, 3u);
  ASSERT_EQ(view.value().functions.size(), 4u);
  const collectd::FleetProfileEntry& lambda = view.value().functions[0];
  EXPECT_EQ(lambda.name, "main::{lambda()#1}::operator()() const");
  EXPECT_EQ(lambda.calls, 10u);
  EXPECT_EQ(lambda.total_time_s, 1.25e-05);
  EXPECT_EQ(lambda.sessions, 2u);
  EXPECT_EQ(lambda.time_mean_s, 0.5);
  EXPECT_EQ(lambda.time_var_s2, 0.25);
  EXPECT_EQ(view.value().functions[1].name, "quote\"back\\slash");
  EXPECT_EQ(view.value().functions[2].name, "tab\tnl\n\x01");
  EXPECT_EQ(view.value().functions[3].calls, 13u);

  EXPECT_FALSE(collectd::parse_fleet_profile("{\"sessions_folded\":1}").is_ok());
}

// -- mutations -----------------------------------------------------------

/// `prefix` read as a heartbeat delivers the leading members of `full`,
/// value for value, and nothing else.
void expect_leading_members(const json::NumberFields& prefix,
                            const json::NumberFields& full) {
  ASSERT_LE(prefix.members.size(), full.members.size());
  for (std::size_t i = 0; i < prefix.members.size(); ++i) {
    EXPECT_EQ(prefix.members[i], full.members[i]) << i;
  }
}

TEST(JsonFuzz, TruncationAtEveryOffset) {
  const std::string body = profile_body();
  const json::NumberFields body_fields = json::read_numbers(body);
  for (std::size_t n = 0; n < body.size(); ++n) {
    const std::string cut = body.substr(0, n);
    EXPECT_FALSE(collectd::parse_fleet_profile(cut).is_ok()) << n;
    expect_leading_members(json::read_numbers(cut), body_fields);
  }

  const std::string line = heartbeat_line();
  const json::NumberFields full = json::read_numbers(line);
  ASSERT_GT(full.members.size(), 10u);
  EXPECT_EQ(full.get("seq"), 7.0);
  for (std::size_t n = 0; n < line.size(); ++n) {
    // A heap copy of exactly n bytes: ASan flags any read past it.
    const std::string cut = line.substr(0, n);
    expect_leading_members(json::read_numbers(cut), full);
  }
}

class JsonBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(JsonBitFlip, BitFlipStormsNeverCrash) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> bit_dist(0, 7);
  for (const std::string& seed : {profile_body(), heartbeat_line()}) {
    std::uniform_int_distribution<std::size_t> pos_dist(0, seed.size() - 1);
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = seed;
      for (int f = 0; f <= trial % 8; ++f) {
        mutated[pos_dist(rng)] ^= static_cast<char>(1 << bit_dist(rng));
      }
      auto view = collectd::parse_fleet_profile(mutated);
      if (view.is_ok()) {
        for (const auto& fn : view.value().functions) {
          EXPECT_LE(fn.name.size(), mutated.size());
        }
      }
      const json::NumberFields fields = json::read_numbers(mutated);
      EXPECT_LE(fields.members.size(), mutated.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonBitFlip, ::testing::Range(0, 10));

TEST(JsonFuzz, MebibyteOfNestedArraysIsBounded) {
  const std::string brackets(std::size_t{1} << 20, '[');
  EXPECT_FALSE(json::Reader(brackets).skip());
  EXPECT_TRUE(json::read_numbers(brackets).members.empty());

  const json::NumberFields fields =
      json::read_numbers("{\"t\":1,\"x\":" + brackets);
  ASSERT_EQ(fields.members.size(), 1u);
  EXPECT_EQ(fields.get("t"), 1.0);

  EXPECT_FALSE(collectd::parse_fleet_profile(
                   "{\"sessions_folded\":1,\"functions\":" + brackets)
                   .is_ok());
  EXPECT_FALSE(collectd::parse_fleet_profile(
                   "{\"functions\":[{\"name\":\"f\",\"x\":" + brackets)
                   .is_ok());
}

}  // namespace
