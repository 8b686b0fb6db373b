// Units, env parsing, TSC, affinity.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/affinity.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/tsc.hpp"
#include "common/units.hpp"

namespace {

TEST(Units, CelsiusFahrenheitRoundTrip) {
  EXPECT_DOUBLE_EQ(tempest::celsius_to_fahrenheit(0.0), 32.0);
  EXPECT_DOUBLE_EQ(tempest::celsius_to_fahrenheit(100.0), 212.0);
  EXPECT_DOUBLE_EQ(tempest::fahrenheit_to_celsius(98.6), 37.0);
  for (double c = -40.0; c <= 120.0; c += 7.3) {
    EXPECT_NEAR(tempest::fahrenheit_to_celsius(tempest::celsius_to_fahrenheit(c)), c, 1e-12);
  }
}

TEST(Units, MinusFortyIsTheFixedPoint) {
  EXPECT_DOUBLE_EQ(tempest::celsius_to_fahrenheit(-40.0), -40.0);
}

TEST(Units, QuantizeSteps) {
  EXPECT_DOUBLE_EQ(tempest::quantize(38.7, 1.0), 39.0);
  EXPECT_DOUBLE_EQ(tempest::quantize(38.4, 1.0), 38.0);
  EXPECT_DOUBLE_EQ(tempest::quantize(38.7, 0.5), 38.5);
  EXPECT_DOUBLE_EQ(tempest::quantize(38.7, 0.0), 38.7);  // disabled
  EXPECT_DOUBLE_EQ(tempest::quantize(-3.6, 1.0), -4.0);
}

TEST(Units, CelsiusQuantisationProducesPaperFahrenheitSteps) {
  // 39C, 40C, 41C -> 102.2F, 104.0F, 105.8F: the 1.8F ladder in Table 3.
  EXPECT_NEAR(tempest::celsius_to_fahrenheit(39.0), 102.2, 1e-9);
  EXPECT_NEAR(tempest::celsius_to_fahrenheit(40.0), 104.0, 1e-9);
  EXPECT_NEAR(tempest::celsius_to_fahrenheit(41.0), 105.8, 1e-9);
}

TEST(Units, ParseUnit) {
  tempest::TempUnit u = tempest::TempUnit::kCelsius;
  EXPECT_TRUE(tempest::parse_temp_unit("F", &u));
  EXPECT_EQ(u, tempest::TempUnit::kFahrenheit);
  EXPECT_TRUE(tempest::parse_temp_unit("celsius", &u));
  EXPECT_EQ(u, tempest::TempUnit::kCelsius);
  EXPECT_FALSE(tempest::parse_temp_unit("kelvin", &u));
}

TEST(Env, StringDoubleLongBool) {
  ::setenv("TEMPEST_TEST_STR", "hello", 1);
  ::setenv("TEMPEST_TEST_DBL", "2.5", 1);
  ::setenv("TEMPEST_TEST_LNG", "42", 1);
  ::setenv("TEMPEST_TEST_BOOL", "yes", 1);
  EXPECT_EQ(tempest::env_string("TEMPEST_TEST_STR", "x"), "hello");
  EXPECT_EQ(tempest::env_double("TEMPEST_TEST_DBL", 0.0), 2.5);
  EXPECT_EQ(tempest::env_long("TEMPEST_TEST_LNG", 0), 42);
  EXPECT_TRUE(tempest::env_bool("TEMPEST_TEST_BOOL", false));
  EXPECT_EQ(tempest::env_string("TEMPEST_TEST_MISSING", "fallback"), "fallback");
}

TEST(Env, MalformedValuesFallBack) {
  ::setenv("TEMPEST_TEST_BAD", "12abc", 1);
  EXPECT_EQ(tempest::env_double("TEMPEST_TEST_BAD", 4.0), 4.0);
  EXPECT_EQ(tempest::env_long("TEMPEST_TEST_BAD", 7), 7);
  ::setenv("TEMPEST_TEST_BAD2", "maybe", 1);
  EXPECT_TRUE(tempest::env_bool("TEMPEST_TEST_BAD2", true));
  EXPECT_FALSE(tempest::env_bool("TEMPEST_TEST_BAD2", false));
}

TEST(Env, CheckedLongTellsAbsentFromMalformed) {
  using tempest::EnvParse;
  long v = -1;
  ::unsetenv("TEMPEST_TEST_CHK");
  EXPECT_EQ(tempest::env_long_checked("TEMPEST_TEST_CHK", &v), EnvParse::kAbsent);

  ::setenv("TEMPEST_TEST_CHK", "131072", 1);
  EXPECT_EQ(tempest::env_long_checked("TEMPEST_TEST_CHK", &v), EnvParse::kOk);
  EXPECT_EQ(v, 131072);

  for (const char* bad : {"banana", "12abc", "", "  "}) {
    ::setenv("TEMPEST_TEST_CHK", bad, 1);
    v = -1;
    EXPECT_EQ(tempest::env_long_checked("TEMPEST_TEST_CHK", &v),
              EnvParse::kMalformed)
        << "value '" << bad << "'";
    EXPECT_EQ(v, -1) << "malformed parse must not touch *out";
  }
  ::unsetenv("TEMPEST_TEST_CHK");
}

TEST(Env, CheckedDoubleTellsAbsentFromMalformed) {
  using tempest::EnvParse;
  double v = -1.0;
  ::unsetenv("TEMPEST_TEST_CHKD");
  EXPECT_EQ(tempest::env_double_checked("TEMPEST_TEST_CHKD", &v),
            EnvParse::kAbsent);

  ::setenv("TEMPEST_TEST_CHKD", "2.75", 1);
  EXPECT_EQ(tempest::env_double_checked("TEMPEST_TEST_CHKD", &v), EnvParse::kOk);
  EXPECT_DOUBLE_EQ(v, 2.75);

  ::setenv("TEMPEST_TEST_CHKD", "not-a-number", 1);
  v = -1.0;
  EXPECT_EQ(tempest::env_double_checked("TEMPEST_TEST_CHKD", &v),
            EnvParse::kMalformed);
  EXPECT_DOUBLE_EQ(v, -1.0);

  // cli::parse_double's rules, as on a command line: finite only.
  for (const char* bad : {"inf", "nan", "-inf", "1e999"}) {
    ::setenv("TEMPEST_TEST_CHKD", bad, 1);
    EXPECT_EQ(tempest::env_double_checked("TEMPEST_TEST_CHKD", &v),
              EnvParse::kMalformed)
        << "value '" << bad << "'";
    EXPECT_DOUBLE_EQ(v, -1.0);
  }
  ::unsetenv("TEMPEST_TEST_CHKD");
}

TEST(Cli, AnalysisThreadsFromTheEnvironmentClampLikeTheFlag) {
  ::unsetenv("TEMPEST_ANALYSIS_THREADS");
  const unsigned hardware = tempest::cli::default_analysis_threads();
  EXPECT_GE(hardware, 1u);
  ::setenv("TEMPEST_ANALYSIS_THREADS", "100000", 1);
  EXPECT_EQ(tempest::cli::default_analysis_threads(), tempest::cli::kMaxThreads);
  ::setenv("TEMPEST_ANALYSIS_THREADS", "3", 1);
  EXPECT_EQ(tempest::cli::default_analysis_threads(), 3u);
  for (const char* rejected : {"0", "x", "-2"}) {
    ::setenv("TEMPEST_ANALYSIS_THREADS", rejected, 1);
    EXPECT_EQ(tempest::cli::default_analysis_threads(), hardware)
        << "value '" << rejected << "'";
  }
  ::unsetenv("TEMPEST_ANALYSIS_THREADS");
}

TEST(Tsc, MonotonicAndCalibrated) {
  const std::uint64_t a = tempest::rdtsc();
  const std::uint64_t b = tempest::rdtsc();
  EXPECT_GE(b, a);
  const double rate = tempest::tsc_ticks_per_second();
  EXPECT_GT(rate, 1e6);  // any real clock is way above 1 MHz

  // 50 ms sleep should measure near 50 ms (generous bounds for CI).
  const std::uint64_t t0 = tempest::rdtsc();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double measured = tempest::tsc_to_seconds(tempest::rdtsc() - t0);
  EXPECT_GT(measured, 0.040);
  EXPECT_LT(measured, 0.50);
}

TEST(Tsc, SecondsTicksRoundTrip) {
  const double s = 1.25;
  EXPECT_NEAR(tempest::tsc_to_seconds(tempest::seconds_to_tsc(s)), s, 1e-6);
}

TEST(VirtualTsc, OffsetAndDrift) {
  tempest::VirtualTsc identity;
  EXPECT_EQ(identity.translate(1000), 1000u);

  tempest::VirtualTsc offset(500, 0.0);
  EXPECT_EQ(offset.translate(1000), 1500u);

  tempest::VirtualTsc drift(0, 100.0);  // 100 ppm fast
  const std::uint64_t big = 10'000'000'000ULL;
  const std::uint64_t translated = drift.translate(big);
  EXPECT_NEAR(static_cast<double>(translated - big), 1e-4 * static_cast<double>(big),
              static_cast<double>(big) * 1e-9 + 2.0);
}

TEST(Affinity, BindToCpuZeroSucceedsOrReportsError) {
  const tempest::Status status = tempest::bind_current_thread_to_cpu(0);
  // Containers may restrict the mask; either outcome must be explicit.
  if (!status) {
    EXPECT_FALSE(status.message().empty());
  }
}

TEST(Affinity, NegativeCpuRejected) {
  EXPECT_FALSE(tempest::bind_current_thread_to_cpu(-1));
  EXPECT_GE(tempest::online_cpu_count(), 1);
}

}  // namespace
