// NAS-like benchmarks: RNG exactness, FFT properties, and each
// benchmark's parallel-vs-serial verification at multiple rank counts.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>
#include <utility>

#include "minimpi/runtime.hpp"
#include "npb/bt.hpp"
#include "npb/cg.hpp"
#include "npb/ep.hpp"
#include "npb/ft.hpp"
#include "npb/mg.hpp"
#include "npb/nas_rng.hpp"

namespace {

using namespace npb;

TEST(NasRng, MatchesReferenceFirstDraws) {
  // First uniform from the canonical NAS seed/multiplier must be
  // x1 = (a * seed) mod 2^46, computed exactly in 128-bit integers
  // (the product overflows a double's 53-bit mantissa — avoiding that
  // loss is the whole point of randlc's split arithmetic).
  double x = kNasSeed;
  const double r1 = randlc(&x, kNasMult);
  const unsigned __int128 product =
      static_cast<unsigned __int128>(1220703125ULL) * 314159265ULL;
  const auto expected_x1 = static_cast<double>(
      static_cast<std::uint64_t>(product & ((1ULL << 46) - 1)));
  EXPECT_DOUBLE_EQ(x, expected_x1);
  EXPECT_DOUBLE_EQ(r1, expected_x1 / 70368744177664.0);
  EXPECT_GT(r1, 0.0);
  EXPECT_LT(r1, 1.0);
}

TEST(NasRng, VranlcMatchesScalarStream) {
  double x1 = kNasSeed, x2 = kNasSeed;
  double vec[100];
  vranlc(100, &x1, kNasMult, vec);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(vec[i], randlc(&x2, kNasMult)) << i;
  }
  EXPECT_DOUBLE_EQ(x1, x2);
}

TEST(NasRng, JumpEqualsSequentialAdvance) {
  for (std::uint64_t steps : {0ULL, 1ULL, 2ULL, 17ULL, 1000ULL, 123457ULL}) {
    double seq = kNasSeed;
    for (std::uint64_t i = 0; i < steps; ++i) (void)randlc(&seq, kNasMult);
    EXPECT_DOUBLE_EQ(seed_after(kNasSeed, kNasMult, steps), seq) << steps;
  }
}

TEST(Fft1d, RoundTripRecoversInput) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int n : {2, 8, 64, 256}) {
    std::vector<std::complex<double>> data(static_cast<std::size_t>(n)), orig;
    for (auto& v : data) v = {dist(rng), dist(rng)};
    orig = data;
    fft1d(data.data(), n, -1);
    fft1d(data.data(), n, +1);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(data[static_cast<std::size_t>(i)].real() / n,
                  orig[static_cast<std::size_t>(i)].real(), 1e-10);
      EXPECT_NEAR(data[static_cast<std::size_t>(i)].imag() / n,
                  orig[static_cast<std::size_t>(i)].imag(), 1e-10);
    }
  }
}

TEST(Fft1d, DeltaTransformsToConstant) {
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  fft1d(data.data(), 8, -1);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ParsevalHolds) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> data(64);
  for (auto& v : data) v = {dist(rng), dist(rng)};
  double time_energy = 0.0;
  for (const auto& v : data) time_energy += std::norm(v);
  fft1d(data.data(), 64, -1);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, 64.0 * time_energy, 1e-8 * freq_energy);
}

// ---- benchmark verification, parameterised over rank count -------------

class NpbParallel : public ::testing::TestWithParam<int> {};

TEST_P(NpbParallel, EpMatchesSerialExactly) {
  const int np = GetParam();
  EpConfig config;
  config.log2_pairs = 14;
  EpResult result;
  minimpi::run(np, [&](minimpi::Comm& comm) {
    EpResult mine = ep_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  const VerifyResult v = ep_verify(result, config);
  EXPECT_TRUE(v.passed) << v.detail;
  EXPECT_GT(result.accepted, 0);
}

TEST_P(NpbParallel, CgMatchesSerial) {
  const int np = GetParam();
  CgConfig config = CgConfig::for_class(ProblemClass::S);
  config.outer_iters = 5;
  CgResult result;
  minimpi::run(np, [&](minimpi::Comm& comm) {
    CgResult mine = cg_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  const VerifyResult v = cg_verify(result, config);
  EXPECT_TRUE(v.passed) << v.detail;
  EXPECT_GT(result.zeta, config.shift);  // shift + positive reciprocal
}

TEST_P(NpbParallel, FtMatchesSerial) {
  const int np = GetParam();
  FtConfig config{16, 16, 16, 3};
  FtResult result;
  minimpi::run(np, [&](minimpi::Comm& comm) {
    FtResult mine = ft_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  const VerifyResult v = ft_verify(result, config);
  EXPECT_TRUE(v.passed) << v.detail;
  ASSERT_EQ(result.checksums.size(), 3u);
  EXPECT_GT(std::abs(result.checksums[0]), 0.0);
}

TEST_P(NpbParallel, MgMatchesSerialAndConverges) {
  const int np = GetParam();
  MgConfig config{16, 3, 2};
  MgResult result;
  minimpi::run(np, [&](minimpi::Comm& comm) {
    MgResult mine = mg_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  const VerifyResult v = mg_verify(result, config);
  EXPECT_TRUE(v.passed) << v.detail;
}

TEST_P(NpbParallel, BtMatchesSerialAndConverges) {
  const int np = GetParam();
  BtConfig config{8, 8, 8, 4, 0.02};
  BtResult result;
  minimpi::run(np, [&](minimpi::Comm& comm) {
    BtResult mine = bt_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  const VerifyResult v = bt_verify(result, config);
  EXPECT_TRUE(v.passed) << v.detail;
  ASSERT_EQ(result.rhs_norms.size(), 4u);
  EXPECT_LT(result.rhs_norms.back(), result.rhs_norms.front());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, NpbParallel, ::testing::Values(1, 2, 4));

TEST(Bt, ErrorShrinksWithMoreIterations) {
  BtConfig base{8, 8, 8, 2, 0.02};
  BtConfig longer = base;
  longer.niter = 10;
  const BtResult short_run = bt_serial(base);
  const BtResult long_run = bt_serial(longer);
  EXPECT_LT(long_run.final_error, short_run.final_error);
}

TEST(Bt, InvalidDecompositionRejected) {
  EXPECT_THROW(minimpi::run(3, [](minimpi::Comm& comm) {
    bt_run(comm, BtConfig{8, 8, 8, 1, 0.02});
  }), std::invalid_argument);
}

TEST(Ft, InvalidDimensionsRejected) {
  EXPECT_THROW(ft_serial(FtConfig{12, 16, 16, 1}), std::invalid_argument);
}

TEST(Mg, TooManyLevelsRejected) {
  EXPECT_THROW(minimpi::run(4, [](minimpi::Comm& comm) {
    mg_run(comm, MgConfig{8, 1, 4});
  }), std::invalid_argument);
}

TEST(Ep, ClassSizesOrdered) {
  EXPECT_LT(EpConfig::for_class(ProblemClass::S).log2_pairs,
            EpConfig::for_class(ProblemClass::A).log2_pairs);
  EXPECT_LT(CgConfig::for_class(ProblemClass::S).n,
            CgConfig::for_class(ProblemClass::A).n);
  EXPECT_LT(BtConfig::for_class(ProblemClass::S).nx,
            BtConfig::for_class(ProblemClass::A).nx);
}

}  // namespace
