// Deeper NPB coverage: algebraic properties of the generated problems
// and convergence behaviour beyond the basic serial-vs-parallel checks.
#include <gtest/gtest.h>

#include <cmath>
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

TEST(CgMatrix, IsSymmetric) {
  const SparseMatrix a = cg_makea(CgConfig::for_class(ProblemClass::S));
  // Build a dense map of entries and check A[i][j] == A[j][i].
  std::map<std::pair<int, int>, double> entries;
  for (int i = 0; i < a.n; ++i) {
    for (int k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++k) {
      entries[{i, a.col[static_cast<std::size_t>(k)]}] = a.val[static_cast<std::size_t>(k)];
    }
  }
  for (const auto& [key, v] : entries) {
    const auto it = entries.find({key.second, key.first});
    ASSERT_NE(it, entries.end()) << key.first << "," << key.second;
    EXPECT_DOUBLE_EQ(it->second, v);
  }
}

TEST(CgMatrix, IsPositiveDefiniteOnRandomVectors) {
  const SparseMatrix a = cg_makea(CgConfig::for_class(ProblemClass::S));
  std::mt19937 rng(5);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(a.n));
    for (auto& v : x) v = dist(rng);
    // x^T A x > 0 (Gershgorin-dominant diagonal guarantees SPD).
    double xax = 0.0;
    for (int i = 0; i < a.n; ++i) {
      double row = 0.0;
      for (int k = a.row_ptr[static_cast<std::size_t>(i)];
           k < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++k) {
        row += a.val[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(a.col[static_cast<std::size_t>(k)])];
      }
      xax += x[static_cast<std::size_t>(i)] * row;
    }
    EXPECT_GT(xax, 0.0);
  }
}

TEST(CgConvergence, ResidualShrinksWithMoreInnerIterations) {
  CgConfig few = CgConfig::for_class(ProblemClass::S);
  few.outer_iters = 1;
  few.inner_iters = 4;
  CgConfig many = few;
  many.inner_iters = 30;
  EXPECT_LT(cg_serial(many).final_rnorm, cg_serial(few).final_rnorm);
}

TEST(EpStatistics, CountsAreConsistent) {
  const EpResult r = ep_serial(EpConfig{14});
  std::int64_t in_bins = 0;
  for (std::int64_t c : r.counts) in_bins += c;
  // Every accepted pair lands in a bin (Gaussian deviates beyond 10
  // standard-normal units are essentially impossible at this n).
  EXPECT_EQ(in_bins, r.accepted);
  // Acceptance rate of the polar method is pi/4 ~ 0.785.
  const double rate = static_cast<double>(r.accepted) / (1 << 14);
  EXPECT_NEAR(rate, 0.785, 0.02);
  // Gaussian sums hover near zero relative to the count.
  EXPECT_LT(std::abs(r.sx) / r.accepted, 0.05);
  EXPECT_LT(std::abs(r.sy) / r.accepted, 0.05);
}

TEST(FtSpectral, EvolveOnlyDampens) {
  // The decay factors are <= 1, so per-iteration checksum magnitude of
  // the evolving field cannot grow.
  const FtResult r = ft_serial(FtConfig{16, 16, 16, 5});
  for (std::size_t i = 1; i < r.checksums.size(); ++i) {
    EXPECT_LE(std::abs(r.checksums[i]), std::abs(r.checksums[i - 1]) * 1.001)
        << "iteration " << i;
  }
}

TEST(FtGrid, NonCubicGridsWork) {
  for (auto config : {FtConfig{32, 16, 8, 2}, FtConfig{8, 32, 16, 2}}) {
    const FtResult parallel = [&] {
      FtResult out;
      minimpi::run(2, [&](minimpi::Comm& comm) { out = ft_run(comm, config); });
      return out;
    }();
    const VerifyResult v = ft_verify(parallel, config);
    EXPECT_TRUE(v.passed) << config.nx << "x" << config.ny << "x" << config.nz
                          << ": " << v.detail;
  }
}

TEST(BtConvergence, SmallerDtConvergesSlowerPerIteration) {
  BtConfig small_dt{10, 10, 10, 6, 0.005};
  BtConfig big_dt{10, 10, 10, 6, 0.02};
  const BtResult a = bt_serial(small_dt);
  const BtResult b = bt_serial(big_dt);
  // Larger (stable) dt makes more progress toward the manufactured
  // solution in the same iteration count.
  EXPECT_LT(b.final_error, a.final_error);
}

TEST(BtResidual, StrictlyDecreasesThroughTheRun) {
  const BtResult r = bt_serial(BtConfig{10, 10, 10, 8, 0.02});
  for (std::size_t i = 1; i < r.rhs_norms.size(); ++i) {
    EXPECT_LT(r.rhs_norms[i], r.rhs_norms[i - 1]) << "iteration " << i;
  }
}

TEST(MgLevels, MoreLevelsConvergeFasterPerCycle) {
  MgConfig shallow{32, 3, 1};  // pure smoothing
  MgConfig deep{32, 3, 3};
  const MgResult a = mg_serial(shallow);
  const MgResult b = mg_serial(deep);
  EXPECT_LT(b.rnorms.back(), a.rnorms.back());
}

TEST(MgParallel, ScalesToEightRanks) {
  MgConfig config{32, 2, 2};
  MgResult result;
  minimpi::run(8, [&](minimpi::Comm& comm) {
    MgResult mine = mg_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  const VerifyResult v = mg_verify(result, config);
  EXPECT_TRUE(v.passed) << v.detail;
}

TEST(FtParallel, ScalesToEightRanks) {
  FtConfig config{32, 32, 32, 2};
  FtResult result;
  minimpi::run(8, [&](minimpi::Comm& comm) {
    FtResult mine = ft_run(comm, config);
    if (comm.rank() == 0) result = std::move(mine);  // one writer
  });
  EXPECT_TRUE(ft_verify(result, config).passed);
}

TEST(NasRngProperty, StreamHasNoShortCycles) {
  // 100k draws with no repeat of the initial state (period is 2^44).
  double x = kNasSeed;
  for (int i = 0; i < 100'000; ++i) {
    (void)randlc(&x, kNasMult);
    ASSERT_NE(x, kNasSeed);
  }
}

TEST(NasRngProperty, UniformMoments) {
  double x = kNasSeed;
  double sum = 0.0, sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double v = randlc(&x, kNasMult);
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);          // mean of U(0,1)
  EXPECT_NEAR(sq / n, 1.0 / 3.0, 0.005);     // E[x^2]
}

}  // namespace
