#include "src/common/special_math.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace pip {
namespace {

TEST(ErfInvTest, RoundTripsThroughErf) {
  for (double x = -0.999; x < 1.0; x += 0.01) {
    EXPECT_NEAR(std::erf(ErfInv(x)), x, 1e-12) << "x=" << x;
  }
}

TEST(ErfInvTest, Endpoints) {
  EXPECT_EQ(ErfInv(0.0), 0.0);
  EXPECT_TRUE(std::isinf(ErfInv(1.0)));
  EXPECT_TRUE(std::isinf(ErfInv(-1.0)));
  EXPECT_LT(ErfInv(-1.0), 0.0);
}

TEST(ErfInvTest, TailAccuracy) {
  // Deep tails exercise the second and third polynomial branches.
  for (double x : {0.9999, 0.999999, 0.99999999}) {
    EXPECT_NEAR(std::erf(ErfInv(x)), x, 1e-10) << "x=" << x;
  }
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.0), 0.15865525393145705, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
}

TEST(NormalCdfTest, Symmetry) {
  for (double x = 0.0; x < 5.0; x += 0.25) {
    EXPECT_NEAR(NormalCdf(x) + NormalCdf(-x), 1.0, 1e-14);
  }
}

TEST(NormalPdfTest, PeakAndSymmetry) {
  EXPECT_NEAR(NormalPdf(0.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-15);
  EXPECT_NEAR(NormalPdf(1.3), NormalPdf(-1.3), 1e-15);
}

TEST(NormalQuantileTest, InvertsCdf) {
  for (double p = 0.001; p < 1.0; p += 0.001) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-11) << "p=" << p;
  }
}

TEST(NormalQuantileTest, MedianAndEndpoints) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-15);
  EXPECT_TRUE(std::isinf(NormalQuantile(0.0)));
  EXPECT_TRUE(std::isinf(NormalQuantile(1.0)));
}

TEST(RegularizedGammaTest, PAndQSumToOne) {
  for (double a : {0.5, 1.0, 2.5, 10.0, 100.0}) {
    for (double x : {0.1, 1.0, 5.0, 50.0, 200.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(RegularizedGammaTest, Monotonic) {
  double prev = -1.0;
  for (double x = 0.0; x < 20.0; x += 0.1) {
    double p = RegularizedGammaP(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(InverseRegularizedGammaTest, RoundTrip) {
  for (double a : {0.5, 1.0, 2.0, 7.5, 40.0}) {
    for (double p = 0.02; p < 1.0; p += 0.02) {
      double x = InverseRegularizedGammaP(a, p);
      EXPECT_NEAR(RegularizedGammaP(a, x), p, 1e-8)
          << "a=" << a << " p=" << p;
    }
  }
}

TEST(RegularizedBetaTest, KnownValues) {
  // I_x(1, 1) = x (uniform CDF).
  for (double x = 0.0; x <= 1.0; x += 0.1) {
    EXPECT_NEAR(RegularizedBeta(1.0, 1.0, x), x, 1e-12);
  }
  // I_x(2, 1) = x^2.
  EXPECT_NEAR(RegularizedBeta(2.0, 1.0, 0.5), 0.25, 1e-12);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x = 0.05; x < 1.0; x += 0.1) {
    EXPECT_NEAR(RegularizedBeta(2.5, 4.0, x),
                1.0 - RegularizedBeta(4.0, 2.5, 1.0 - x), 1e-12);
  }
}

TEST(RegularizedBetaTest, Endpoints) {
  EXPECT_EQ(RegularizedBeta(3.0, 2.0, 0.0), 0.0);
  EXPECT_EQ(RegularizedBeta(3.0, 2.0, 1.0), 1.0);
  EXPECT_EQ(RegularizedBeta(3.0, 2.0, -0.5), 0.0);
  EXPECT_EQ(RegularizedBeta(3.0, 2.0, 1.5), 1.0);
}

TEST(InverseRegularizedBetaTest, RoundTrip) {
  for (double a : {0.5, 1.0, 2.0, 8.0}) {
    for (double b : {0.5, 1.5, 5.0}) {
      for (double p = 0.05; p < 1.0; p += 0.05) {
        double x = InverseRegularizedBeta(a, b, p);
        EXPECT_NEAR(RegularizedBeta(a, b, x), p, 1e-9)
            << "a=" << a << " b=" << b << " p=" << p;
      }
    }
  }
}

TEST(PoissonCdfTest, MatchesDirectSummation) {
  double lambda = 4.2;
  double acc = 0.0;
  for (int k = 0; k < 20; ++k) {
    acc += std::exp(PoissonLogPmf(lambda, k));
    EXPECT_NEAR(PoissonCdf(lambda, k), acc, 1e-10) << "k=" << k;
  }
}

TEST(PoissonCdfTest, NegativeIsZero) {
  EXPECT_EQ(PoissonCdf(3.0, -1.0), 0.0);
  EXPECT_EQ(PoissonCdf(3.0, -0.5), 0.0);
}

TEST(PoissonCdfTest, NonIntegerArgumentFloors) {
  EXPECT_NEAR(PoissonCdf(3.0, 2.7), PoissonCdf(3.0, 2.0), 1e-15);
}

// ---------------------------------------------------------------------------
// PoissonLadder: the ladder below kPoissonLadderMaxLambda, the incomplete
// gamma at and above it.
// ---------------------------------------------------------------------------

class PoissonLadderTest : public ::testing::TestWithParam<double> {
 protected:
  /// Rungs worth checking: the whole ladder up to saturation, or a +/-12
  /// sd band around a large mean (outside it the CDF underflows to 0 or
  /// rounds to 1, where no quantile can tell rungs apart).
  static double Lo(double lambda) {
    return std::max(0.0, std::floor(lambda - 12.0 * std::sqrt(lambda)));
  }
  static double Hi(double lambda) {
    return std::ceil(lambda + 12.0 * std::sqrt(lambda) + 40.0);
  }
};

TEST_P(PoissonLadderTest, QuantileOfCdfIsExact) {
  const double lambda = GetParam();
  const PoissonLadder ladder(lambda);
  double prev = 0.0;
  for (double k = Lo(lambda); k <= Hi(lambda); k += 1.0) {
    const double f = ladder.Cdf(k);
    if (f >= 1.0) break;
    if (lambda < kPoissonLadderMaxLambda) {
      // Every rung below saturation adds positive mass.
      EXPECT_LT(ladder.Cdf(k - 1.0), f) << "k=" << k;
    } else if (!(ladder.Cdf(k - 1.0) < f)) {
      continue;  // An underflowed left tail: no strict step to invert.
    }
    EXPECT_EQ(ladder.Quantile(f), k) << "lambda=" << lambda << " k=" << k;
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST_P(PoissonLadderTest, QuantileBracketsDenseGrid) {
  const double lambda = GetParam();
  const PoissonLadder ladder(lambda);
  std::vector<double> qs = {1e-300, 0x1p-53, 1.0 - 0x1p-53};
  for (int i = 1; i < 4096; ++i) qs.push_back(i / 4096.0);
  for (double q : qs) {
    const double k = ladder.Quantile(q);
    ASSERT_TRUE(std::isfinite(k)) << "q=" << q;
    EXPECT_EQ(k, std::floor(k));
    EXPECT_LT(ladder.Cdf(k - 1.0), q) << "lambda=" << lambda << " q=" << q;
    EXPECT_LE(q, ladder.Cdf(k)) << "lambda=" << lambda << " q=" << q;
  }
}

TEST_P(PoissonLadderTest, CdfSaturatesToExactlyOne) {
  const double lambda = GetParam();
  const PoissonLadder ladder(lambda);
  const double hi = Hi(lambda);
  EXPECT_EQ(ladder.Cdf(hi), 1.0);
  EXPECT_EQ(ladder.Cdf(1e6 + hi), 1.0);
  EXPECT_EQ(ladder.Cdf(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_TRUE(std::isinf(ladder.Quantile(1.0)));
  EXPECT_EQ(ladder.Cdf(-0.5), 0.0);
  EXPECT_EQ(ladder.Quantile(0.0), 0.0);
}

TEST_P(PoissonLadderTest, AgreesWithIncompleteGamma) {
  const double lambda = GetParam();
  const PoissonLadder ladder(lambda);
  for (double k = Lo(lambda); k <= Hi(lambda); k += 1.0) {
    EXPECT_NEAR(ladder.Cdf(k), RegularizedGammaQ(k + 1.0, lambda), 1e-12)
        << "lambda=" << lambda << " k=" << k;
    EXPECT_EQ(ladder.Cdf(k + 0.5), ladder.Cdf(k));
  }
}

TEST_P(PoissonLadderTest, QuantileBatchMatchesQuantile) {
  // Unsorted quantiles in one batch, endpoints and NaN included: the
  // shared rung table must give each one Quantile's exact answer.
  const double lambda = GetParam();
  const PoissonLadder ladder(lambda);
  std::vector<double> qs = {0.5,     1e-300, 0.0,         -0.0,
                            1.0,     0.999,  0x1p-53,     1.0 - 0x1p-53,
                            0.25,    2.0,    -1.0,        std::nan(""),
                            0.75,    1e-12,  1.0 - 1e-12, 0.5};
  for (int i = 0; i < 512; ++i) qs.push_back(((i * 977) % 1021) / 1021.0);
  std::vector<double> batch = qs;
  ladder.QuantileBatch(batch.data(), batch.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const double want = ladder.Quantile(qs[i]);
    EXPECT_EQ(std::memcmp(&batch[i], &want, sizeof(double)), 0)
        << "lambda=" << lambda << " q=" << qs[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, PoissonLadderTest,
    ::testing::Values(0.05, 1.0, 6.0, 12.0,
                      std::nextafter(kPoissonLadderMaxLambda, 0.0),
                      std::nextafter(kPoissonLadderMaxLambda, 1e300), 100.0,
                      1e4));

TEST(PoissonLogPmfTest, SumsToOne) {
  double lambda = 6.0;
  double acc = 0.0;
  for (int k = 0; k < 60; ++k) acc += std::exp(PoissonLogPmf(lambda, k));
  EXPECT_NEAR(acc, 1.0, 1e-10);
}

TEST(PoissonLogPmfTest, NegativeKIsZeroMass) {
  EXPECT_TRUE(std::isinf(PoissonLogPmf(2.0, -1)));
}

}  // namespace
}  // namespace pip
