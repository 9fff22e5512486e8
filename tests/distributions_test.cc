#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/running_stats.h"
#include "src/common/special_math.h"
#include "src/dist/distribution.h"
#include "src/dist/variable_pool.h"

namespace pip {
namespace {

const Distribution* Lookup(const std::string& name) {
  auto d = DistributionRegistry::Global().Lookup(name);
  PIP_CHECK(d.ok());
  return d.value();
}

TEST(RegistryTest, BuiltinsPresent) {
  for (const char* name :
       {"Normal", "Uniform", "Exponential", "Poisson", "Bernoulli",
        "DiscreteUniform", "Categorical", "Gamma", "Lognormal", "MVNormal",
        "Beta", "StudentT"}) {
    EXPECT_TRUE(DistributionRegistry::Global().Lookup(name).ok()) << name;
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  EXPECT_EQ(DistributionRegistry::Global().Lookup("Zeta").status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  DistributionRegistry local;
  RegisterBuiltinDistributions(&local);
  class Dummy : public Distribution {
   public:
    const std::string& name() const override {
      static const std::string n = "Normal";
      return n;
    }
    DomainKind domain() const override { return DomainKind::kContinuous; }
    Status ValidateParams(const std::vector<double>&) const override {
      return Status::OK();
    }
    Status GenerateJoint(const std::vector<double>&, const SampleContext&,
                         std::vector<double>* out) const override {
      out->assign(1, 0.0);
      return Status::OK();
    }
  };
  EXPECT_EQ(local.Register(std::make_unique<Dummy>()).code(),
            StatusCode::kAlreadyExists);
}

// ---------------------------------------------------------------------------
// Parameter validation.
// ---------------------------------------------------------------------------

struct BadParamsCase {
  const char* dist;
  std::vector<double> params;
};

class ParamValidationTest : public ::testing::TestWithParam<BadParamsCase> {};

TEST_P(ParamValidationTest, Rejected) {
  const auto& c = GetParam();
  EXPECT_FALSE(Lookup(c.dist)->ValidateParams(c.params).ok())
      << c.dist;
}

INSTANTIATE_TEST_SUITE_P(
    BadParams, ParamValidationTest,
    ::testing::Values(
        BadParamsCase{"Normal", {0.0}},              // Missing sigma.
        BadParamsCase{"Normal", {0.0, 0.0}},         // Zero sigma.
        BadParamsCase{"Normal", {0.0, -1.0}},        // Negative sigma.
        BadParamsCase{"Uniform", {1.0, 1.0}},        // Empty interval.
        BadParamsCase{"Uniform", {2.0, 1.0}},        // Reversed.
        BadParamsCase{"Exponential", {0.0}},         // Zero rate.
        BadParamsCase{"Exponential", {-2.0}},        // Negative rate.
        BadParamsCase{"Poisson", {0.0}},             // Zero lambda.
        BadParamsCase{"Bernoulli", {1.5}},           // p > 1.
        BadParamsCase{"Bernoulli", {-0.1}},          // p < 0.
        BadParamsCase{"DiscreteUniform", {0.5, 2.0}},// Non-integer lo.
        BadParamsCase{"DiscreteUniform", {3.0, 1.0}},// Reversed.
        BadParamsCase{"Categorical", {0.5, 0.4}},    // Doesn't sum to 1.
        BadParamsCase{"Categorical", {}},            // Empty.
        BadParamsCase{"Gamma", {0.0, 1.0}},          // Zero shape.
        BadParamsCase{"Lognormal", {0.0, 0.0}},      // Zero sigma.
        BadParamsCase{"Beta", {0.0, 1.0}},          // Zero alpha.
        BadParamsCase{"StudentT", {0.0}},           // Zero nu.
        BadParamsCase{"MVNormal", {2.0, 0.0, 0.0, 1.0, 2.0, 2.0, 1.0}}
        // Covariance [[1,2],[2,1]] is not PSD.
        ));

// ---------------------------------------------------------------------------
// CDF/InverseCDF/PDF coherence, parameterized across distributions.
// ---------------------------------------------------------------------------

struct DistCase {
  const char* dist;
  std::vector<double> params;
  double mean;
  double variance;
};

class UnivariateLawTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(UnivariateLawTest, SampleMomentsMatchDeclaredMoments) {
  const auto& c = GetParam();
  const Distribution* d = Lookup(c.dist);
  ASSERT_TRUE(d->ValidateParams(c.params).ok());
  RunningStats stats;
  std::vector<double> out;
  for (uint64_t i = 0; i < 60000; ++i) {
    SampleContext ctx{/*seed=*/42, /*var_id=*/7, /*sample_index=*/i, 0};
    ASSERT_TRUE(d->GenerateJoint(c.params, ctx, &out).ok());
    stats.Add(out[0]);
  }
  double tol_mean = 4.0 * std::sqrt(c.variance / 60000.0) + 1e-9;
  EXPECT_NEAR(stats.mean(), c.mean, tol_mean) << c.dist;
  EXPECT_NEAR(stats.variance(), c.variance, 0.1 * c.variance + 1e-6)
      << c.dist;
  EXPECT_NEAR(d->Mean(c.params, 0).value(), c.mean, 1e-9);
  EXPECT_NEAR(d->Variance(c.params, 0).value(), c.variance, 1e-9);
}

TEST_P(UnivariateLawTest, InverseCdfRoundTrips) {
  const auto& c = GetParam();
  const Distribution* d = Lookup(c.dist);
  if (!d->HasInverseCdf() || !d->HasCdf()) GTEST_SKIP();
  for (double p = 0.05; p < 1.0; p += 0.05) {
    double x = d->InverseCdf(c.params, 0, p).value();
    double back = d->Cdf(c.params, 0, x).value();
    if (d->domain() == DomainKind::kContinuous) {
      EXPECT_NEAR(back, p, 1e-7) << c.dist << " p=" << p;
    } else {
      // Discrete: InverseCdf returns the smallest k with CDF(k) >= p.
      EXPECT_GE(back + 1e-12, p) << c.dist << " p=" << p;
      double below = d->Cdf(c.params, 0, x - 1.0).value();
      EXPECT_LT(below, p) << c.dist << " p=" << p;
    }
  }
}

TEST_P(UnivariateLawTest, CdfMonotoneWithinSupport) {
  const auto& c = GetParam();
  const Distribution* d = Lookup(c.dist);
  if (!d->HasCdf()) GTEST_SKIP();
  double lo = c.mean - 4.0 * std::sqrt(c.variance) - 1.0;
  double hi = c.mean + 4.0 * std::sqrt(c.variance) + 1.0;
  double prev = -1e-12;
  for (double x = lo; x <= hi; x += (hi - lo) / 200.0) {
    double f = d->Cdf(c.params, 0, x).value();
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST_P(UnivariateLawTest, PdfIntegratesToCdfIncrement) {
  const auto& c = GetParam();
  const Distribution* d = Lookup(c.dist);
  if (!d->HasPdf() || !d->HasCdf()) GTEST_SKIP();
  if (d->domain() != DomainKind::kContinuous) GTEST_SKIP();
  // Trapezoidal integral of the PDF over +/-1 sd around the mean matches
  // the CDF difference.
  double sd = std::sqrt(c.variance);
  double a = c.mean - sd, b = c.mean + sd;
  const int n = 4000;
  double integral = 0.0;
  double h = (b - a) / n;
  for (int i = 0; i <= n; ++i) {
    double w = (i == 0 || i == n) ? 0.5 : 1.0;
    integral += w * d->Pdf(c.params, 0, a + i * h).value();
  }
  integral *= h;
  double expected =
      d->Cdf(c.params, 0, b).value() - d->Cdf(c.params, 0, a).value();
  EXPECT_NEAR(integral, expected, 1e-4) << c.dist;
}

TEST_P(UnivariateLawTest, GenerateIsReplayDeterministic) {
  const auto& c = GetParam();
  const Distribution* d = Lookup(c.dist);
  std::vector<double> a, b;
  SampleContext ctx{/*seed=*/5, /*var_id=*/3, /*sample_index=*/11, /*attempt=*/2};
  ASSERT_TRUE(d->GenerateJoint(c.params, ctx, &a).ok());
  ASSERT_TRUE(d->GenerateJoint(c.params, ctx, &b).ok());
  EXPECT_EQ(a, b);
  if (d->domain() == DomainKind::kContinuous) {
    // Different sample index: fresh draw (discrete laws can collide).
    SampleContext other{/*seed=*/5, /*var_id=*/3, /*sample_index=*/12, 2};
    ASSERT_TRUE(d->GenerateJoint(c.params, other, &b).ok());
    EXPECT_NE(a, b) << c.dist;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Laws, UnivariateLawTest,
    ::testing::Values(
        DistCase{"Normal", {5.0, 2.0}, 5.0, 4.0},
        DistCase{"Normal", {-3.0, 0.5}, -3.0, 0.25},
        DistCase{"Uniform", {2.0, 6.0}, 4.0, 16.0 / 12.0},
        DistCase{"Exponential", {0.5}, 2.0, 4.0},
        DistCase{"Poisson", {4.0}, 4.0, 4.0},
        DistCase{"Poisson", {0.3}, 0.3, 0.3},
        DistCase{"Bernoulli", {0.3}, 0.3, 0.21},
        DistCase{"DiscreteUniform", {1.0, 6.0}, 3.5, 35.0 / 12.0},
        DistCase{"Categorical", {0.2, 0.5, 0.3}, 1.1, 0.49},
        DistCase{"Gamma", {3.0, 2.0}, 6.0, 12.0},
        DistCase{"Lognormal", {0.0, 0.5},
                 std::exp(0.125), (std::exp(0.25) - 1.0) * std::exp(0.25)},
        DistCase{"Beta", {2.0, 5.0}, 2.0 / 7.0, 10.0 / (49.0 * 8.0)},
        DistCase{"Beta", {0.5, 0.5}, 0.5, 0.125},
        DistCase{"StudentT", {6.0}, 0.0, 1.5}));

// ---------------------------------------------------------------------------
// Distribution-specific edge cases.
// ---------------------------------------------------------------------------

TEST(PoissonDistTest, InverseCdfAtExtremes) {
  const Distribution* d = Lookup("Poisson");
  std::vector<double> params = {3.0};
  EXPECT_EQ(d->InverseCdf(params, 0, 0.0).value(), 0.0);
  EXPECT_TRUE(std::isinf(d->InverseCdf(params, 0, 1.0).value()));
  // Large lambda exercises the normal-approximation starting point.
  std::vector<double> big = {400.0};
  double median = d->InverseCdf(big, 0, 0.5).value();
  EXPECT_NEAR(median, 400.0, 2.0);
}

TEST(PoissonDistTest, PmfZeroOffLattice) {
  const Distribution* d = Lookup("Poisson");
  EXPECT_EQ(d->Pdf({3.0}, 0, 2.5).value(), 0.0);
  EXPECT_EQ(d->Pdf({3.0}, 0, -1.0).value(), 0.0);
}

/// Poisson rates on both sides of kPoissonLadderMaxLambda, where the
/// kernel switches from the CDF ladder to the incomplete gamma.
std::vector<double> PoissonRates() {
  return {0.05, 1.0, 6.0, 12.0, std::nextafter(kPoissonLadderMaxLambda, 0.0),
          std::nextafter(kPoissonLadderMaxLambda, 1e300), 100.0, 1e4};
}

TEST(PoissonDistTest, InverseCdfOfCdfIsExact) {
  const Distribution* d = Lookup("Poisson");
  for (double lambda : PoissonRates()) {
    const std::vector<double> params = {lambda};
    const double sd = std::sqrt(lambda);
    for (double k = std::max(0.0, std::floor(lambda - 6.0 * sd));
         k <= lambda + 6.0 * sd; k += 1.0) {
      const double f = d->Cdf(params, 0, k).value();
      EXPECT_EQ(d->InverseCdf(params, 0, f).value(), k)
          << "lambda=" << lambda << " k=" << k;
    }
  }
}

TEST(PoissonDistTest, DrawMomentsWithinSixSigma) {
  // Batch and scalar draws read one quantile, so the batch path's moments
  // stand for both; batch keeps the 1e4-rate case quick.
  const Distribution* d = Lookup("Poisson");
  constexpr uint64_t kDraws = 100000;
  std::vector<double> draws(kDraws);
  std::vector<uint64_t> indices(kDraws);
  for (uint64_t k = 0; k < kDraws; ++k) indices[k] = k;
  for (double lambda : PoissonRates()) {
    SampleContext ctx{/*seed=*/2024, /*var_id=*/5, /*sample_index=*/0, 0};
    ASSERT_TRUE(d->GenerateBatch({lambda}, ctx, indices.data(), kDraws,
                                 draws.data())
                    .ok());
    RunningStats stats;
    for (double x : draws) stats.Add(x);
    // Var(sample mean) = lambda / n; Var(sample variance) ~ (mu4 -
    // sigma^4) / n with central mu4 = lambda + 3 lambda^2.
    const double n = static_cast<double>(kDraws);
    EXPECT_NEAR(stats.mean(), lambda, 6.0 * std::sqrt(lambda / n))
        << "lambda=" << lambda;
    EXPECT_NEAR(stats.variance(), lambda,
                6.0 * std::sqrt((lambda + 2.0 * lambda * lambda) / n))
        << "lambda=" << lambda;
  }
}

TEST(SpecialFunctionTest, PoissonAndGammaDensitiesAreThreadSafe) {
  // Pdf/Cdf of both laws reach LogGamma (through the Poisson pmf, the
  // large-rate Poisson CDF and the Gamma density and CDF), which must not
  // write shared state: the sampling pool evaluates them concurrently.
  const Distribution* poisson = Lookup("Poisson");
  const Distribution* gamma = Lookup("Gamma");
  auto evaluate = [&] {
    double acc = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const double x = 0.5 + (i % 97);
      acc += poisson->Pdf({6.0}, 0, std::floor(x)).value();
      acc += poisson->Cdf({100.0}, 0, x).value();
      acc += gamma->Pdf({2.5, 1.5}, 0, x).value();
      acc += gamma->Cdf({0.7, 3.0}, 0, x).value();
    }
    return acc;
  };
  const double expected = evaluate();
  std::vector<double> results(4, 0.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] { results[t] = evaluate(); });
  }
  for (std::thread& t : threads) t.join();
  for (double r : results) EXPECT_EQ(r, expected);
}

TEST(BernoulliDistTest, ExtremeProbabilities) {
  const Distribution* d = Lookup("Bernoulli");
  std::vector<double> out;
  for (uint64_t i = 0; i < 100; ++i) {
    SampleContext ctx{1, 1, i, 0};
    ASSERT_TRUE(d->GenerateJoint({0.0}, ctx, &out).ok());
    EXPECT_EQ(out[0], 0.0);
    ASSERT_TRUE(d->GenerateJoint({1.0}, ctx, &out).ok());
    EXPECT_EQ(out[0], 1.0);
  }
}

TEST(CategoricalDistTest, DomainValuesSkipZeroProbability) {
  const Distribution* d = Lookup("Categorical");
  auto vals = d->DomainValues({0.5, 0.0, 0.5}).value();
  EXPECT_EQ(vals, (std::vector<double>{0.0, 2.0}));
}

TEST(DiscreteUniformDistTest, DomainValues) {
  const Distribution* d = Lookup("DiscreteUniform");
  auto vals = d->DomainValues({2.0, 5.0}).value();
  EXPECT_EQ(vals, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));
}

TEST(MVNormalDistTest, CorrelationStructure) {
  // 2-d with correlation 0.8: sample correlation should match.
  std::vector<double> params = {2.0, 1.0, -1.0, 1.0, 0.8, 0.8, 1.0};
  const Distribution* d = Lookup("MVNormal");
  ASSERT_TRUE(d->ValidateParams(params).ok());
  EXPECT_EQ(d->NumComponents(params), 2u);
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const int n = 60000;
  std::vector<double> out;
  for (uint64_t i = 0; i < n; ++i) {
    SampleContext ctx{9, 2, i, 0};
    ASSERT_TRUE(d->GenerateJoint(params, ctx, &out).ok());
    sx += out[0];
    sy += out[1];
    sxx += out[0] * out[0];
    syy += out[1] * out[1];
    sxy += out[0] * out[1];
  }
  double mx = sx / n, my = sy / n;
  double vx = sxx / n - mx * mx, vy = syy / n - my * my;
  double cov = sxy / n - mx * my;
  EXPECT_NEAR(mx, 1.0, 0.03);
  EXPECT_NEAR(my, -1.0, 0.03);
  EXPECT_NEAR(cov / std::sqrt(vx * vy), 0.8, 0.02);
}

TEST(MVNormalDistTest, MarginalCdfUsesDiagonal) {
  std::vector<double> params = {2.0, 0.0, 10.0, 4.0, 0.0, 0.0, 9.0};
  const Distribution* d = Lookup("MVNormal");
  EXPECT_NEAR(d->Cdf(params, 0, 0.0).value(), 0.5, 1e-12);
  EXPECT_NEAR(d->Cdf(params, 1, 10.0).value(), 0.5, 1e-12);
  EXPECT_EQ(d->Variance(params, 0).value(), 4.0);
  EXPECT_EQ(d->Variance(params, 1).value(), 9.0);
  EXPECT_FALSE(d->HasInverseCdf());  // Would break joint correlations.
}

// ---------------------------------------------------------------------------
// VariablePool.
// ---------------------------------------------------------------------------

TEST(VariablePoolTest, CreateAndResolve) {
  VariablePool pool(123);
  VarRef x = pool.Create("Normal", {0.0, 1.0}).value();
  VarRef y = pool.Create("Uniform", {0.0, 2.0}).value();
  EXPECT_NE(x.var_id, y.var_id);
  EXPECT_EQ(pool.Mean(x).value(), 0.0);
  EXPECT_EQ(pool.Mean(y).value(), 1.0);
  EXPECT_TRUE(pool.HasCdf(x));
  EXPECT_TRUE(pool.HasInverseCdf(y));
}

TEST(VariablePoolTest, CreateRejectsBadParams) {
  VariablePool pool;
  EXPECT_FALSE(pool.Create("Normal", {0.0, -1.0}).ok());
  EXPECT_FALSE(pool.Create("NoSuchDist", {}).ok());
}

TEST(VariablePoolTest, MultivariateComponents) {
  VariablePool pool;
  VarRef base =
      pool.Create("MVNormal", {2.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0}).value();
  VarRef second = pool.Component(base, 1).value();
  EXPECT_EQ(second.component, 1u);
  EXPECT_FALSE(pool.Component(base, 2).ok());
}

TEST(VariablePoolTest, GenerateConsistencyAcrossCalls) {
  VariablePool pool(7);
  VarRef x = pool.Create("Normal", {0.0, 1.0}).value();
  double a = pool.Generate(x, 5).value();
  double b = pool.Generate(x, 5).value();
  double c = pool.Generate(x, 6).value();
  EXPECT_EQ(a, b);  // Same sample index: consistent value (c-table replay).
  EXPECT_NE(a, c);
}

TEST(VariablePoolTest, SeedChangesDraws) {
  VariablePool p1(1), p2(2);
  VarRef x1 = p1.Create("Normal", {0.0, 1.0}).value();
  VarRef x2 = p2.Create("Normal", {0.0, 1.0}).value();
  EXPECT_NE(p1.Generate(x1, 0).value(), p2.Generate(x2, 0).value());
}

TEST(VariablePoolTest, IsFiniteDiscrete) {
  VariablePool pool;
  VarRef b = pool.Create("Bernoulli", {0.5}).value();
  VarRef n = pool.Create("Normal", {0.0, 1.0}).value();
  VarRef p = pool.Create("Poisson", {2.0}).value();
  EXPECT_TRUE(pool.IsFiniteDiscrete(b.var_id));
  EXPECT_FALSE(pool.IsFiniteDiscrete(n.var_id));
  EXPECT_FALSE(pool.IsFiniteDiscrete(p.var_id));  // Infinite domain.
}

}  // namespace
}  // namespace pip
