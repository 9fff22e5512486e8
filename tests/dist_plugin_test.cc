/// \file dist_plugin_test.cc
/// \brief End-to-end tests of the distribution-plugin API.
///
/// Exercises the pluggability claims directly: a user-defined class
/// registered at runtime flows through Database::CreateVariable and SQL
/// distribution constructors, and the engine's strategy ladder (exact CDF
/// -> inverse-CDF window -> rejection -> Metropolis) is chosen from each
/// plugin's *declared* capabilities, never from its identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/dist/distribution.h"
#include "src/dist/variable_pool.h"
#include "src/engine/database.h"
#include "src/sql/session.h"

namespace pip {
namespace {

// ---------------------------------------------------------------------------
// Test plugins.
// ---------------------------------------------------------------------------

/// Full-capability user plugin: Triangular(lo, mode, hi). This mirrors the
/// README's "writing your own distribution" walkthrough.
class TriangularDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Triangular";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    if (p.size() != 3) {
      return Status::InvalidArgument("Triangular expects (lo, mode, hi)");
    }
    if (!(p[0] <= p[1] && p[1] <= p[2] && p[0] < p[2])) {
      return Status::InvalidArgument("Triangular requires lo <= mode <= hi");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, Quantile(p, stream.NextUniform()));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    double a = p[0], c = p[1], b = p[2];
    if (x < a || x > b) return 0.0;
    if (x <= c) {
      return c == a ? 2.0 / (b - a) : 2.0 * (x - a) / ((b - a) * (c - a));
    }
    return c == b ? 2.0 / (b - a) : 2.0 * (b - x) / ((b - a) * (b - c));
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    double a = p[0], c = p[1], b = p[2];
    if (x <= a) return 0.0;
    if (x >= b) return 1.0;
    if (x <= c) return (x - a) * (x - a) / ((b - a) * (c - a));
    return 1.0 - (b - x) * (b - x) / ((b - a) * (b - c));
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return Quantile(p, q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return (p[0] + p[1] + p[2]) / 3.0;
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double a = p[0], c = p[1], b = p[2];
    return (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0;
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return Interval(p[0], p[2]);
  }

 private:
  static double Quantile(const std::vector<double>& p, double q) {
    double a = p[0], c = p[1], b = p[2];
    double split = (c - a) / (b - a);
    if (q <= split) return a + std::sqrt(q * (b - a) * (c - a));
    return b - std::sqrt((1.0 - q) * (b - a) * (b - c));
  }
};

/// U(0,1) exposing only Generate + CDF: exact integration works, but
/// neither quantile windows nor Metropolis are available.
class CdfOnlyUnitDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "CdfOnlyUnit";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override { return kGenerate | kCdf; }
  Status ValidateParams(const std::vector<double>& p) const override {
    return p.empty() ? Status::OK()
                     : Status::InvalidArgument("CdfOnlyUnit takes no params");
  }
  Status GenerateJoint(const std::vector<double>&, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, stream.NextUniform());
    return Status::OK();
  }
  StatusOr<double> Cdf(const std::vector<double>&, uint32_t,
                       double x) const override {
    return std::min(1.0, std::max(0.0, x));
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }
};

/// U(0,1) exposing Generate only — the deepest degradation tier: every
/// constrained query must run plain rejection sampling.
class GenOnlyUnitDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "GenOnlyUnit";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  Status ValidateParams(const std::vector<double>& p) const override {
    return p.empty() ? Status::OK()
                     : Status::InvalidArgument("GenOnlyUnit takes no params");
  }
  Status GenerateJoint(const std::vector<double>&, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, stream.NextUniform());
    return Status::OK();
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }
};

/// U(0,1) exposing Generate only whose draw fails at one sample index
/// (the parameter), at every attempt.
class FlakyUnitDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "FlakyUnit";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  Status ValidateParams(const std::vector<double>& p) const override {
    return p.size() == 1 ? Status::OK()
                         : Status::InvalidArgument("FlakyUnit takes (index)");
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    if (static_cast<double>(ctx.sample_index) == p[0]) {
      return Status::Internal("FlakyUnit draw failed");
    }
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, stream.NextUniform());
    return Status::OK();
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }
};

/// U(0,1) with Generate + PDF: no CDF machinery, but the PDF qualifies it
/// for the Metropolis fallback when rejection collapses.
class PdfOnlyUnitDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "PdfOnlyUnit";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override { return kGenerate | kPdf; }
  Status ValidateParams(const std::vector<double>& p) const override {
    return p.empty() ? Status::OK()
                     : Status::InvalidArgument("PdfOnlyUnit takes no params");
  }
  Status GenerateJoint(const std::vector<double>&, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, stream.NextUniform());
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>&, uint32_t,
                       double x) const override {
    return (x >= 0.0 && x <= 1.0) ? 1.0 : 0.0;
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }
};

/// U(0,1) plugin whose declared capabilities are chosen at construction;
/// two instances sharing one class name model a plugin upgrade that swaps
/// capabilities behind an unchanged name — the scenario the registry
/// generation counter (and the plan cache keying on it) exists for.
class SwappableUnitDist : public Distribution {
 public:
  SwappableUnitDist(std::string name, bool with_cdf)
      : name_(std::move(name)), with_cdf_(with_cdf) {}
  const std::string& name() const override { return name_; }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return with_cdf_ ? (kGenerate | kCdf) : kGenerate;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    return p.empty() ? Status::OK()
                     : Status::InvalidArgument(name_ + " takes no params");
  }
  Status GenerateJoint(const std::vector<double>&, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, stream.NextUniform());
    return Status::OK();
  }
  StatusOr<double> Cdf(const std::vector<double>&, uint32_t,
                       double x) const override {
    if (!with_cdf_) return Status::Unimplemented(name_ + ": no Cdf");
    return std::min(1.0, std::max(0.0, x));
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }

 private:
  std::string name_;
  bool with_cdf_;
};

/// Registers the test plugins into the process registry once per binary.
void EnsureTestPlugins() {
  static const bool done = [] {
    auto& reg = DistributionRegistry::Global();
    PIP_CHECK(reg.Register(std::make_unique<TriangularDist>()).ok());
    PIP_CHECK(reg.Register(std::make_unique<CdfOnlyUnitDist>()).ok());
    PIP_CHECK(reg.Register(std::make_unique<GenOnlyUnitDist>()).ok());
    PIP_CHECK(reg.Register(std::make_unique<PdfOnlyUnitDist>()).ok());
    PIP_CHECK(reg.Register(std::make_unique<FlakyUnitDist>()).ok());
    return true;
  }();
  (void)done;
}

// Triangular(0, 1, 4) conditional closed forms for X > 2.
constexpr double kTriTailProb = 1.0 / 3.0;       // 1 - Cdf(2) = 4/12.
constexpr double kTriTailMean = 8.0 / 3.0;       // E[X | X > 2].

// ---------------------------------------------------------------------------
// Registry behavior.
// ---------------------------------------------------------------------------

TEST(PluginRegistryTest, RuntimeRegistrationResolvesByName) {
  EnsureTestPlugins();
  auto d = DistributionRegistry::Global().Lookup("Triangular");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value()->name(), "Triangular");
  EXPECT_TRUE(d.value()->HasCdf());
  EXPECT_TRUE(DistributionRegistry::Global().Contains("Triangular"));
}

TEST(PluginRegistryTest, DuplicateUserRegistrationRejected) {
  EnsureTestPlugins();
  EXPECT_EQ(DistributionRegistry::Global()
                .Register(std::make_unique<TriangularDist>())
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(PluginRegistryTest, GenerationCountsSuccessfulRegistrations) {
  DistributionRegistry local;
  const uint64_t g0 = local.generation();
  ASSERT_TRUE(
      local.Register(std::make_unique<SwappableUnitDist>("SwapA", true))
          .ok());
  EXPECT_EQ(local.generation(), g0 + 1);
  // Failed registrations must not bump: plan caches keyed on the counter
  // would otherwise discard valid skeletons for nothing.
  EXPECT_FALSE(local.Register(nullptr).ok());
  EXPECT_FALSE(
      local.Register(std::make_unique<SwappableUnitDist>("SwapA", true))
          .ok());
  EXPECT_EQ(local.generation(), g0 + 1);
  ASSERT_TRUE(local
                  .RegisterOrReplace(
                      std::make_unique<SwappableUnitDist>("SwapA", false))
                  .ok());
  EXPECT_EQ(local.generation(), g0 + 2);
  // RegisterOrReplace of a brand-new name registers and bumps too.
  ASSERT_TRUE(local
                  .RegisterOrReplace(
                      std::make_unique<SwappableUnitDist>("SwapB", true))
                  .ok());
  EXPECT_EQ(local.generation(), g0 + 3);
}

TEST(PluginRegistryTest, RegisterOrReplaceRetiresButKeepsOldInstance) {
  DistributionRegistry local;
  ASSERT_TRUE(
      local.Register(std::make_unique<SwappableUnitDist>("Swap", true)).ok());
  const Distribution* v1 = local.Lookup("Swap").value();
  ASSERT_TRUE(v1->Capabilities() & kCdf);
  ASSERT_TRUE(
      local
          .RegisterOrReplace(std::make_unique<SwappableUnitDist>("Swap", false))
          .ok());
  const Distribution* v2 = local.Lookup("Swap").value();
  EXPECT_NE(v1, v2);
  EXPECT_FALSE(v2->Capabilities() & kCdf);
  // The displaced instance must stay alive: variables created before the
  // swap hold VariableInfo::dist pointers into it.
  EXPECT_EQ(v1->name(), "Swap");
  EXPECT_TRUE(v1->Capabilities() & kCdf);
}

TEST(PluginRegistryTest, NamesListsBuiltinsAndPlugins) {
  EnsureTestPlugins();
  auto names = DistributionRegistry::Global().Names();
  for (const char* expected : {"Normal", "Zipf", "Tukey", "UniformSum",
                               "Triangular"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(PluginRegistryTest, PoolHonorsItsOwnRegistry) {
  EnsureTestPlugins();
  // An isolated registry with only builtins: the global "Triangular"
  // plugin must be invisible to a pool bound to it.
  DistributionRegistry local;
  PIP_CHECK(RegisterBuiltinDistributions(&local).ok());
  VariablePool pool(7, &local);
  EXPECT_EQ(pool.Create("Triangular", {0.0, 1.0, 4.0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(pool.Create("Normal", {0.0, 1.0}).ok());
}

// ---------------------------------------------------------------------------
// Capability queries through the pool.
// ---------------------------------------------------------------------------

TEST(PluginCapabilityTest, PoolQueriesReflectDeclaredMasks) {
  EnsureTestPlugins();
  VariablePool pool(3);
  VarRef tri = pool.Create("Triangular", {0.0, 1.0, 4.0}).value();
  VarRef cdf_only = pool.Create("CdfOnlyUnit", {}).value();
  VarRef gen_only = pool.Create("GenOnlyUnit", {}).value();
  VarRef tukey = pool.Create("Tukey", {0.14}).value();
  VarRef usum = pool.Create("UniformSum", {3.0}).value();
  VarRef zipf = pool.Create("Zipf", {1.1, 50.0}).value();

  EXPECT_TRUE(pool.HasPdf(tri));
  EXPECT_TRUE(pool.HasCdf(tri));
  EXPECT_TRUE(pool.HasInverseCdf(tri));

  EXPECT_TRUE(pool.HasCdf(cdf_only));
  EXPECT_FALSE(pool.HasPdf(cdf_only));
  EXPECT_FALSE(pool.HasInverseCdf(cdf_only));

  EXPECT_FALSE(pool.HasCdf(gen_only));
  EXPECT_FALSE(pool.HasPdf(gen_only));
  EXPECT_FALSE(pool.HasInverseCdf(gen_only));

  // Tukey's lambda is quantile-defined: inverse CDF without a CDF.
  EXPECT_TRUE(pool.HasInverseCdf(tukey));
  EXPECT_FALSE(pool.HasCdf(tukey));

  EXPECT_FALSE(pool.HasCdf(usum));
  EXPECT_TRUE(pool.IsFiniteDiscrete(zipf.var_id));
  EXPECT_FALSE(pool.IsFiniteDiscrete(usum.var_id));

  // Optional methods without the capability fail as Unimplemented rather
  // than crashing or lying.
  EXPECT_EQ(pool.InverseCdf(cdf_only, 0.5).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(pool.Pdf(gen_only, 0.5).status().code(),
            StatusCode::kUnimplemented);
}

TEST(PluginCapabilityTest, ZipfPrefixTableCoherence) {
  // The memoized prefix-sum table must keep CDF, quantile, generation and
  // moments mutually consistent (and fast at large n).
  EnsureTestPlugins();
  VariablePool pool(17);
  VarRef z = pool.Create("Zipf", {1.1, 1000000.0}).value();
  for (double q = 0.05; q < 1.0; q += 0.05) {
    double k = pool.InverseCdf(z, q).value();
    EXPECT_GE(pool.Cdf(z, k).value() + 1e-12, q);
    if (k > 1.0) EXPECT_LT(pool.Cdf(z, k - 1.0).value(), q);
  }
  double mean = pool.Mean(z).value();
  double acc = 0.0;
  const int n = 20000;
  for (uint64_t i = 0; i < n; ++i) acc += pool.Generate(z, i).value();
  // Heavy tail (s = 1.1): generous relative band.
  EXPECT_NEAR(acc / n, mean, 0.15 * mean);
}

// ---------------------------------------------------------------------------
// Strategy selection follows capabilities.
// ---------------------------------------------------------------------------

TEST(StrategySelectionTest, CdfCapablePluginGetsExactTier) {
  EnsureTestPlugins();
  VariablePool pool(21);
  VarRef x = pool.Create("CdfOnlyUnit", {}).value();
  SamplingEngine engine(&pool);
  auto r = engine
               .Confidence(Condition(Expr::Var(x) < Expr::Constant(0.25)))
               .value();
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.samples_used, 0u);
  EXPECT_NEAR(r.probability, 0.25, 1e-12);
}

TEST(StrategySelectionTest, DisablingExactCdfForcesSampling) {
  EnsureTestPlugins();
  VariablePool pool(21);
  VarRef x = pool.Create("CdfOnlyUnit", {}).value();
  SamplingOptions opts;
  opts.use_exact_cdf = false;
  opts.fixed_samples = 20000;
  SamplingEngine engine(&pool, opts);
  auto r = engine
               .Confidence(Condition(Expr::Var(x) < Expr::Constant(0.25)))
               .value();
  EXPECT_FALSE(r.exact);
  EXPECT_NEAR(r.probability, 0.25, 0.02);
}

TEST(StrategySelectionTest, FullCapsPluginIntegratesExpectationExactly) {
  EnsureTestPlugins();
  Database db(11);
  VarRef x = db.CreateVariable("Triangular", {0.0, 1.0, 4.0}).value();
  SamplingEngine engine = db.MakeEngine();
  auto r = engine
               .Expectation(Expr::Var(x),
                            Condition(Expr::Var(x) > Expr::Constant(2.0)),
                            /*compute_probability=*/true)
               .value();
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.samples_used, 0u);
  EXPECT_NEAR(r.expectation, kTriTailMean, 1e-6);
  EXPECT_NEAR(r.probability, kTriTailProb, 1e-9);
}

TEST(StrategySelectionTest, InverseCdfWindowSamplesWithoutRejection) {
  EnsureTestPlugins();
  VariablePool pool(31);
  VarRef x = pool.Create("Triangular", {0.0, 1.0, 4.0}).value();
  SamplingOptions opts;
  opts.use_numeric_integration = false;  // Force the sampling loop.
  opts.fixed_samples = 4000;
  SamplingEngine engine(&pool, opts);
  Condition cond(Expr::Var(x) > Expr::Constant(2.0));
  auto r = engine.Expectation(Expr::Var(x), cond, false).value();
  // CDF + inverse CDF => every draw comes from the [Cdf(2), 1] quantile
  // window and is accepted on the first attempt.
  EXPECT_EQ(r.attempts, r.samples_used);
  EXPECT_NEAR(r.expectation, kTriTailMean, 0.05);
}

TEST(StrategySelectionTest, MissingInverseCdfDegradesToRejection) {
  EnsureTestPlugins();
  VariablePool pool(31);
  VarRef x = pool.Create("CdfOnlyUnit", {}).value();
  SamplingOptions opts;
  opts.fixed_samples = 4000;
  SamplingEngine engine(&pool, opts);
  Condition cond(Expr::Var(x) < Expr::Constant(0.25));
  auto r = engine.Expectation(Expr::Var(x), cond, false).value();
  // No quantile window available: ~4 natural draws per accepted sample.
  EXPECT_FALSE(r.exact);
  EXPECT_GT(r.attempts, 2 * r.samples_used);
  EXPECT_NEAR(r.expectation, 0.125, 0.01);
}

TEST(StrategySelectionTest, GenOnlyPluginRunsPlainRejection) {
  EnsureTestPlugins();
  VariablePool pool(41);
  VarRef x = pool.Create("GenOnlyUnit", {}).value();
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine(&pool, opts);
  auto r = engine
               .Confidence(Condition(Expr::Var(x) < Expr::Constant(0.2)))
               .value();
  EXPECT_FALSE(r.exact);
  EXPECT_NEAR(r.probability, 0.2, 0.02);
}

TEST(StrategySelectionTest, PdfUnlocksMetropolisWhenRejectionCollapses) {
  EnsureTestPlugins();
  VariablePool pool(51);
  VarRef x = pool.Create("PdfOnlyUnit", {}).value();
  Condition cond(Expr::Var(x) < Expr::Constant(0.05));
  auto run = [&](bool use_metropolis) {
    SamplingOptions opts;
    opts.fixed_samples = 4000;
    opts.use_metropolis = use_metropolis;
    opts.metropolis_threshold = 0.5;  // 95% rejection crosses easily.
    opts.metropolis_check_after = 64;
    SamplingEngine engine(&pool, opts);
    return engine.Expectation(Expr::Var(x), cond, false).value();
  };
  ExpectationResult with = run(true);
  ExpectationResult without = run(false);
  // The chain replaces ~20-attempts-per-sample rejection.
  EXPECT_LT(with.attempts, 10000u);
  EXPECT_GT(without.attempts, 50000u);
  EXPECT_NEAR(with.expectation, 0.025, 0.01);
  EXPECT_NEAR(without.expectation, 0.025, 0.005);
}

// ---------------------------------------------------------------------------
// Seed-stream determinism.
// ---------------------------------------------------------------------------

TEST(SeedDeterminismTest, SamePoolSeedSameDraws) {
  EnsureTestPlugins();
  VariablePool p1(5), p2(5);
  VarRef a = p1.Create("Triangular", {0.0, 1.0, 4.0}).value();
  VarRef b = p2.Create("Triangular", {0.0, 1.0, 4.0}).value();
  for (uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(p1.Generate(a, i).value(), p2.Generate(b, i).value());
    EXPECT_EQ(p1.Generate(a, i, 9).value(), p2.Generate(b, i, 9).value());
  }
  // Attempt index opens a distinct stream (rejection retries are fresh).
  EXPECT_NE(p1.Generate(a, 0, 0).value(), p1.Generate(a, 0, 1).value());
}

TEST(SeedDeterminismTest, IndexListBatchDefaultsToGenerateJoint) {
  // Triangular overrides no GenerateBatch: the default loops
  // GenerateJoint over any index list, so rejection rounds (gaps,
  // descending order, repeats, attempt > 0) read the scalar draws.
  EnsureTestPlugins();
  VariablePool pool(8);
  VarRef v = pool.Create("Triangular", {0.0, 1.0, 4.0}).value();
  const std::vector<uint64_t> idx = {9, 2, 2, 40, 3, 1000, 0, 2};
  for (uint64_t attempt : {uint64_t{0}, uint64_t{5}}) {
    std::vector<double> batch(idx.size());
    ASSERT_TRUE(
        pool.GenerateBatch(v.var_id, idx.data(), idx.size(), attempt,
                           batch.data())
            .ok());
    for (size_t k = 0; k < idx.size(); ++k) {
      double scalar = pool.Generate(v, idx[k], attempt).value();
      EXPECT_EQ(std::memcmp(&batch[k], &scalar, sizeof(double)), 0)
          << "index " << idx[k] << " attempt " << attempt;
    }
  }
}

TEST(SeedDeterminismTest, DrawErrorPastTruncationMatchesScalar) {
  // FlakyUnit fails at sample 40. A tiny attempt budget truncates the
  // expectation loop and the probability estimator well before it, so
  // the scalar reference never sees the error; batched rounds draw
  // sample 40 speculatively and must not pin its error on earlier ones.
  EnsureTestPlugins();
  VariablePool pool(13);
  VarRef x = pool.Create("FlakyUnit", {40.0}).value();
  Condition cond(Expr::Var(x) < Expr::Constant(0.5));
  auto run = [&](bool batch, size_t max_total_attempts) {
    SamplingOptions opts;
    opts.fixed_samples = 256;
    opts.num_threads = 1;
    opts.max_total_attempts = max_total_attempts;
    opts.use_batch_generation = batch;
    SamplingEngine engine(&pool, opts);
    return engine.Expectation(Expr::Var(x), cond, true);
  };
  for (size_t budget : {size_t{20}, size_t{30}}) {
    SCOPED_TRACE("max_total_attempts=" + std::to_string(budget));
    auto scalar = run(false, budget);
    auto batch = run(true, budget);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const ExpectationResult& s = scalar.value();
    const ExpectationResult& b = batch.value();
    EXPECT_EQ(std::memcmp(&s.expectation, &b.expectation, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&s.probability, &b.probability, sizeof(double)), 0);
    EXPECT_EQ(s.samples_used, b.samples_used);
    EXPECT_EQ(s.attempts, b.attempts);
  }
  // With room to reach sample 40, both report its error.
  auto scalar = run(false, 20000000);
  auto batch = run(true, 20000000);
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(batch.status().ToString(), scalar.status().ToString());
}

TEST(SeedDeterminismTest, SampleOffsetReplaysAndRefreshes) {
  EnsureTestPlugins();
  VariablePool pool(99);
  VarRef x = pool.Create("Triangular", {0.0, 1.0, 4.0}).value();
  Condition cond(Expr::Var(x) > Expr::Constant(2.0));
  auto run = [&](uint64_t offset) {
    SamplingOptions opts;
    opts.fixed_samples = 500;
    opts.use_numeric_integration = false;
    opts.sample_offset = offset;
    SamplingEngine engine(&pool, opts);
    return engine.Expectation(Expr::Var(x), cond, false)
        .value()
        .expectation;
  };
  double base1 = run(0);
  double base2 = run(0);
  double fresh = run(1u << 20);
  // Identical offsets replay bit-for-bit; distinct offsets give a
  // statistically fresh estimate of the same quantity.
  EXPECT_EQ(base1, base2);
  EXPECT_NE(base1, fresh);
  EXPECT_NEAR(fresh, base1, 0.1);
}

// ---------------------------------------------------------------------------
// End-to-end: user plugin through Database and SQL.
// ---------------------------------------------------------------------------

TEST(PluginEndToEndTest, SqlInsertConstructsUserDistribution) {
  EnsureTestPlugins();
  Database db(909);
  sql::Session session(&db);
  session.mutable_options()->fixed_samples = 20000;
  auto run = [&](const std::string& stmt) {
    sql::SqlResult r = session.Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.ToString());
    return r;
  };
  run("CREATE TABLE m (v)");
  run("INSERT INTO m VALUES (Triangular(0, 1, 4))");
  EXPECT_EQ(db.pool()->num_variables(), 1u);

  sql::SqlResult r =
      run("SELECT expectation(v) AS ev, conf() FROM m WHERE v > 2");
  ASSERT_EQ(r.kind, sql::SqlResult::Kind::kTable);
  ASSERT_EQ(r.table.num_rows(), 1u);
  EXPECT_NEAR(r.table.Get(0, "E[ev]").value().double_value(), kTriTailMean,
              0.02);
  EXPECT_NEAR(r.table.Get(0, "conf").value().double_value(), kTriTailProb,
              0.01);
}

TEST(PluginEndToEndTest, ReplacedPluginInvalidatesCachedPlansAcrossSqlInsert) {
  // One engine held open across a RegisterOrReplace. The skeleton cached
  // while "SwappableSql" declared a CDF says the condition shape is
  // exact-CDF-eligible; after the swap to a generate-only version, a
  // variable of the SAME class name arriving via SQL INSERT must not be
  // served that stale skeleton (the exact tier would route Cdf calls into
  // a plugin without one). The registry generation folded into the shape
  // key forces a fresh plan.
  auto& reg = DistributionRegistry::Global();
  ASSERT_TRUE(
      reg.RegisterOrReplace(
             std::make_unique<SwappableUnitDist>("SwappableSql", true))
          .ok());
  Database db(909);
  sql::Session session(&db);
  auto run = [&](const std::string& stmt) {
    sql::SqlResult r = session.Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.ToString());
  };
  run("CREATE TABLE m (v)");

  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine = db.MakeEngine(opts);

  run("INSERT INTO m VALUES (SwappableSql())");
  VarRef x1{db.pool()->num_variables(), 0};  // Ids count up from 1.
  auto r1 = engine.Confidence(Condition(Expr::Var(x1) < Expr::Constant(0.25)))
                .value();
  EXPECT_TRUE(r1.exact);  // CDF-capable version: exact tier, plan cached.
  EXPECT_NEAR(r1.probability, 0.25, 1e-12);

  ASSERT_TRUE(
      reg.RegisterOrReplace(
             std::make_unique<SwappableUnitDist>("SwappableSql", false))
          .ok());
  run("INSERT INTO m VALUES (SwappableSql())");
  VarRef x2{db.pool()->num_variables(), 0};
  auto r2 = engine.Confidence(Condition(Expr::Var(x2) < Expr::Constant(0.25)));
  ASSERT_TRUE(r2.ok()) << r2.status().message();  // Stale plan errors here.
  EXPECT_FALSE(r2.value().exact);
  EXPECT_NEAR(r2.value().probability, 0.25, 0.02);

  // The pre-swap variable still answers through its retired instance
  // (conservatively via sampling if the new same-shape skeleton governs).
  auto r3 = engine.Confidence(Condition(Expr::Var(x1) < Expr::Constant(0.25)));
  ASSERT_TRUE(r3.ok()) << r3.status().message();
  EXPECT_NEAR(r3.value().probability, 0.25, 0.02);
}

TEST(PluginEndToEndTest, SqlRejectsUnknownAndInvalidConstructors) {
  EnsureTestPlugins();
  Database db(909);
  sql::Session session(&db);
  PIP_CHECK(session.Execute("CREATE TABLE m (v)").ok());
  EXPECT_FALSE(
      session.Execute("INSERT INTO m VALUES (NoSuchDist(1))").ok());
  // Mode outside [lo, hi]: the plugin's own ValidateParams fires through
  // the SQL path.
  EXPECT_FALSE(
      session.Execute("INSERT INTO m VALUES (Triangular(0, 9, 4))").ok());
}

}  // namespace
}  // namespace pip
