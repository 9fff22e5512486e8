/// \file builtins_continuous.cc
/// \brief Builtin continuous univariate distributions.
///
/// Full-capability classes (Normal, Uniform, Exponential, Gamma,
/// Lognormal, Beta, StudentT) expose every engine tier; Tukey and
/// UniformSum deliberately omit capabilities to exercise the degradation
/// paths with real laws rather than mocks: Tukey's lambda distribution is
/// *defined* by its quantile function (no closed-form CDF or PDF exists),
/// and the Irwin-Hall sum has a piecewise-polynomial density impractical
/// past a few terms — generate-only is its honest contract.

#include <algorithm>
#include <limits>

#include "src/common/special_math.h"
#include "src/dist/builtins.h"

namespace pip {
namespace dist_internal {
namespace {

using std::exp;
using std::log;
using std::sqrt;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fills u[s * per_sample + k] with word k of the component-0 stream of
/// sample idx[s], for s in [0, n). Each sample gets its own stream with
/// the counter at zero — exactly how the scalar path opens them — so the
/// batch kernels below stay word-for-word identical to the per-sample
/// loop.
void FillComponentUniforms(const SampleContext& ctx, const uint64_t* idx,
                           size_t n, uint64_t per_sample, double* u) {
  RandomStream::FillFreshUniforms(ctx.MixedSeed(), ctx.var_id, 0, idx, n,
                                  per_sample, u);
}

/// Box-Muller over two words per sample (cosine branch, first uniform
/// clamped open) — the exact NextGaussian word schedule — writing
/// standard normals to z[0..n). Works through a fixed stack block, so
/// the small index lists of rejection rounds allocate nothing.
void FillGaussians(const SampleContext& ctx, const uint64_t* idx, size_t n,
                   double* z) {
  constexpr size_t kBlock = 128;
  double u[2 * kBlock];
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t m = std::min(kBlock, n - base);
    FillComponentUniforms(ctx, idx + base, m, 2, u);
    for (size_t s = 0; s < m; ++s) {
      double u1 = u[2 * s] > 0.0 ? u[2 * s] : 0x1.0p-53;
      z[base + s] = sqrt(-2.0 * log(u1)) * std::cos(2.0 * M_PI * u[2 * s + 1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Normal(mu, sigma)
// ---------------------------------------------------------------------------

class NormalDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Normal";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    return ExpectPositive(name(), "sigma", p[1]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, p[0] + p[1] * stream.NextGaussian());
    return Status::OK();
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       const uint64_t* idx, size_t n,
                       double* out) const override {
    FillGaussians(ctx, idx, n, out);
    for (size_t s = 0; s < n; ++s) out[s] = p[0] + p[1] * out[s];
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return NormalPdf((x - p[0]) / p[1]) / p[1];
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return NormalCdf((x - p[0]) / p[1]);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return p[0] + p[1] * NormalQuantile(q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return p[0];
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    return p[1] * p[1];
  }
};

// ---------------------------------------------------------------------------
// Uniform(lo, hi)
// ---------------------------------------------------------------------------

class UniformDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Uniform";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    if (!(p[0] < p[1])) {
      return Status::InvalidArgument(name() + ": requires lo < hi");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, p[0] + (p[1] - p[0]) * stream.NextUniform());
    return Status::OK();
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       const uint64_t* idx, size_t n,
                       double* out) const override {
    FillComponentUniforms(ctx, idx, n, 1, out);
    const double lo = p[0], w = p[1] - p[0];
    for (size_t s = 0; s < n; ++s) out[s] = lo + w * out[s];
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return (x >= p[0] && x <= p[1]) ? 1.0 / (p[1] - p[0]) : 0.0;
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x <= p[0]) return 0.0;
    if (x >= p[1]) return 1.0;
    return (x - p[0]) / (p[1] - p[0]);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return p[0] + q * (p[1] - p[0]);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return 0.5 * (p[0] + p[1]);
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double w = p[1] - p[0];
    return w * w / 12.0;
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return Interval(p[0], p[1]);
  }
};

// ---------------------------------------------------------------------------
// Exponential(rate)
// ---------------------------------------------------------------------------

class ExponentialDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Exponential";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 1));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    return ExpectPositive(name(), "rate", p[0]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, -std::log1p(-stream.NextUniform()) / p[0]);
    return Status::OK();
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       const uint64_t* idx, size_t n,
                       double* out) const override {
    FillComponentUniforms(ctx, idx, n, 1, out);
    const double rate = p[0];
    for (size_t s = 0; s < n; ++s) out[s] = -std::log1p(-out[s]) / rate;
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return x < 0.0 ? 0.0 : p[0] * exp(-p[0] * x);
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return x <= 0.0 ? 0.0 : -std::expm1(-p[0] * x);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    if (q >= 1.0) return kInf;
    return -std::log1p(-q) / p[0];
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return 1.0 / p[0];
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    return 1.0 / (p[0] * p[0]);
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval::AtLeast(0.0);
  }
};

// ---------------------------------------------------------------------------
// Gamma(shape, scale)
// ---------------------------------------------------------------------------

class GammaDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Gamma";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    PIP_RETURN_IF_ERROR(ExpectPositive(name(), "shape", p[0]));
    return ExpectPositive(name(), "scale", p[1]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    // Inverse transform keeps Generate exactly coherent with the CDF pair
    // (the quantile solver is Newton-safeguarded, ~4 iterations). The
    // uniform must stay off 0: InverseRegularizedGammaP diverges there.
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1,
                p[1] * InverseRegularizedGammaP(p[0], stream.NextOpenUniform()));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    double k = p[0], theta = p[1];
    if (x < 0.0) return 0.0;
    if (x == 0.0) {
      if (k > 1.0) return 0.0;
      if (k == 1.0) return 1.0 / theta;
      return kInf;  // Integrable singularity; the engine falls back.
    }
    return exp((k - 1.0) * log(x) - x / theta - LogGamma(k) - k * log(theta));
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return x <= 0.0 ? 0.0 : RegularizedGammaP(p[0], x / p[1]);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return p[1] * InverseRegularizedGammaP(p[0], q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return p[0] * p[1];
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    return p[0] * p[1] * p[1];
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval::AtLeast(0.0);
  }
};

// ---------------------------------------------------------------------------
// Lognormal(mu, sigma) — log X ~ Normal(mu, sigma)
// ---------------------------------------------------------------------------

class LognormalDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Lognormal";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    return ExpectPositive(name(), "sigma", p[1]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, exp(p[0] + p[1] * stream.NextGaussian()));
    return Status::OK();
  }
  Status GenerateBatch(const std::vector<double>& p, const SampleContext& ctx,
                       const uint64_t* idx, size_t n,
                       double* out) const override {
    FillGaussians(ctx, idx, n, out);
    for (size_t s = 0; s < n; ++s) out[s] = exp(p[0] + p[1] * out[s]);
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    if (x <= 0.0) return 0.0;
    return NormalPdf((log(x) - p[0]) / p[1]) / (x * p[1]);
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return x <= 0.0 ? 0.0 : NormalCdf((log(x) - p[0]) / p[1]);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return exp(p[0] + p[1] * NormalQuantile(q));
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return exp(p[0] + 0.5 * p[1] * p[1]);
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double s2 = p[1] * p[1];
    return std::expm1(s2) * exp(2.0 * p[0] + s2);
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval::AtLeast(0.0);
  }
};

// ---------------------------------------------------------------------------
// Beta(alpha, beta)
// ---------------------------------------------------------------------------

class BetaDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Beta";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 2));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    PIP_RETURN_IF_ERROR(ExpectPositive(name(), "alpha", p[0]));
    return ExpectPositive(name(), "beta", p[1]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    // Open uniform: InverseRegularizedBeta hits the support endpoints at
    // exactly 0/1, where alpha/beta < 1 densities are singular.
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1,
                InverseRegularizedBeta(p[0], p[1], stream.NextOpenUniform()));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    double a = p[0], b = p[1];
    if (x < 0.0 || x > 1.0) return 0.0;
    if (x == 0.0) return a > 1.0 ? 0.0 : (a == 1.0 ? b : kInf);
    if (x == 1.0) return b > 1.0 ? 0.0 : (b == 1.0 ? a : kInf);
    return exp((a - 1.0) * log(x) + (b - 1.0) * std::log1p(-x) +
               LogGamma(a + b) - LogGamma(a) - LogGamma(b));
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    return RegularizedBeta(p[0], p[1], x);
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return InverseRegularizedBeta(p[0], p[1], q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return p[0] / (p[0] + p[1]);
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double s = p[0] + p[1];
    return p[0] * p[1] / (s * s * (s + 1.0));
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 1.0);
  }
};

// ---------------------------------------------------------------------------
// StudentT(nu)
// ---------------------------------------------------------------------------

class StudentTDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "StudentT";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 1));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    return ExpectPositive(name(), "nu", p[0]);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, Quantile(p[0], stream.NextOpenUniform()));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    double nu = p[0];
    return exp(LogGamma(0.5 * (nu + 1.0)) - LogGamma(0.5 * nu) -
               0.5 * log(nu * M_PI) -
               0.5 * (nu + 1.0) * std::log1p(x * x / nu));
  }
  StatusOr<double> Cdf(const std::vector<double>& p, uint32_t,
                       double x) const override {
    double nu = p[0];
    double w = RegularizedBeta(0.5 * nu, 0.5, nu / (nu + x * x));
    return x >= 0.0 ? 1.0 - 0.5 * w : 0.5 * w;
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return Quantile(p[0], q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    if (p[0] <= 1.0) {
      return Status::OutOfRange("StudentT mean undefined for nu <= 1");
    }
    return 0.0;
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    if (p[0] <= 2.0) {
      return Status::OutOfRange("StudentT variance undefined for nu <= 2");
    }
    return p[0] / (p[0] - 2.0);
  }

 private:
  static double Quantile(double nu, double q) {
    if (q <= 0.0) return -kInf;
    if (q >= 1.0) return kInf;
    if (q == 0.5) return 0.0;
    // Invert through the incomplete-beta representation of |T|.
    double w = InverseRegularizedBeta(0.5 * nu, 0.5,
                                      2.0 * std::min(q, 1.0 - q));
    double x = w > 0.0 ? sqrt(nu * (1.0 - w) / w) : kInf;
    return q < 0.5 ? -x : x;
  }
};

// ---------------------------------------------------------------------------
// Tukey(lambda) — quantile-only exemplar.
// ---------------------------------------------------------------------------

/// Tukey's lambda distribution is specified by its quantile function
/// Q(p) = (p^l - (1-p)^l) / l (and the logistic Q at l = 0); no
/// closed-form CDF or PDF exists. Capabilities: generation (by inverse
/// transform) and the inverse CDF itself — the engine therefore cannot
/// use exact CDF integration or CDF windows and degrades to rejection.
class TukeyDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "Tukey";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override {
    return kGenerate | kInverseCdf | kMoments;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 1));
    return ExpectFinite(name(), p);
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, Quantile(p[0], stream.NextOpenUniform()));
    return Status::OK();
  }
  StatusOr<double> InverseCdf(const std::vector<double>& p, uint32_t,
                              double q) const override {
    return Quantile(p[0], q);
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    if (p[0] <= -1.0) {
      return Status::OutOfRange("Tukey mean undefined for lambda <= -1");
    }
    return 0.0;  // Symmetric about zero.
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    double l = p[0];
    if (l <= -0.5) {
      return Status::OutOfRange("Tukey variance undefined for lambda <= -1/2");
    }
    if (l == 0.0) return M_PI * M_PI / 3.0;  // Logistic limit.
    return (2.0 / (l * l)) *
           (1.0 / (1.0 + 2.0 * l) -
            exp(2.0 * LogGamma(l + 1.0) - LogGamma(2.0 * l + 2.0)));
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return p[0] > 0.0 ? Interval(-1.0 / p[0], 1.0 / p[0]) : Interval::All();
  }

 private:
  static double Quantile(double l, double q) {
    if (q <= 0.0) return l > 0.0 ? -1.0 / l : -kInf;
    if (q >= 1.0) return l > 0.0 ? 1.0 / l : kInf;
    if (l == 0.0) return log(q / (1.0 - q));
    return (std::pow(q, l) - std::pow(1.0 - q, l)) / l;
  }
};

// ---------------------------------------------------------------------------
// UniformSum(n) — generate-only exemplar (Irwin-Hall).
// ---------------------------------------------------------------------------

/// Sum of n independent U(0,1). The density is an n-piece polynomial
/// spline that is numerically hopeless for large n, so the class honestly
/// advertises generation only: every query against it must go through
/// rejection sampling (and cannot switch to Metropolis, which needs a
/// PDF) — the deepest degradation tier of the engine.
class UniformSumDist : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "UniformSum";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  uint32_t Capabilities() const override { return kGenerate | kMoments; }
  Status ValidateParams(const std::vector<double>& p) const override {
    PIP_RETURN_IF_ERROR(ExpectParamCount(name(), p, 1));
    PIP_RETURN_IF_ERROR(ExpectFinite(name(), p));
    if (!IsInteger(p[0]) || p[0] < 1.0 || p[0] > 65536.0) {
      return Status::InvalidArgument(
          name() + ": n must be an integer in [1, 65536]");
    }
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>& p, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    double sum = 0.0;
    for (long long i = 0; i < static_cast<long long>(p[0]); ++i) {
      sum += stream.NextUniform();
    }
    out->assign(1, sum);
    return Status::OK();
  }
  StatusOr<double> Mean(const std::vector<double>& p, uint32_t) const override {
    return 0.5 * p[0];
  }
  StatusOr<double> Variance(const std::vector<double>& p,
                            uint32_t) const override {
    return p[0] / 12.0;
  }
  Interval Support(const std::vector<double>& p, uint32_t) const override {
    return Interval(0.0, p[0]);
  }
};

}  // namespace

Status RegisterContinuousBuiltins(DistributionRegistry* registry) {
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<NormalDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<UniformDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<ExponentialDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<GammaDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<LognormalDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<BetaDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<StudentTDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<TukeyDist>()));
  PIP_RETURN_IF_ERROR(registry->Register(std::make_unique<UniformSumDist>()));
  return Status::OK();
}

}  // namespace dist_internal
}  // namespace pip
