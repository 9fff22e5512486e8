/// \file special_math.h
/// \brief Special functions backing distribution PDFs, CDFs and quantiles.
///
/// Self-contained (no external math library) implementations with accuracy
/// adequate for Monte Carlo integration (relative error well below the
/// sampling noise floor): inverse error function, standard normal
/// CDF/quantile, log-gamma, regularized incomplete gamma (for Gamma and
/// large-rate Poisson CDFs) and its inverse, and the Poisson CDF ladder.

#ifndef PIP_COMMON_SPECIAL_MATH_H_
#define PIP_COMMON_SPECIAL_MATH_H_

#include <cstddef>

namespace pip {

/// Inverse of erf on (-1, 1). Returns +/-inf at the endpoints.
double ErfInv(double x);

/// Standard normal cumulative distribution function Phi(x).
double NormalCdf(double x);

/// Standard normal density phi(x).
double NormalPdf(double x);

/// Quantile of the standard normal: Phi^{-1}(p) for p in (0,1).
/// Returns -inf at 0 and +inf at 1.
double NormalQuantile(double p);

/// Natural log of the Gamma function for x > 0 (Lanczos approximation).
double LogGamma(double x);

/// Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Inverse of P(a, .) : finds x such that P(a, x) = p. p in [0, 1).
double InverseRegularizedGammaP(double a, double p);

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1] (continued-fraction evaluation).
double RegularizedBeta(double a, double b, double x);

/// Inverse of I_.(a, b): finds x with I_x(a, b) = p.
double InverseRegularizedBeta(double a, double b, double p);

/// Rates below this take the Poisson CDF ladder; rates at or above it
/// take the regularized incomplete gamma function, whose cost does not
/// grow with lambda. A ladder CDF costs O(k) rungs: on a 4-core Xeon it
/// matches one incomplete-gamma evaluation near lambda = 75, while a
/// ladder quantile stays 3x cheaper than the gamma walk up to lambda = 300.
inline constexpr double kPoissonLadderMaxLambda = 64.0;

/// CDF and quantile of Poisson(lambda). Below kPoissonLadderMaxLambda both
/// read one ladder: rung k holds F(k) = e^{-lambda} * sum_{j<=k}
/// lambda^j / j!, accumulated by the pmf recurrence in index order and
/// saturated to exactly 1.0 once the sum stops changing (or rounds past
/// 1). Quantile climbs the same rungs from k = 0, so Quantile(Cdf(k)) == k
/// exactly wherever Cdf(k) < 1. At and above the threshold, Cdf is
/// Q(floor(x) + 1, lambda) and Quantile walks it from a
/// normal-approximation guess.
///
/// Construction evaluates e^{-lambda} once, so a batch of draws at one
/// rate shares it; every result is bitwise the same as from a fresh
/// ladder.
class PoissonLadder {
 public:
  explicit PoissonLadder(double lambda);

  /// P[X <= floor(x)]; 0 for x < 0 or NaN.
  double Cdf(double x) const;

  /// Smallest integer k >= 0 with Cdf(k) >= q; 0 for q <= 0, +inf for
  /// q >= 1.
  double Quantile(double q) const;

  /// q[s] = Quantile(q[s]) for s in [0, n), bitwise. Below
  /// kPoissonLadderMaxLambda the ladder is climbed once for the batch:
  /// rungs are kept as they are first reached and each quantile is read
  /// off them by comparison.
  void QuantileBatch(double* q, size_t n) const;

 private:
  struct Rung {
    double k;
    double cdf;
  };
  /// Climbs from rung 0 to the first rung with F >= q, stopping early at
  /// rung k_max.
  Rung Climb(double q, double k_max) const;

  double lambda_;
  double p0_;  ///< e^{-lambda}: the pmf and the CDF at rung 0.
};

/// PoissonLadder(lambda).Cdf(k): P[X <= floor(k)] for rate lambda.
double PoissonCdf(double lambda, double k);

/// Log of the Poisson probability mass function at integer k >= 0.
double PoissonLogPmf(double lambda, long long k);

}  // namespace pip

#endif  // PIP_COMMON_SPECIAL_MATH_H_
