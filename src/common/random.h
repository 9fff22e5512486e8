/// \file random.h
/// \brief Deterministic, counter-based pseudorandom number generation.
///
/// PIP's sampling semantics (paper §III-B, §V-B) require that a random
/// variable appearing at multiple points in a database receives a
/// *consistent* value within each sample: "multiple calls to Generate with
/// the same seed value produce the same sample, so only the seed value need
/// be stored." We realize this with a counter-based generator: the draw for
/// (variable id, component, sample index, draw index) is a pure function of
/// those coordinates and a global seed. No sampler state is stored anywhere.

#ifndef PIP_COMMON_RANDOM_H_
#define PIP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>

namespace pip {

/// Pins a unit-interval draw strictly inside (0, 1): quantile functions
/// return -/+inf at the absolute endpoints on unbounded supports, so
/// samplers mapping uniforms through inverse CDFs must never hand them
/// exactly 0 or 1 (either directly or by rounding of a window affine map).
inline double ClampUnitOpen(double u) {
  if (u <= 0.0) return 0x1.0p-53;
  if (u >= 1.0) return 1.0 - 0x1.0p-53;
  return u;
}

/// \brief Stateless mixing function at the core of the counter-based RNG.
///
/// A strengthened splitmix64 finalizer applied to a 4-word input. Passes
/// through the full 64-bit avalanche twice, which empirically suffices for
/// Monte Carlo work (we test uniformity and independence properties).
uint64_t MixBits(uint64_t a, uint64_t b, uint64_t c, uint64_t d);

/// \brief A stateless handle for deterministic sampling.
///
/// A RandomKey identifies one logical stream of i.i.d. draws: typically
/// (global seed, variable id, component subscript, sample index). Successive
/// draws within the stream advance an internal counter; the object is cheap
/// to copy and never touches global state.
class RandomStream {
 public:
  /// Creates the stream keyed by the coordinate tuple.
  RandomStream(uint64_t seed, uint64_t variable_id, uint64_t component,
               uint64_t sample_index)
      : seed_(seed),
        variable_id_(variable_id),
        component_(component),
        sample_index_(sample_index) {}

  /// Next raw 64-bit word.
  uint64_t NextBits() {
    return MixBits(seed_ ^ 0x9e3779b97f4a7c15ULL,
                   variable_id_ * 0xbf58476d1ce4e5b9ULL,
                   component_ ^ (sample_index_ << 32),
                   counter_++);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextUniform() {
    return static_cast<double>(NextBits() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in the open interval (0, 1); never returns exactly 0.
  /// Use before logs / inverse CDFs that diverge at the endpoints.
  double NextOpenUniform() {
    double u = NextUniform();
    return u > 0.0 ? u : 0x1.0p-53;
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBounded(uint64_t n);

  /// Standard normal draw (Box-Muller on the counter stream).
  double NextGaussian();

  /// Fills out[0..n) with the next n counter-consecutive raw words.
  /// Bit-identical to calling NextBits() n times; the counter advances by n,
  /// so block and scalar consumption can be interleaved freely.
  void FillBits(uint64_t* out, uint64_t n);

  /// Fills out[0..n) with the next n uniforms in [0, 1). Bit-identical to
  /// calling NextUniform() n times (one word per value).
  void FillUniforms(double* out, uint64_t n);

  /// Fills out[s * words + w] with the w-th NextUniform() of a fresh
  /// stream (seed, variable_id, component, sample_indices[s]), for s in
  /// [0, n) and w in [0, words). Bit-identical to opening each stream and
  /// drawing from it; the key words the streams share are mixed once.
  static void FillFreshUniforms(uint64_t seed, uint64_t variable_id,
                                uint64_t component,
                                const uint64_t* sample_indices, size_t n,
                                uint64_t words, double* out);

 private:
  uint64_t seed_;
  uint64_t variable_id_;
  uint64_t component_;
  uint64_t sample_index_;
  uint64_t counter_ = 0;
};

/// \brief Ordinary sequential PRNG for workload generation and shuffles.
///
/// xoshiro256** seeded via splitmix64. Deterministic given the seed; used
/// where a logical stream identity is not needed (e.g. synthetic data).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t NextBits();
  /// Uniform in [0,1).
  double NextUniform();
  /// Uniform in the open interval (0, 1); never returns exactly 0.
  double NextOpenUniform();
  /// Uniform in [lo, hi).
  double NextUniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBounded(uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);
  /// Standard normal.
  double NextGaussian();
  /// Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);

 private:
  uint64_t s_[4];
};

}  // namespace pip

#endif  // PIP_COMMON_RANDOM_H_
