/// \file distribution.h
/// \brief The distribution-plugin interface (paper §IV-B, §V-A).
///
/// PIP treats probability distributions as *plugins*: "integration,
/// inversion, or sampling functionality can be provided on a
/// per-distribution basis" and the sampling engine degrades gracefully
/// when a capability is missing (exact CDF integration -> inverse-CDF
/// constrained sampling -> rejection -> Metropolis). A plugin implements
/// `Generate` (mandatory) and whichever of PDF / CDF / inverse CDF /
/// moments it can supply, and advertises the set through a `Capabilities()`
/// bitmask. The engine never special-cases a distribution class: every
/// strategy decision is driven by capability queries, so user-registered
/// distributions participate in all optimizations automatically.
///
/// Distributions are stateless and parameterless singletons: parameters
/// travel with each call (the `VariablePool` stores them per variable),
/// which keeps one registry entry per *class* rather than per variable
/// and makes plugins trivially thread-safe.

#ifndef PIP_DIST_DISTRIBUTION_H_
#define PIP_DIST_DISTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/interval.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/dist/registry.h"

namespace pip {

/// \brief The shape of a distribution's domain.
enum class DomainKind {
  kContinuous,  ///< Absolutely continuous on (a subset of) the reals.
  kDiscrete,    ///< Supported on the integer lattice (possibly infinite).
};

/// \brief Capability bits advertised by a plugin (paper §IV-B).
///
/// `kGenerate` is mandatory — a distribution that cannot be sampled is
/// useless to a Monte Carlo engine. Everything else is optional and
/// unlocks a strategy tier:
///   - kCdf: exact single-variable probability computation.
///   - kCdf | kInverseCdf: constrained (windowed) quantile sampling.
///   - kPdf: Metropolis fallback and exact numeric integration (with kCdf).
///   - kFiniteDomain: possible-world enumeration (ExplodeDiscrete).
///   - kMoments: closed-form Mean/Variance (proposal scaling, short
///     circuits).
enum DistCapability : uint32_t {
  kGenerate = 1u << 0,
  kPdf = 1u << 1,
  kCdf = 1u << 2,
  kInverseCdf = 1u << 3,
  kMoments = 1u << 4,
  kFiniteDomain = 1u << 5,
};

/// \brief Coordinates of one deterministic draw.
///
/// PIP stores no sampler state: the value of variable `var_id` in sample
/// `sample_index` is a pure function of these coordinates and the pool
/// seed, so "multiple calls to Generate with the same seed value produce
/// the same sample" (§III-B). `attempt` decorrelates successive rejection
/// attempts (and doubles as a stream marker for auxiliary draws).
struct SampleContext {
  uint64_t seed = 0;
  uint64_t var_id = 0;
  uint64_t sample_index = 0;
  uint64_t attempt = 0;

  /// The derived stream seed shared by every component/sample of this
  /// (pool seed, attempt) pair. Batch kernels hoist it once per block.
  uint64_t MixedSeed() const {
    return MixBits(seed, attempt, 0x70697005ULL, 1);
  }

  /// The i.i.d. uniform stream for one component of this coordinate.
  RandomStream StreamFor(uint32_t component) const {
    return RandomStream(MixedSeed(), var_id, component, sample_index);
  }
};

/// \brief Abstract distribution plugin.
///
/// Implementations must be immutable after construction; one instance is
/// shared by every variable of the class across all threads. Optional
/// methods default to `Unimplemented` — override them together with the
/// matching `Capabilities()` bit. `component` selects a marginal of a
/// multivariate class and is always 0 for univariate ones.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Registry key, e.g. "Normal". Also the SQL constructor name.
  virtual const std::string& name() const = 0;

  virtual DomainKind domain() const = 0;

  /// Bitmask of DistCapability bits. Defaults to generate-only, the
  /// minimum viable plugin.
  virtual uint32_t Capabilities() const { return kGenerate; }

  bool HasPdf() const { return Capabilities() & kPdf; }
  bool HasCdf() const { return Capabilities() & kCdf; }
  bool HasInverseCdf() const { return Capabilities() & kInverseCdf; }
  bool HasMoments() const { return Capabilities() & kMoments; }
  bool HasFiniteDomain() const { return Capabilities() & kFiniteDomain; }

  /// Checks a parameter vector once at variable-creation time; the
  /// per-draw methods may assume validated parameters.
  virtual Status ValidateParams(const std::vector<double>& params) const = 0;

  /// Number of joint components for `params` (1 unless multivariate).
  virtual size_t NumComponents(const std::vector<double>& params) const {
    (void)params;
    return 1;
  }

  /// Draws all components jointly into `*out` (resized to NumComponents).
  /// Must consume randomness only through `ctx` streams so the draw is
  /// replayable from the coordinates alone.
  virtual Status GenerateJoint(const std::vector<double>& params,
                               const SampleContext& ctx,
                               std::vector<double>* out) const = 0;

  /// Draws the samples at indices sample_indices[0..n) (attempt and
  /// var_id from `ctx`; ctx.sample_index is ignored) into `out`,
  /// sample-major: the k-th listed sample occupies
  /// out[k * NumComponents(params) .. (k + 1) * NumComponents(params)).
  /// Indices may come in any order and repeat. The contract is strict
  /// bit-identity with the scalar path: every written value must equal
  /// what GenerateJoint would produce at that sample index, which in turn
  /// requires each sample's per-component word consumption (count and
  /// order) to match the scalar code exactly. The default loops over
  /// GenerateJoint, so overriding is optional; hot builtins override with
  /// two-pass kernels (per-lane word fill, then a transform).
  virtual Status GenerateBatch(const std::vector<double>& params,
                               const SampleContext& ctx,
                               const uint64_t* sample_indices, size_t n,
                               double* out) const;

  /// Marginal density (continuous) or probability mass (discrete) of
  /// `component` at `x`. Requires kPdf.
  virtual StatusOr<double> Pdf(const std::vector<double>& params,
                               uint32_t component, double x) const;

  /// Marginal P[X_component <= x]. Requires kCdf.
  virtual StatusOr<double> Cdf(const std::vector<double>& params,
                               uint32_t component, double x) const;

  /// Marginal quantile: continuous classes return the x with CDF(x) = p;
  /// discrete classes return the smallest lattice point k with
  /// CDF(k) >= p. Requires kInverseCdf.
  virtual StatusOr<double> InverseCdf(const std::vector<double>& params,
                                      uint32_t component, double p) const;

  /// Closed-form marginal moments. Require kMoments.
  virtual StatusOr<double> Mean(const std::vector<double>& params,
                                uint32_t component) const;
  virtual StatusOr<double> Variance(const std::vector<double>& params,
                                    uint32_t component) const;

  /// The values of a finite discrete domain, ascending, zero-mass points
  /// omitted. Requires kFiniteDomain.
  virtual StatusOr<std::vector<double>> DomainValues(
      const std::vector<double>& params) const;

  /// |DomainValues(params)| without materializing the vector, so
  /// possible-world enumeration can reject over-budget domains (e.g. a
  /// 1e6-rank Zipf) before allocating them. The default derives it from
  /// DomainValues; finite builtins override with closed forms.
  virtual StatusOr<size_t> DomainSize(
      const std::vector<double>& params) const;

  /// Smallest closed interval containing the marginal's mass. Sound
  /// default: the whole line.
  virtual Interval Support(const std::vector<double>& params,
                           uint32_t component) const {
    (void)params;
    (void)component;
    return Interval::All();
  }

 protected:
  /// Shared error for optional methods the subclass did not provide.
  Status MissingCapability(const char* what) const;
};

}  // namespace pip

#endif  // PIP_DIST_DISTRIBUTION_H_
