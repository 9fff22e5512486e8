/// \file variable_pool.h
/// \brief Per-database store of random variables (paper §III-B, §V-A).
///
/// A PIP random variable is (id, subscript, distribution class,
/// parameters). The pool owns the last two — the expression layer only
/// carries VarRef identities — and is the single point where the engine
/// resolves identity into behavior: capability queries, CDF evaluation,
/// and deterministic generation all go through here.
///
/// Determinism contract: the value of (variable, component) in sample
/// `sample_index` is a pure function of (pool seed, var_id, component,
/// sample_index, attempt). No sampler state exists, so "only the seed
/// value need be stored" to replay any world, and distinct
/// `sample_offset`s give statistically fresh but replayable runs.

#ifndef PIP_DIST_VARIABLE_POOL_H_
#define PIP_DIST_VARIABLE_POOL_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/interval.h"
#include "src/common/status.h"
#include "src/dist/distribution.h"
#include "src/expr/variable.h"

namespace pip {

/// \brief Everything the pool knows about one variable.
struct VariableInfo {
  std::string class_name;        ///< Registry name, e.g. "Normal".
  const Distribution* dist = nullptr;  ///< Resolved plugin (never null).
  std::vector<double> params;    ///< Validated constructor parameters.
  uint32_t num_components = 1;   ///< Joint dimensionality.
};

/// \brief Allocates VarRefs and mediates all distribution access.
///
/// Thread model: `Create` is internally synchronized and may run
/// concurrently with every read/query method; reads stay lock-free. The
/// store is a fixed two-level block table — blocks are allocated under
/// the create lock, never moved, and published with a release store of
/// the variable count, so a reader that passes the bounds check always
/// sees a fully constructed VariableInfo. This is what lets server
/// sessions INSERT (allocating variables) while other sessions sample.
class VariablePool {
 public:
  static constexpr uint64_t kDefaultSeed = 0x1cde2010ULL;

  /// `registry` resolves class names; defaults to the process registry,
  /// so runtime-registered plugins are visible to every pool.
  explicit VariablePool(uint64_t seed = kDefaultSeed,
                        const DistributionRegistry* registry = nullptr)
      : seed_(seed),
        registry_(registry != nullptr ? registry
                                      : &DistributionRegistry::Global()) {}
  ~VariablePool();
  VariablePool(const VariablePool&) = delete;
  VariablePool& operator=(const VariablePool&) = delete;

  uint64_t seed() const { return seed_; }
  size_t num_variables() const {
    return num_vars_.load(std::memory_order_acquire);
  }
  /// The registry this pool resolves class names against (plan caches key
  /// on its generation counter to observe plugin churn).
  const DistributionRegistry& registry() const { return *registry_; }

  /// CREATE_VARIABLE: resolves `class_name`, validates `params`, and
  /// allocates a fresh variable. The returned VarRef addresses component
  /// 0; use Component() for the other subscripts of multivariate classes.
  StatusOr<VarRef> Create(const std::string& class_name,
                          std::vector<double> params);

  /// Metadata lookup; NotFound for ids this pool never allocated.
  StatusOr<const VariableInfo*> Info(uint64_t var_id) const;

  /// The VarRef of another component of `base`'s variable; OutOfRange
  /// beyond the class's dimensionality.
  StatusOr<VarRef> Component(VarRef base, uint32_t component) const;

  // -- Capability queries (false for unknown variables). -----------------
  bool HasPdf(VarRef v) const;
  bool HasCdf(VarRef v) const;
  bool HasInverseCdf(VarRef v) const;
  /// Univariate, integer-lattice, finite-domain — i.e. possible-world
  /// enumerable (ExplodeDiscrete).
  bool IsFiniteDiscrete(uint64_t var_id) const;

  // -- Distribution access, parameterized per variable. ------------------
  StatusOr<double> Pdf(VarRef v, double x) const;
  StatusOr<double> Cdf(VarRef v, double x) const;
  StatusOr<double> InverseCdf(VarRef v, double p) const;
  StatusOr<double> Mean(VarRef v) const;
  StatusOr<double> Variance(VarRef v) const;
  /// Support interval of the marginal; All() for unknown variables (a
  /// sound over-approximation, so bound seeding stays safe).
  Interval Support(VarRef v) const;

  /// Deterministic draw of one component. Same (sample_index, attempt)
  /// always yields the same value — the c-table replay guarantee.
  StatusOr<double> Generate(VarRef v, uint64_t sample_index,
                            uint64_t attempt = 0) const;

  /// Deterministic joint draw of every component of `var_id` into `*out`
  /// (resized to the class's dimensionality).
  Status GenerateJoint(uint64_t var_id, uint64_t sample_index,
                       uint64_t attempt, std::vector<double>* out) const;

  /// Deterministic joint draws at the listed sample indices, sample-major
  /// into out[0 .. n * num_components). Bit-identical to n GenerateJoint
  /// calls; hot builtins run a batched kernel instead of the per-sample
  /// virtual loop.
  Status GenerateBatch(uint64_t var_id, const uint64_t* sample_indices,
                       size_t n, uint64_t attempt, double* out) const;

  /// The same for `n` consecutive sample indices starting at
  /// `sample_begin`, into `*out` (resized to n * num_components).
  Status GenerateBatch(uint64_t var_id, uint64_t sample_begin, uint64_t n,
                       uint64_t attempt, std::vector<double>* out) const;

 private:
  /// Two-level store geometry: 512 variables per block, up to 8192
  /// blocks (4M variables). Block pointers are stable for the pool's
  /// lifetime once published.
  static constexpr size_t kBlockBits = 9;
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;
  static constexpr size_t kMaxBlocks = size_t{1} << 13;

  const VariableInfo* InfoOrNull(uint64_t var_id) const {
    if (var_id < 1 || var_id > num_vars_.load(std::memory_order_acquire)) {
      return nullptr;
    }
    size_t idx = static_cast<size_t>(var_id - 1);
    const VariableInfo* block =
        blocks_[idx >> kBlockBits].load(std::memory_order_acquire);
    return &block[idx & (kBlockSize - 1)];
  }
  /// Info plus component bounds check, as a Status for the Or-returning
  /// accessors.
  StatusOr<const VariableInfo*> CheckedInfo(VarRef v) const;

  uint64_t seed_;
  const DistributionRegistry* registry_;
  std::mutex create_mu_;
  std::atomic<size_t> num_vars_{0};
  std::array<std::atomic<VariableInfo*>, kMaxBlocks> blocks_{};
};

}  // namespace pip

#endif  // PIP_DIST_VARIABLE_POOL_H_
