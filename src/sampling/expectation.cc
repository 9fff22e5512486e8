#include "src/sampling/expectation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/running_stats.h"
#include "src/common/special_math.h"
#include "src/sampling/metropolis.h"
#include "src/sampling/shape_key.h"

namespace pip {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest finite discrete domain memoized into a per-plan quantile
/// table. Bigger domains (e.g. a 1e6-rank Zipf) keep going through the
/// distribution's own InverseCdf, which such classes memoize internally.
constexpr size_t kMaxQuantileTable = 4096;

/// Floor of a shard's rejection-attempt budget. The proportional share
/// (max_total_attempts scaled by the shard's fraction of the schedule)
/// can be tiny for small shards; the floor keeps moderately-selective
/// conditions from collapsing spuriously while still bounding the work
/// an unsatisfiable condition can burn per shard.
constexpr size_t kMinChunkAttempts = size_t{1} << 20;

/// Views an atom as (Var op Const); flips sides when the variable is on
/// the right. Returns false when the atom has another shape.
bool AsVarConst(const ConstraintAtom& atom, VarRef* var, CmpOp* op,
                double* constant) {
  const Expr* var_side = nullptr;
  const Expr* const_side = nullptr;
  *op = atom.op();
  if (atom.lhs()->op() == ExprOp::kVar && atom.rhs()->IsConstant()) {
    var_side = atom.lhs().get();
    const_side = atom.rhs().get();
  } else if (atom.rhs()->op() == ExprOp::kVar && atom.lhs()->IsConstant()) {
    var_side = atom.rhs().get();
    const_side = atom.lhs().get();
    *op = FlipCmp(*op);
  } else {
    return false;
  }
  auto d = const_side->value().AsDouble();
  if (!d.ok()) return false;
  *var = var_side->var();
  *constant = d.value();
  return true;
}

/// Shape-level exact-CDF eligibility of one group: a single variable
/// with a CDF, every atom var-vs-numeric-const, and a PMF available when
/// equality/disequality atoms occur. Depends only on structure and class
/// capabilities, so PlanCache skeletons carry the verdict across rows.
bool ExactCdfEligible(const Condition& condition, const VariableGroup& group,
                      const VariablePool& pool) {
  if (group.vars.size() != 1 || group.atom_indices.empty()) return false;
  VarRef v = *group.vars.begin();
  if (!pool.HasCdf(v)) return false;
  bool needs_pmf = false;
  for (size_t idx : group.atom_indices) {
    VarRef av;
    CmpOp op;
    double c;
    if (!AsVarConst(condition.atoms()[idx], &av, &op, &c)) return false;
    if (op == CmpOp::kEq || op == CmpOp::kNe) needs_pmf = true;
  }
  return !needs_pmf || pool.HasPdf(v);
}

/// One quantile-window draw, strictly inside the open interval (0, 1):
/// rounding to an absolute endpoint would push an unbounded support's
/// quantile (InverseCdf(0) = -inf, InverseCdf(1) = +inf) into the sample,
/// and a one-sided window leaves that endpoint atom-satisfying.
/// `u` is the stream's next NextUniform(), opened as NextOpenUniform does.
double WindowDraw(double u, double lo, double hi) {
  return ClampUnitOpen(lo + (hi - lo) * (u > 0.0 ? u : 0x1.0p-53));
}

/// Per-plan memoized quantile table of a finite discrete variable:
/// domain values ascending with their cumulative masses, built once per
/// plan so the constrained sampler's hot loop never re-walks the
/// distribution's partial sums per attempt (ROADMAP hot-loop item).
/// Unlike CategoricalTable (builtins_discrete.cc), which searches raw
/// parameter vectors, this one is built from DomainValues() — whose
/// contract omits zero-mass points, so every entry here has positive
/// mass and no zero-mass guards are needed. A rounding-tail q above
/// cum.back() lands on the last (positive-mass) value, and any
/// off-by-an-ulp boundary draw is caught by the atom re-check in the
/// rejection loop (it becomes one wasted attempt, never a wrong
/// sample).
struct QuantileTable {
  std::vector<double> values;
  std::vector<double> cum;

  /// Smallest domain value whose cumulative mass reaches p (matching the
  /// discrete InverseCdf convention); the last value for p ~ 1.
  double Quantile(double p) const {
    auto it = std::lower_bound(cum.begin(), cum.end(), p);
    if (it == cum.end()) return values.back();
    return values[static_cast<size_t>(it - cum.begin())];
  }
};

/// Recursive adaptive Simpson quadrature. `ok` is cleared if the integrand
/// ever fails to evaluate; the result is then meaningless and the caller
/// falls back to sampling.
double AdaptiveSimpson(const std::function<StatusOr<double>(double)>& f,
                       double a, double b, double fa, double fm, double fb,
                       double tolerance, int depth, bool* ok) {
  if (!*ok) return 0.0;
  double m = 0.5 * (a + b);
  double lm = 0.5 * (a + m), rm = 0.5 * (m + b);
  auto flm_or = f(lm);
  auto frm_or = f(rm);
  if (!flm_or.ok() || !frm_or.ok()) {
    *ok = false;
    return 0.0;
  }
  double flm = flm_or.value(), frm = frm_or.value();
  double whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
  double left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
  double right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
  double delta = left + right - whole;
  if (depth <= 0 || std::fabs(delta) <= 15.0 * tolerance) {
    return left + right + delta / 15.0;
  }
  return AdaptiveSimpson(f, a, m, fa, flm, fm, 0.5 * tolerance, depth - 1,
                         ok) +
         AdaptiveSimpson(f, m, b, fm, frm, fb, 0.5 * tolerance, depth - 1,
                         ok);
}

/// The planning half of a group's execution plan: PlanGroups' strategy
/// choices, which every shard of the sample-index space shares.
struct GroupPlanning {
  std::vector<VarRef> vars;            // All components, ordered.
  std::vector<uint64_t> var_ids;       // Distinct ids, ordered.
  std::vector<ConstraintAtom> atoms;   // The group's constraints.
  bool touches_target = false;

  /// Quantile-space sampling window per var (1 entry per vars[i]);
  /// [0,1] means unconstrained.
  std::vector<double> window_lo, window_hi;
  std::vector<bool> cdf_constrained;
  double window_prob = 1.0;  // Product of window widths.

  /// Memoized quantile tables per vars[i] (null = use the
  /// distribution's InverseCdf). Shared by chunk clones.
  std::vector<std::shared_ptr<const QuantileTable>> quantile_tables;

  bool exact = false;        // Exact CDF integration available.
  double exact_prob = 1.0;

  /// The atoms compiled over `vars` (one program per atom, in order);
  /// null when some atom does not compile. Shared by chunk clones.
  std::shared_ptr<const std::vector<CompiledExpr>> compiled_atoms;

  uint64_t chain_key = 0;  // Seeds the group's Metropolis chain.
  ConsistencyResult consistency;  // Shared bounds (copied per group).
};

/// Hit counts of a binomial Monte Carlo estimate (the group-probability
/// estimator and joint aconf): one chunk's outcome, or the fold's total.
struct HitCount {
  size_t n = 0, hits = 0, attempts = 0;
  bool truncated = false;  // The chunk's attempt budget ran out.
  Status status = Status::OK();

  double rate() const {
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
  void Add(const HitCount& o) {
    n += o.n;
    hits += o.hits;
  }
  /// Adaptive stop: the half-width at confidence `z` is within delta of
  /// the estimate (floored at 0.01). The half-width is the normal
  /// approximation's, but never below 3/n, the rule-of-three bound on a
  /// rate with no hits (or no misses) in n draws: an estimate from a few
  /// hits, or none, is not yet precise, however small its sample
  /// variance.
  bool Converged(double z, const SamplingOptions& options) const {
    if (options.fixed_samples > 0 || n < options.min_samples) return false;
    const double p = rate();
    const double count = static_cast<double>(n);
    const double half_width =
        std::max(z * std::sqrt(p * (1.0 - p) / count), 3.0 / count);
    return half_width <= options.delta * std::max(p, 0.01);
  }
};

}  // namespace

/// Per-group execution plan: strategy choices plus runtime counters.
struct SamplingEngine::GroupPlan : GroupPlanning {
  // Runtime counters (Alg. 4.3's N and Count[K]).
  size_t accepted = 0;
  size_t attempts = 0;
  /// Shard clones disable the Metropolis switch: the decision and the
  /// chain live with the pilot shard so the switch never depends on
  /// scheduling (see RunChunks).
  bool allow_metropolis = true;
  std::unique_ptr<MetropolisSampler> metropolis;

  /// A copy for one shard of the sample-index space: the planning
  /// fields, zeroed counters, and the Metropolis switch off.
  GroupPlan CloneForChunk() const {
    GroupPlan c;
    static_cast<GroupPlanning&>(c) = *this;
    c.allow_metropolis = false;
    return c;
  }
};

/// Result of one shard of the expectation loop.
struct SamplingEngine::ChunkOutcome {
  /// Target values of the chunk's samples, in index order: a prefix of
  /// the chunk when it collapsed, aborted or failed.
  std::vector<double> values;
  RunningStats stats;   // Filled from `values` by the expectation loop.
  size_t attempts = 0;  // Attempt-counter consumption of this shard.
  /// Per-plan counter deltas (clone counters, folded back in order).
  std::vector<size_t> group_accepted, group_attempts;
  bool collapsed = false;  // Attempt budget exhausted mid-shard.
  Status status = Status::OK();
};

StatusOr<std::vector<SamplingEngine::GroupPlan>> SamplingEngine::PlanGroups(
    const Condition& condition, const VarSet& target_vars,
    bool* inconsistent) const {
  *inconsistent = false;
  if (condition.IsKnownFalse()) {
    *inconsistent = true;
    return std::vector<GroupPlan>{};
  }

  ConsistencyResult consistency = CheckConsistency(condition, *pool_);
  if (consistency.inconsistent()) {
    *inconsistent = true;
    return std::vector<GroupPlan>{};
  }

  // Structure-only planning: partition + per-group exact eligibility.
  // Both are pure functions of the condition's *shape*, so rows sharing a
  // shape (Analyze batches, inclusion-exclusion conjunctions) pay them
  // once through the shape cache.
  std::vector<VariableGroup> groups;
  std::vector<bool> exact_eligible;
  if (options_.use_independence) {
    std::vector<VarRef> canon_vars;
    std::string key =
        PlanShapeKey(condition, target_vars, *pool_,
                     PlanShapeFlagBits(options_), &canon_vars);
    std::shared_ptr<const PlanSkeleton> skeleton = plan_cache_->Lookup(key);
    if (skeleton == nullptr) {
      groups = PartitionIndependent(condition, target_vars);
      auto built = std::make_shared<PlanSkeleton>();
      built->groups.reserve(groups.size());
      std::map<VarRef, size_t> slot_of;
      for (size_t s = 0; s < canon_vars.size(); ++s) slot_of[canon_vars[s]] = s;
      for (const auto& g : groups) {
        PlanSkeleton::Group sg;
        sg.var_slots.reserve(g.vars.size());
        for (const VarRef& v : g.vars) sg.var_slots.push_back(slot_of.at(v));
        sg.atom_indices = g.atom_indices;
        sg.touches_target = g.touches_target;
        sg.exact_eligible = options_.use_exact_cdf &&
                            ExactCdfEligible(condition, g, *pool_);
        exact_eligible.push_back(sg.exact_eligible);
        built->groups.push_back(std::move(sg));
      }
      plan_cache_->Insert(key, std::move(built));
    } else {
      groups.reserve(skeleton->groups.size());
      for (const auto& sg : skeleton->groups) {
        VariableGroup g;
        for (size_t slot : sg.var_slots) g.vars.insert(canon_vars[slot]);
        g.atom_indices = sg.atom_indices;
        g.touches_target = sg.touches_target;
        groups.push_back(std::move(g));
        exact_eligible.push_back(sg.exact_eligible);
      }
    }
  } else {
    // Ablation mode: one monolithic group.
    VariableGroup g;
    g.vars = condition.Variables();
    g.vars.insert(target_vars.begin(), target_vars.end());
    for (size_t i = 0; i < condition.atoms().size(); ++i) {
      g.atom_indices.push_back(i);
    }
    g.touches_target = !target_vars.empty();
    if (!g.vars.empty()) {
      exact_eligible.push_back(options_.use_exact_cdf &&
                               ExactCdfEligible(condition, g, *pool_));
      groups.push_back(std::move(g));
    }
  }

  std::vector<GroupPlan> plans;
  plans.reserve(groups.size());
  size_t group_index = 0;
  for (const auto& g : groups) {
    GroupPlan plan;
    plan.vars.assign(g.vars.begin(), g.vars.end());
    for (const VarRef& v : plan.vars) {
      if (plan.var_ids.empty() || plan.var_ids.back() != v.var_id) {
        plan.var_ids.push_back(v.var_id);
      }
    }
    for (size_t idx : g.atom_indices) {
      plan.atoms.push_back(condition.atoms()[idx]);
    }
    auto programs = std::make_shared<std::vector<CompiledExpr>>();
    for (const auto& atom : plan.atoms) {
      std::optional<CompiledExpr> program =
          CompiledExpr::Compile(atom, plan.vars);
      if (!program.has_value()) {
        programs = nullptr;
        break;
      }
      programs->push_back(std::move(*program));
    }
    plan.compiled_atoms = std::move(programs);
    plan.touches_target = g.touches_target;
    plan.consistency = consistency;
    // Chain key: stable per (condition, group) so Metropolis chains are
    // replayable.
    uint64_t atoms_hash = 0;
    for (const auto& a : plan.atoms) atoms_hash ^= a.Hash();
    plan.exact = exact_eligible[group_index];
    plan.chain_key =
        MixBits(atoms_hash, group_index++, options_.sample_offset, 0x4d48ULL);

    // Per-variable CDF windows from the consistency bounds, memoized in
    // the plan: endpoints are evaluated here exactly once and reused by
    // every attempt of every sample.
    plan.window_lo.assign(plan.vars.size(), 0.0);
    plan.window_hi.assign(plan.vars.size(), 1.0);
    plan.cdf_constrained.assign(plan.vars.size(), false);
    plan.quantile_tables.assign(plan.vars.size(), nullptr);
    for (size_t i = 0; i < plan.vars.size(); ++i) {
      const VarRef& v = plan.vars[i];
      if (!options_.use_cdf_sampling) continue;
      auto info = pool_->Info(v.var_id);
      if (!info.ok() || info.value()->num_components != 1) continue;
      if (!pool_->HasCdf(v) || !pool_->HasInverseCdf(v)) continue;
      Interval b = plan.consistency.BoundsFor(v);
      if (!b.HasAnyBound()) continue;
      double flo = 0.0, fhi = 1.0;
      if (std::isfinite(b.lo)) {
        // For discrete variables the window must exclude values < ceil(lo)
        // entirely: P[X <= ceil(lo)-1].
        double lo_point =
            info.value()->dist->domain() == DomainKind::kContinuous
                ? b.lo
                : std::ceil(b.lo) - 1.0;
        auto f = pool_->Cdf(v, lo_point);
        if (!f.ok()) continue;
        flo = f.value();
      }
      if (std::isfinite(b.hi)) {
        double hi_point =
            info.value()->dist->domain() == DomainKind::kContinuous
                ? b.hi
                : std::floor(b.hi);
        auto f = pool_->Cdf(v, hi_point);
        if (!f.ok()) continue;
        fhi = f.value();
      }
      if (fhi <= flo) {
        // Zero-mass window: the condition is unsatisfiable in measure.
        *inconsistent = true;
        return std::vector<GroupPlan>{};
      }
      plan.window_lo[i] = flo;
      plan.window_hi[i] = fhi;
      plan.cdf_constrained[i] = (flo > 0.0 || fhi < 1.0);
      plan.window_prob *= (fhi - flo);

      // Finite discrete variables get a per-plan quantile table so the
      // hot loop's inverse-CDF becomes a binary search over prefix sums
      // computed once per plan (not per attempt).
      const Distribution* dist = info.value()->dist;
      if (plan.cdf_constrained[i] && dist->HasFiniteDomain() &&
          dist->HasPdf()) {
        auto size_or = dist->DomainSize(info.value()->params);
        if (size_or.ok() && size_or.value() > 0 &&
            size_or.value() <= kMaxQuantileTable) {
          auto values_or = dist->DomainValues(info.value()->params);
          if (values_or.ok() && !values_or.value().empty()) {
            auto table = std::make_shared<QuantileTable>();
            table->values = std::move(values_or).value();
            table->cum.reserve(table->values.size());
            double acc = 0.0;
            bool ok = true;
            for (double x : table->values) {
              auto mass = pool_->Pdf(v, x);
              if (!mass.ok()) {
                ok = false;
                break;
              }
              acc += mass.value();
              table->cum.push_back(acc);
            }
            if (ok) plan.quantile_tables[i] = std::move(table);
          }
        }
      }
    }

    if (plan.exact) {
      PIP_ASSIGN_OR_RETURN(plan.exact_prob, ExactGroupProbability(plan));
      if (plan.exact_prob <= 0.0) {
        *inconsistent = true;
        return std::vector<GroupPlan>{};
      }
    }

    plans.push_back(std::move(plan));
  }
  return plans;
}

StatusOr<double> SamplingEngine::ExactGroupProbability(
    const GroupPlan& plan) const {
  const VarRef v = plan.vars[0];
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, pool_->Info(v.var_id));
  bool discrete = info->dist->domain() != DomainKind::kContinuous;

  // Fold the atoms into one interval, tracking strictness (it matters on
  // the integer lattice of discrete variables) plus equality /
  // disequality pins.
  double lo = -kInf, hi = kInf;
  bool lo_strict = false, hi_strict = false;
  std::optional<double> eq;
  std::vector<double> ne;
  for (const auto& atom : plan.atoms) {
    VarRef av;
    CmpOp op;
    double c;
    if (!AsVarConst(atom, &av, &op, &c)) {
      return Status::Internal("exact plan with a non var-vs-const atom");
    }
    switch (op) {
      case CmpOp::kGt:
        if (c > lo || (c == lo && !lo_strict)) {
          lo = c;
          lo_strict = true;
        }
        break;
      case CmpOp::kGe:
        if (c > lo) {
          lo = c;
          lo_strict = false;
        }
        break;
      case CmpOp::kLt:
        if (c < hi || (c == hi && !hi_strict)) {
          hi = c;
          hi_strict = true;
        }
        break;
      case CmpOp::kLe:
        if (c < hi) {
          hi = c;
          hi_strict = false;
        }
        break;
      case CmpOp::kEq:
        if (eq && *eq != c) return 0.0;
        eq = c;
        break;
      case CmpOp::kNe:
        ne.push_back(c);
        break;
    }
  }

  auto cdf = [&](double x) -> StatusOr<double> { return pool_->Cdf(v, x); };

  if (!discrete) {
    if (eq) return 0.0;  // Zero mass (disequalities have full mass).
    if (hi <= lo) return 0.0;
    double fhi = std::isfinite(hi) ? ({
      PIP_ASSIGN_OR_RETURN(double f, cdf(hi));
      f;
    })
                                   : 1.0;
    double flo = std::isfinite(lo) ? ({
      PIP_ASSIGN_OR_RETURN(double f, cdf(lo));
      f;
    })
                                   : 0.0;
    return std::max(0.0, fhi - flo);
  }

  // Discrete (integer-lattice) case.
  double lo_int = std::isfinite(lo)
                      ? (lo_strict ? std::floor(lo) + 1.0 : std::ceil(lo))
                      : -kInf;
  double hi_int = std::isfinite(hi)
                      ? (hi_strict ? std::ceil(hi) - 1.0 : std::floor(hi))
                      : kInf;
  if (lo_int > hi_int) return 0.0;

  auto pmf = [&](double k) -> StatusOr<double> { return pool_->Pdf(v, k); };

  if (eq) {
    if (*eq < lo_int || *eq > hi_int) return 0.0;
    for (double x : ne) {
      if (x == *eq) return 0.0;
    }
    return pmf(*eq);
  }

  double fhi = std::isfinite(hi_int) ? ({
    PIP_ASSIGN_OR_RETURN(double f, cdf(hi_int));
    f;
  })
                                     : 1.0;
  double flo = std::isfinite(lo_int) ? ({
    PIP_ASSIGN_OR_RETURN(double f, cdf(lo_int - 1.0));
    f;
  })
                                     : 0.0;
  double p = std::max(0.0, fhi - flo);
  // Remove disequality pins inside the window (deduplicated).
  std::sort(ne.begin(), ne.end());
  ne.erase(std::unique(ne.begin(), ne.end()), ne.end());
  for (double x : ne) {
    if (std::floor(x) != x) continue;  // Off-lattice: zero mass anyway.
    if (x < lo_int || x > hi_int) continue;
    PIP_ASSIGN_OR_RETURN(double m, pmf(x));
    p -= m;
  }
  return std::max(0.0, p);
}

StatusOr<std::optional<double>> SamplingEngine::TryNumericIntegration(
    const ExprPtr& expr, const GroupPlan& plan) const {
  if (!options_.use_numeric_integration) return std::optional<double>{};
  if (plan.vars.size() != 1) return std::optional<double>{};
  const VarRef v = plan.vars[0];
  PIP_ASSIGN_OR_RETURN(const VariableInfo* info, pool_->Info(v.var_id));
  if (info->num_components != 1 || !info->dist->HasPdf() ||
      !info->dist->HasCdf()) {
    return std::optional<double>{};
  }
  // Constraints must reduce to an interval on v (the exact-plan shape) or
  // be absent entirely.
  if (!plan.atoms.empty() && !plan.exact) return std::optional<double>{};

  bool discrete = info->dist->domain() != DomainKind::kContinuous;
  Interval region =
      plan.consistency.BoundsFor(v).Intersect(pool_->Support(v));
  // Refold the atoms to recover lattice strictness (the bounds map stores
  // closed intervals only).
  double lo = region.lo, hi = region.hi;
  std::vector<double> excluded;
  for (const auto& atom : plan.atoms) {
    VarRef av;
    CmpOp op;
    double c;
    if (!AsVarConst(atom, &av, &op, &c)) return std::optional<double>{};
    switch (op) {
      case CmpOp::kGt:
        lo = std::max(lo, discrete ? std::floor(c) + 1.0 : c);
        break;
      case CmpOp::kGe:
        lo = std::max(lo, discrete ? std::ceil(c) : c);
        break;
      case CmpOp::kLt:
        hi = std::min(hi, discrete ? std::ceil(c) - 1.0 : c);
        break;
      case CmpOp::kLe:
        hi = std::min(hi, discrete ? std::floor(c) : c);
        break;
      case CmpOp::kEq:
        lo = std::max(lo, c);
        hi = std::min(hi, c);
        break;
      case CmpOp::kNe:
        if (discrete) excluded.push_back(c);
        break;
    }
  }
  if (lo > hi) return std::optional<double>{};

  Assignment point;
  auto g = [&](double x) -> StatusOr<double> {
    point.Set(v, x);
    return expr->EvalDouble(point);
  };

  if (discrete) {
    // Exact lattice sum over [lo, hi], tail-clipped by quantile for
    // unbounded domains.
    double k_lo = std::ceil(lo);
    double k_hi = hi;
    if (!std::isfinite(k_hi)) {
      if (!info->dist->HasInverseCdf()) return std::optional<double>{};
      PIP_ASSIGN_OR_RETURN(
          k_hi, info->dist->InverseCdf(info->params, 0, 1.0 - 1e-14));
    }
    if (!std::isfinite(k_lo) || k_hi - k_lo > 2e6) {
      return std::optional<double>{};
    }
    double numerator = 0.0, mass = 0.0;
    for (double k = k_lo; k <= k_hi; k += 1.0) {
      bool skip = false;
      for (double x : excluded) skip = skip || (x == k);
      if (skip) continue;
      PIP_ASSIGN_OR_RETURN(double pmf, pool_->Pdf(v, k));
      if (pmf <= 0.0) continue;
      auto value = g(k);
      if (!value.ok()) return std::optional<double>{};
      numerator += pmf * value.value();
      mass += pmf;
    }
    if (mass <= 0.0) return std::optional<double>{};
    return std::optional<double>{numerator / mass};
  }

  // Continuous: clip unbounded endpoints at extreme quantiles.
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    if (!info->dist->HasInverseCdf()) return std::optional<double>{};
    if (!std::isfinite(lo)) {
      PIP_ASSIGN_OR_RETURN(lo, info->dist->InverseCdf(info->params, 0, 1e-14));
    }
    if (!std::isfinite(hi)) {
      PIP_ASSIGN_OR_RETURN(
          hi, info->dist->InverseCdf(info->params, 0, 1.0 - 1e-14));
    }
  }
  if (!(hi > lo) || !std::isfinite(lo) || !std::isfinite(hi)) {
    return std::optional<double>{};
  }
  PIP_ASSIGN_OR_RETURN(double flo, pool_->Cdf(v, lo));
  PIP_ASSIGN_OR_RETURN(double fhi, pool_->Cdf(v, hi));
  double mass = fhi - flo;
  if (mass <= 1e-300) return std::optional<double>{};

  auto integrand = [&](double x) -> StatusOr<double> {
    PIP_ASSIGN_OR_RETURN(double pdf, pool_->Pdf(v, x));
    if (!std::isfinite(pdf)) {
      return Status::OutOfRange("pdf singularity");  // Fallback to sampling.
    }
    PIP_ASSIGN_OR_RETURN(double value, g(x));
    return pdf * value;
  };
  auto fa = integrand(lo);
  auto fm = integrand(0.5 * (lo + hi));
  auto fb = integrand(hi);
  if (!fa.ok() || !fm.ok() || !fb.ok()) return std::optional<double>{};
  bool ok = true;
  double numerator = AdaptiveSimpson(
      integrand, lo, hi, fa.value(), fm.value(), fb.value(),
      options_.integration_tolerance * std::max(1.0, mass), 40, &ok);
  if (!ok || !std::isfinite(numerator)) return std::optional<double>{};
  return std::optional<double>{numerator / mass};
}

size_t SamplingEngine::ChunkAttemptBudget(size_t chunk_len,
                                          size_t schedule_len) const {
  if (schedule_len == 0 || chunk_len >= schedule_len) {
    return options_.max_total_attempts;
  }
  double share = static_cast<double>(options_.max_total_attempts) *
                 static_cast<double>(chunk_len) /
                 static_cast<double>(schedule_len);
  double budget =
      std::max(share, static_cast<double>(kMinChunkAttempts));
  return static_cast<size_t>(
      std::min(budget, static_cast<double>(options_.max_total_attempts)));
}

StatusOr<bool> SamplingEngine::SampleGroupOnce(GroupPlan* plan,
                                               uint64_t sample_index,
                                               Assignment* assignment,
                                               size_t* total_attempts,
                                               size_t attempt_budget) const {
  // Metropolis mode: the chain hands us a constrained sample directly.
  if (plan->metropolis != nullptr) {
    PIP_RETURN_IF_ERROR(plan->metropolis->NextSample(assignment));
    ++plan->accepted;
    return true;
  }

  std::vector<double> joint;
  for (uint64_t attempt = 0;; ++attempt) {
    if (++(*total_attempts) > attempt_budget) return false;
    ++plan->attempts;
    PIP_ASSIGN_OR_RETURN(
        bool ok, TryAttempt(*plan, sample_index, attempt, assignment, &joint));
    if (ok) {
      ++plan->accepted;
      return true;
    }
    if (MetropolisDue(*plan)) return StartMetropolis(plan, assignment);
  }
}

StatusOr<bool> SamplingEngine::TryAttempt(const GroupPlan& plan,
                                          uint64_t sample_index,
                                          uint64_t attempt,
                                          Assignment* assignment,
                                          std::vector<double>* joint) const {
  // Draw every variable of the group.
  for (size_t i = 0; i < plan.vars.size(); ++i) {
    const VarRef& v = plan.vars[i];
    if (plan.cdf_constrained[i]) {
      SampleContext ctx{pool_->seed(), v.var_id, sample_index, attempt};
      RandomStream stream = ctx.StreamFor(v.component);
      double u = WindowDraw(stream.NextUniform(), plan.window_lo[i],
                            plan.window_hi[i]);
      double x;
      if (plan.quantile_tables[i] != nullptr) {
        x = plan.quantile_tables[i]->Quantile(u);
      } else {
        PIP_ASSIGN_OR_RETURN(x, pool_->InverseCdf(v, u));
      }
      assignment->Set(v, x);
    } else if (i == 0 || plan.vars[i].var_id != plan.vars[i - 1].var_id) {
      // Natural joint draw of all components of this id.
      PIP_RETURN_IF_ERROR(
          pool_->GenerateJoint(v.var_id, sample_index, attempt, joint));
      for (uint32_t comp = 0; comp < joint->size(); ++comp) {
        assignment->Set(VarRef{v.var_id, comp}, (*joint)[comp]);
      }
    }
  }
  // Accept iff every group atom holds.
  for (const auto& atom : plan.atoms) {
    PIP_ASSIGN_OR_RETURN(bool t, atom.Eval(*assignment));
    if (!t) return false;
  }
  return true;
}

bool SamplingEngine::MetropolisDue(const GroupPlan& plan) const {
  // Alg. 4.3 lines 19-24. Shard clones skip the check — the chain
  // decision belongs to the pilot shard, so it never depends on how the
  // index space was scheduled.
  if (!options_.use_metropolis || !plan.allow_metropolis ||
      plan.attempts < options_.metropolis_check_after) {
    return false;
  }
  double rejection_rate = 1.0 - static_cast<double>(plan.accepted) /
                                    static_cast<double>(plan.attempts);
  return rejection_rate > options_.metropolis_threshold &&
         MetropolisSampler::CanHandle(*pool_, plan.vars);
}

StatusOr<bool> SamplingEngine::StartMetropolis(GroupPlan* plan,
                                               Assignment* assignment) const {
  auto sampler = std::make_unique<MetropolisSampler>(
      pool_, plan->vars, plan->atoms, plan->consistency, plan->chain_key);
  Status init = sampler->Init();
  if (!init.ok()) return false;  // "unable to find a start point".
  plan->metropolis = std::move(sampler);
  PIP_RETURN_IF_ERROR(plan->metropolis->NextSample(assignment));
  ++plan->accepted;
  return true;
}

namespace {

/// Records a genuine budget collapse of chunk `chunk_index` by lowering
/// *first_collapsed to it, so chunks after it abort early.
void NoteCollapse(size_t chunk_index, std::atomic<uint64_t>* first_collapsed) {
  if (first_collapsed == nullptr) return;
  uint64_t cur = first_collapsed->load(std::memory_order_relaxed);
  while (chunk_index < cur &&
         !first_collapsed->compare_exchange_weak(cur, chunk_index,
                                                 std::memory_order_relaxed)) {
  }
}

}  // namespace

/// One group's gather rounds over a chunk; the group's atoms must have
/// compiled. Lane k is sample index first_index + k. A round draws one attempt
/// for a list of lanes that are still pending: one GenerateBatch call per
/// distinct variable over the list, a window draw per lane for CDF-windowed
/// variables, then the compiled atoms over the round's columns. A lane stays
/// pending while every attempt drawn so far was rejected, and ends accepted
/// (its draws kept as columns) or failed (a draw or an atom errs) at one
/// attempt — the attempt at which SampleGroupOnce would return. Draws are pure
/// functions of (sample index, attempt), so which rounds computed a lane never
/// shows; Consume replays the scalar loop's counter arithmetic and draws
/// further rounds only when the replay needs them.
struct SamplingEngine::PlanRounds {
  enum class Lane : uint8_t { kPending, kAccepted, kFailed };
  enum class Verdict { kAccepted, kTripped, kFailed, kMetropolis };

  PlanRounds(const SamplingEngine* engine, GroupPlan* plan,
             uint64_t first_index, size_t len, size_t* chunk_draws)
      : engine(engine),
        plan(plan),
        first_index(first_index),
        len(len),
        chunk_draws(chunk_draws),
        armed(engine->options_.use_metropolis && plan->allow_metropolis &&
              MetropolisSampler::CanHandle(*engine->pool_, plan->vars)),
        state(len, Lane::kPending),
        attempt_of(len, 0),
        lane_error(len),
        columns(plan->vars.size() * len, 0.0) {
    pending.reserve(len);
    for (size_t k = 0; k < len; ++k) pending.push_back(k);
    infos.reserve(plan->vars.size());
    for (const VarRef& v : plan->vars) {
      auto info = engine->pool_->Info(v.var_id);
      infos.push_back(info.ok() ? info.value() : nullptr);
    }
  }

  bool accepted(size_t k) const { return state[k] == Lane::kAccepted; }

  /// Draws `attempt` for every lane at once (one attempt per sample).
  void DrawAll(uint64_t attempt) {
    Round(attempt, pending.data(), pending.size());
  }

  /// Lane k's verdict after its deciding round: whether the attempt
  /// was accepted, or its failure.
  StatusOr<bool> Outcome(size_t k) const {
    if (state[k] == Lane::kFailed) return lane_error[k];
    return state[k] == Lane::kAccepted;
  }

  /// Accepted value of plan->vars[i] per lane.
  const double* column(size_t i) const { return columns.data() + i * len; }

  /// Adds lane k's accepted draws to *a (the scalar path's assignment).
  void Export(size_t k, Assignment* a) const {
    for (size_t i = 0; i < plan->vars.size(); ++i) {
      a->Set(plan->vars[i], column(i)[k]);
    }
  }

  /// Replays lane k's rejection loop with SampleGroupOnce's arithmetic:
  /// one budget check and one plan attempt per attempt, the Metropolis
  /// test after each rejection, acceptance or the failure last. Lanes
  /// before k must already be consumed.
  Verdict Consume(size_t k, size_t* total, size_t budget, Status* error) {
    size_t a = 0;  // Next attempt of lane k to replay.
    for (;;) {
      if (state[k] == Lane::kPending && a == attempt_of[k]) Extend(k, budget);
      // Attempts [a, attempt_of[k]) were drawn and rejected.
      for (; a < attempt_of[k]; ++a) {
        if (++*total > budget) return Verdict::kTripped;
        ++plan->attempts;
        if (armed && engine->MetropolisDue(*plan)) return Verdict::kMetropolis;
      }
      if (state[k] == Lane::kPending) continue;
      if (++*total > budget) return Verdict::kTripped;
      ++plan->attempts;
      if (state[k] == Lane::kFailed) {
        *error = lane_error[k];
        return Verdict::kFailed;
      }
      ++plan->accepted;
      return Verdict::kAccepted;
    }
  }

 private:
  /// Draws lane k's next attempt, and speculatively the same attempt of
  /// every later pending lane unless speculation is off. It turns off
  /// (for the rest of the chunk) once the chunk's draws exceed the
  /// budget, or once an armed plan's replay reaches the Metropolis check
  /// point: the scalar loop may switch to a chain there, and later
  /// lanes' draws would be waste.
  void Extend(size_t k, size_t budget) {
    narrow = narrow || *chunk_draws > budget ||
             (armed &&
              plan->attempts >= engine->options_.metropolis_check_after);
    if (narrow) {
      // Lanes before k are consumed, so k heads the pending list.
      Round(attempt_of[k], &k, 1);
      if (state[k] != Lane::kPending) pending.erase(pending.begin());
    } else {
      // Whole rounds keep every pending lane at the same attempt.
      Round(attempt_of[k], pending.data(), pending.size());
    }
  }

  /// Draws attempt `attempt` for lanes[0..m). When `lanes` is the
  /// pending list, it is compacted to the lanes still pending.
  void Round(uint64_t attempt, const size_t* lanes, size_t m) {
    const VariablePool& pool = *engine->pool_;
    const size_t nv = plan->vars.size();
    idx.resize(m);
    for (size_t j = 0; j < m; ++j) idx[j] = first_index + lanes[j];
    vals.resize(nv * m);  // Var-major: plan->vars[i] of round lane j.
    // Failures are rare: `failed` (1 + index into `errors`, 0 while
    // healthy) is only filled once one occurs.
    failed.clear();
    errors.clear();
    auto fail = [&](size_t j, Status s) {
      if (failed.empty()) failed.assign(m, 0);
      if (failed[j] != 0) return;  // A draw order's first error wins.
      errors.push_back(std::move(s));
      failed[j] = errors.size();
    };
    auto healthy = [&](size_t j) { return failed.empty() || failed[j] == 0; };

    for (size_t i = 0; i < nv; ++i) {
      const VarRef& v = plan->vars[i];
      double* col = vals.data() + i * m;
      if (plan->cdf_constrained[i]) {
        const uint64_t mixed =
            SampleContext{pool.seed(), v.var_id, 0, attempt}.MixedSeed();
        const QuantileTable* table = plan->quantile_tables[i].get();
        RandomStream::FillFreshUniforms(mixed, v.var_id, v.component,
                                        idx.data(), m, 1, col);
        for (size_t j = 0; j < m; ++j) {
          if (!healthy(j)) continue;
          double u =
              WindowDraw(col[j], plan->window_lo[i], plan->window_hi[i]);
          if (table != nullptr) {
            col[j] = table->Quantile(u);
          } else {
            // Windows exist only for univariate variables, so the
            // pool's component check is settled.
            auto x = infos[i] != nullptr
                         ? infos[i]->dist->InverseCdf(infos[i]->params,
                                                      v.component, u)
                         : pool.InverseCdf(v, u);
            if (x.ok()) {
              col[j] = x.value();
            } else {
              fail(j, x.status());
            }
          }
        }
      } else if (i == 0 || plan->vars[i - 1].var_id != v.var_id) {
        // One kernel call for every component of this id; components
        // the group mentions are split out of the sample-major block.
        const size_t d = infos[i] != nullptr ? infos[i]->num_components : 1;
        double* out = col;
        if (d > 1) {
          block.resize(d * m);
          out = block.data();
        }
        if (!pool.GenerateBatch(v.var_id, idx.data(), m, attempt, out).ok()) {
          // The batch reports a single lane's error: redraw lane by lane
          // so each lane gets the outcome its scalar draw would.
          for (size_t j = 0; j < m; ++j) {
            Status s = pool.GenerateJoint(v.var_id, idx[j], attempt, &joint);
            if (s.ok()) {
              std::copy(joint.begin(), joint.end(), out + j * d);
            } else {
              fail(j, std::move(s));
            }
          }
        }
        if (d > 1) {
          for (size_t i2 = i; i2 < nv && plan->vars[i2].var_id == v.var_id;
               ++i2) {
            double* dst = vals.data() + i2 * m;
            const uint32_t c = plan->vars[i2].component;
            for (size_t j = 0; j < m; ++j) dst[j] = block[j * d + c];
          }
        }
      }
    }

    // Atoms in order, each on the lanes every earlier atom accepted.
    alive.resize(m);
    for (size_t j = 0; j < m; ++j) alive[j] = healthy(j);
    cols.resize(nv);
    for (size_t i = 0; i < nv; ++i) cols[i] = vals.data() + i * m;
    for (const CompiledExpr& program : *plan->compiled_atoms) {
      eval_errors.assign(m, EvalError::kNone);
      const double* holds =
          program.Eval(cols.data(), m, eval_errors.data(), &scratch);
      for (size_t j = 0; j < m; ++j) {
        if (alive[j] && eval_errors[j] != EvalError::kNone) {
          fail(j, EvalErrorStatus(eval_errors[j]));
          alive[j] = 0;
        }
        alive[j] &= holds[j] != 0.0;
      }
    }

    // Resolve the round. Columns take every lane's draws: a lane still
    // pending is overwritten by the round that accepts it.
    for (size_t i = 0; i < nv; ++i) {
      const double* src = vals.data() + i * m;
      double* dst = columns.data() + i * len;
      for (size_t j = 0; j < m; ++j) dst[lanes[j]] = src[j];
    }
    const bool compact = lanes == pending.data();
    size_t still_pending = 0;
    for (size_t j = 0; j < m; ++j) {
      const size_t lane = lanes[j];
      const bool ok = alive[j] != 0;
      const bool bad = !healthy(j);
      state[lane] = ok ? Lane::kAccepted : Lane::kPending;
      attempt_of[lane] = attempt + (ok || bad ? 0 : 1);
      if (bad) {
        state[lane] = Lane::kFailed;
        lane_error[lane] = errors[failed[j] - 1];
      }
      if (compact) {
        pending[still_pending] = lane;
        still_pending += !ok && !bad;
      }
    }
    if (compact) pending.resize(still_pending);
    *chunk_draws += m;
  }

 public:
  const SamplingEngine* engine;
  GroupPlan* plan;

 private:
  const uint64_t first_index;
  const size_t len;
  size_t* chunk_draws;  // Draws of every plan of the chunk.
  const bool armed;     // The Metropolis switch can fire.
  bool narrow = false;

  // Per lane: state, attempt_of (attempts drawn while pending, else the
  // deciding attempt), the failure, and accepted draws (var-major).
  std::vector<Lane> state;
  std::vector<size_t> attempt_of;
  std::vector<Status> lane_error;
  std::vector<double> columns;
  std::vector<size_t> pending;  // Pending lanes, ascending.
  std::vector<const VariableInfo*> infos;  // Per plan->vars[i].

  // Round scratch.
  std::vector<uint64_t> idx;
  std::vector<double> vals, block, joint, scratch;
  std::vector<size_t> failed;
  std::vector<Status> errors;
  std::vector<uint8_t> alive;
  std::vector<const double*> cols;
  std::vector<EvalError> eval_errors;
};

StatusOr<double> SamplingEngine::EstimateGroupProbability(
    GroupPlan* plan, size_t* total_attempts) const {
  if (plan->exact) return plan->exact_prob;
  if (plan->atoms.empty()) return 1.0;

  // Fresh Monte Carlo estimate of P[atoms | windows] * window_prob. The
  // attempt-key marker decorrelates these draws from the expectation
  // loop's draws. Each draw is a pure function of its sample index, so
  // the index space shards into chunks exactly like the expectation
  // loop: fixed chunk schedule, hits folded in chunk order, adaptive
  // stopping evaluated at chunk barriers only.
  constexpr uint64_t kEstimateMarker = 0xE571ULL << 32;
  const double z = M_SQRT2 * ErfInv(1.0 - options_.epsilon);
  size_t cap = options_.fixed_samples > 0
                   ? std::max<size_t>(options_.fixed_samples, 256)
                   : options_.max_samples;

  auto run = [&](const Chunk& chunk, HitCount* out) {
    const uint64_t first = options_.sample_offset + chunk.begin;
    const size_t len = chunk.end - chunk.begin;
    // One attempt per sample: batched, a single round over the chunk.
    // Draws are pure functions of their sample index, so a round's
    // lanes past a truncation are invisible to the fold.
    size_t draws = 0;
    std::optional<PlanRounds> round;
    if (options_.use_batch_generation && plan->compiled_atoms != nullptr) {
      round.emplace(this, plan, first, len, &draws);
      round->DrawAll(kEstimateMarker);
    }
    std::vector<double> joint;
    Assignment a;
    for (uint64_t k = 0; k < len; ++k) {
      if (++out->attempts > chunk.budget) {
        out->truncated = true;
        return;
      }
      StatusOr<bool> hit =
          round ? round->Outcome(k)
                : TryAttempt(*plan, first + k, kEstimateMarker, &a, &joint);
      if (!hit.ok()) {
        out->status = hit.status();
        return;
      }
      ++out->n;
      if (hit.value()) ++out->hits;
    }
  };

  HitCount total;
  PIP_RETURN_IF_ERROR(RunChunks<HitCount>(
      "group probability estimate", cap, options_.fixed_samples == 0, run,
      [&](const Chunk&, const HitCount& o) {
        *total_attempts += o.attempts;
        total.Add(o);
        // Budget collapse — the shard's own, or the call-wide ledger
        // (*total_attempts carries over from the expectation phase, so
        // max_total_attempts bounds the whole call, not just this
        // estimator): estimate from what we have.
        if (o.truncated || *total_attempts > options_.max_total_attempts) {
          return false;
        }
        return !total.Converged(z, options_);
      }));
  return total.rate() * plan->window_prob;
}

std::optional<CompiledExpr> SamplingEngine::CompileTarget(
    const std::vector<GroupPlan>& plans, const ExprPtr& expr) const {
  std::vector<VarRef> slots;
  for (const auto& plan : plans) {
    if (plan.touches_target) {
      slots.insert(slots.end(), plan.vars.begin(), plan.vars.end());
    }
  }
  return CompiledExpr::Compile(*expr, slots);
}

SamplingEngine::ChunkOutcome SamplingEngine::SampleChunk(
    std::vector<GroupPlan>* plans, const ExprPtr& expr,
    const CompiledExpr* target, uint64_t begin, uint64_t end,
    size_t attempt_budget, size_t chunk_index,
    std::atomic<uint64_t>* first_collapsed) const {
  ChunkOutcome out;
  std::vector<size_t> accepted0(plans->size()), attempts0(plans->size());
  // Chains draw one sample at a time, and trees that do not compile are
  // evaluated per sample: both take the scalar loop.
  bool batched = options_.use_batch_generation && target != nullptr;
  std::vector<size_t> targets;
  for (size_t g = 0; g < plans->size(); ++g) {
    const GroupPlan& plan = (*plans)[g];
    accepted0[g] = plan.accepted;
    attempts0[g] = plan.attempts;
    if (!plan.touches_target) continue;
    targets.push_back(g);
    if (plan.metropolis != nullptr || plan.compiled_atoms == nullptr) {
      batched = false;
    }
  }
  auto finish = [&] {
    out.group_accepted.resize(plans->size());
    out.group_attempts.resize(plans->size());
    for (size_t g = 0; g < plans->size(); ++g) {
      out.group_accepted[g] = (*plans)[g].accepted - accepted0[g];
      out.group_attempts[g] = (*plans)[g].attempts - attempts0[g];
    }
    return std::move(out);
  };
  Assignment assignment;
  if (!batched) {
    ScalarSamples(plans, expr, begin, 0, end, attempt_budget, chunk_index,
                  first_collapsed, &assignment, &out);
    return finish();
  }

  const size_t len = end - begin;
  size_t chunk_draws = 0;
  std::vector<PlanRounds> rounds;
  rounds.reserve(targets.size());
  for (size_t g : targets) {
    rounds.emplace_back(this, &(*plans)[g], options_.sample_offset + begin,
                        len, &chunk_draws);
  }
  // Target values, computed column-wise for runs of lanes every plan
  // accepted; lanes [k, ready) have theirs.
  std::vector<double> values(len);
  std::vector<EvalError> eval_errors(values.size(), EvalError::kNone);
  std::vector<const double*> cols;
  std::vector<double> scratch;
  size_t ready = 0;
  out.values.reserve(len);
  for (size_t k = 0; k < len; ++k) {
    // A strictly earlier chunk's budget genuinely collapsed: the in-order
    // fold stops before ever reading this chunk, so stop burning its
    // budget. Strictly-earlier matters: chunks before the minimal
    // collapsed index never abort, keeping the fold's view of them — and
    // hence the visible result — bit-identical to a serial run.
    if (first_collapsed != nullptr &&
        first_collapsed->load(std::memory_order_relaxed) < chunk_index) {
      out.collapsed = true;
      return finish();
    }
    for (size_t t = 0; t < rounds.size(); ++t) {
      Status error;
      auto verdict =
          rounds[t].Consume(k, &out.attempts, attempt_budget, &error);
      if (verdict == PlanRounds::Verdict::kAccepted) continue;
      if (verdict == PlanRounds::Verdict::kFailed) {
        out.status = std::move(error);
        return finish();
      }
      if (verdict == PlanRounds::Verdict::kMetropolis) {
        // The group switches to a chain mid-sample: hand the rest of the
        // chunk to the scalar path, with this sample's earlier groups
        // already drawn.
        assignment.Clear();
        for (size_t u = 0; u < t; ++u) rounds[u].Export(k, &assignment);
        auto started = StartMetropolis(rounds[t].plan, &assignment);
        if (!started.ok()) {
          out.status = started.status();
          return finish();
        }
        if (started.value()) {
          ScalarSamples(plans, expr, begin + k, targets[t] + 1, end,
                        attempt_budget, chunk_index, first_collapsed,
                        &assignment, &out);
          return finish();
        }
      }
      // The budget tripped, or the chain found no start point.
      out.collapsed = true;
      NoteCollapse(chunk_index, first_collapsed);
      return finish();
    }
    if (k >= ready) {
      // Every plan already accepted lanes [k, ready): evaluate them at once.
      ready = k + 1;
      auto all_accepted = [&](size_t lane) {
        return std::all_of(
            rounds.begin(), rounds.end(),
            [&](const PlanRounds& r) { return r.accepted(lane); });
      };
      while (ready < len && all_accepted(ready)) ++ready;
      cols.clear();
      for (const PlanRounds& r : rounds) {
        for (size_t i = 0; i < r.plan->vars.size(); ++i) {
          cols.push_back(r.column(i) + k);
        }
      }
      const double* v = target->Eval(cols.data(), ready - k,
                                     eval_errors.data() + k, &scratch);
      std::copy(v, v + (ready - k), values.begin() + k);
    }
    if (eval_errors[k] != EvalError::kNone) {
      out.status = EvalErrorStatus(eval_errors[k]);
      return finish();
    }
    out.values.push_back(values[k]);
  }
  return finish();
}

void SamplingEngine::ScalarSamples(std::vector<GroupPlan>* plans,
                                   const ExprPtr& expr, uint64_t i,
                                   size_t first_plan, uint64_t end,
                                   size_t attempt_budget, size_t chunk_index,
                                   std::atomic<uint64_t>* first_collapsed,
                                   Assignment* assignment,
                                   ChunkOutcome* out) const {
  for (; i < end; ++i, first_plan = 0) {
    if (first_plan == 0) {
      // See SampleChunk for the abort rule.
      if (first_collapsed != nullptr &&
          first_collapsed->load(std::memory_order_relaxed) < chunk_index) {
        out->collapsed = true;
        return;
      }
      assignment->Clear();
    }
    for (size_t g = first_plan; g < plans->size(); ++g) {
      auto& plan = (*plans)[g];
      if (!plan.touches_target) continue;
      auto ok = SampleGroupOnce(&plan, options_.sample_offset + i, assignment,
                                &out->attempts, attempt_budget);
      if (!ok.ok()) {
        out->status = ok.status();
        return;
      }
      if (!ok.value()) {
        out->collapsed = true;
        NoteCollapse(chunk_index, first_collapsed);
        return;
      }
    }
    auto value = expr->EvalDouble(*assignment);
    if (!value.ok()) {
      out->status = value.status();
      return;
    }
    out->values.push_back(value.value());
  }
}

StatusOr<ExpectationResult> SamplingEngine::Expectation(
    const ExprPtr& expr, const Condition& condition,
    bool compute_probability) const {
  ExpectationResult result;
  if (condition.IsKnownFalse()) {
    result.expectation = kNan;
    result.probability = 0.0;
    result.exact = true;
    return result;
  }

  VarSet target_vars = expr->Variables();
  bool inconsistent = false;
  PIP_ASSIGN_OR_RETURN(std::vector<GroupPlan> plans,
                       PlanGroups(condition, target_vars, &inconsistent));
  if (inconsistent) {
    result.expectation = kNan;
    result.probability = 0.0;
    result.exact = true;
    return result;
  }

  size_t total_attempts = 0;
  bool sampled = false;

  // ---- Expectation over the target-touching groups. ----
  bool integrated = false;
  if (target_vars.empty()) {
    PIP_ASSIGN_OR_RETURN(result.expectation, expr->EvalDouble(Assignment()));
    integrated = true;
  } else {
    // Exact path: a single-variable target group with interval constraints
    // integrates in closed numeric form, sidestepping sampling entirely.
    GroupPlan* target_plan = nullptr;
    size_t target_plan_count = 0;
    for (auto& plan : plans) {
      if (plan.touches_target) {
        target_plan = &plan;
        ++target_plan_count;
      }
    }
    if (target_plan_count == 1) {
      PIP_ASSIGN_OR_RETURN(std::optional<double> exact_value,
                           TryNumericIntegration(expr, *target_plan));
      if (exact_value.has_value()) {
        result.expectation = *exact_value;
        integrated = true;
      }
    }
  }
  if (!integrated) {
    // Monte Carlo over the sample-index space, sharded into contiguous
    // chunks by RunChunks with a pilot on `plans`. The chunk
    // schedule, the merge order and the adaptive stopping barriers
    // depend only on chunk_samples — never on num_threads — so serial
    // and parallel runs accept the same index set and fold the same
    // merge tree: results are bit-identical.
    const double z = M_SQRT2 * ErfInv(1.0 - options_.epsilon);
    const bool fixed = options_.fixed_samples > 0;
    const size_t schedule_len =
        fixed ? options_.fixed_samples : options_.max_samples;

    RunningStats merged;
    bool collapsed = false;
    // Lowest chunk index whose budget genuinely collapsed; later chunks
    // abort early (discarded by the in-order fold), bounding the work a
    // collapsing call can burn without touching determinism.
    std::atomic<uint64_t> first_collapsed{UINT64_MAX};

    auto stop_now = [&]() {
      int64_t count = merged.count();
      if (fixed) return count >= static_cast<int64_t>(options_.fixed_samples);
      if (count >= static_cast<int64_t>(options_.max_samples)) return true;
      if (count < static_cast<int64_t>(options_.min_samples)) return false;
      // Relative precision, except that a mean near 0 is measured
      // against the target's spread: delta * |mean| alone would never be
      // met there, and every such call would draw max_samples.
      double scale = std::max(std::fabs(merged.mean()), merged.stddev());
      double half_width = z * merged.standard_error();
      return half_width <= options_.delta * std::max(scale, 1e-9);
    };

    // The fold runs in chunk order for pilot, chain and wave chunks
    // alike. The ledger is what makes max_total_attempts a real
    // per-call bound: shard floors let individual chunks over-spend
    // their proportional share, but the fold trips the collapse as soon
    // as the folded shards exceed the configured budget — at a
    // deterministic chunk index, independent of thread count.
    const std::optional<CompiledExpr> target = CompileTarget(plans, expr);
    PIP_RETURN_IF_ERROR(RunChunks<ChunkOutcome>(
        "expectation", schedule_len, /*wave_limited=*/true,
        [&](const Chunk& chunk, std::vector<GroupPlan>* ps,
            ChunkOutcome* out) {
          *out = SampleChunk(ps, expr, target ? &*target : nullptr,
                             chunk.begin, chunk.end, chunk.budget,
                             chunk.index, &first_collapsed);
          for (double v : out->values) out->stats.Add(v);
        },
        [&](const Chunk&, const ChunkOutcome& o) {
          total_attempts += o.attempts;
          merged.Merge(o.stats);
          if (o.collapsed || total_attempts > options_.max_total_attempts) {
            collapsed = true;
            return false;
          }
          return !stop_now();
        },
        &plans));

    if (collapsed) {
      // Sampling budget collapsed: the condition region is effectively
      // unreachable. Per the paper, report NAN.
      result.expectation = kNan;
      result.probability = 0.0;
      result.attempts = total_attempts;
      return result;
    }
    result.expectation = merged.mean();
    result.samples_used = static_cast<size_t>(merged.count());
    sampled = merged.count() > 0;
  }

  // ---- Probability of the full condition. ----
  if (compute_probability) {
    double prob = 1.0;
    for (auto& plan : plans) {
      if (plan.exact) {
        prob *= plan.exact_prob;
      } else if (plan.metropolis != nullptr) {
        // "Metropolis doesn't give us a probability" — estimate the group
        // separately by plain (windowed) Monte Carlo.
        PIP_ASSIGN_OR_RETURN(double p,
                             EstimateGroupProbability(&plan, &total_attempts));
        prob *= p;
      } else if (plan.touches_target && plan.attempts > 0) {
        // Free acceptance-rate estimate from the expectation loop
        // (Alg. 4.3 line 29), corrected by the CDF window volume.
        prob *= plan.window_prob * static_cast<double>(plan.accepted) /
                static_cast<double>(plan.attempts);
      } else if (!plan.atoms.empty()) {
        PIP_ASSIGN_OR_RETURN(double p,
                             EstimateGroupProbability(&plan, &total_attempts));
        prob *= p;
        sampled = sampled || !plan.exact;
      }
    }
    result.probability = prob;
  }

  result.attempts = total_attempts;
  result.exact = !sampled;
  return result;
}

StatusOr<ExpectationResult> SamplingEngine::Confidence(
    const Condition& condition) const {
  // conf() is expectation of the constant 1 with getP (the probability is
  // the interesting output).
  PIP_ASSIGN_OR_RETURN(
      ExpectationResult r,
      Expectation(Expr::Constant(1.0), condition, /*compute_probability=*/true));
  if (std::isnan(r.expectation)) r.probability = 0.0;
  return r;
}

StatusOr<double> SamplingEngine::JointConfidence(
    const std::vector<Condition>& disjuncts) const {
  std::vector<const Condition*> live;
  for (const auto& d : disjuncts) {
    if (d.IsKnownFalse()) continue;
    if (d.IsTrue()) return 1.0;
    live.push_back(&d);
  }
  if (live.empty()) return 0.0;
  if (live.size() == 1) {
    PIP_ASSIGN_OR_RETURN(ExpectationResult r, Confidence(*live[0]));
    return r.probability;
  }

  if (live.size() <= 6) {
    // Inclusion-exclusion over conjunction probabilities; each conjunction
    // gets the full per-group treatment (often exact via CDFs). The
    // conjunctions of one disjunct set recombine the same atom shapes, so
    // the plan-shape cache amortizes their planning passes.
    double total = 0.0;
    size_t n = live.size();
    for (size_t mask = 1; mask < (size_t{1} << n); ++mask) {
      Condition conj;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (size_t{1} << i)) conj = conj.And(*live[i]);
      }
      double sign = (__builtin_popcountll(mask) % 2 == 1) ? 1.0 : -1.0;
      if (conj.IsKnownFalse()) continue;
      PIP_ASSIGN_OR_RETURN(ExpectationResult r, Confidence(conj));
      total += sign * r.probability;
    }
    return std::min(1.0, std::max(0.0, total));
  }

  // Many disjuncts: joint Monte Carlo over the union of variables,
  // sharded over the sample-index space like the expectation loop (each
  // world is a pure function of its index; hit counts fold in chunk
  // order; the adaptive stop is checked at chunk barriers only).
  VarSet all_vars;
  for (const auto* d : live) d->CollectVariables(&all_vars);
  std::vector<uint64_t> ids;
  for (const VarRef& v : all_vars) {
    if (ids.empty() || ids.back() != v.var_id) ids.push_back(v.var_id);
  }
  const double z = M_SQRT2 * ErfInv(1.0 - options_.epsilon);
  constexpr uint64_t kAconfMarker = 0xAC0FULL << 32;
  size_t cap = options_.fixed_samples > 0 ? options_.fixed_samples
                                          : options_.max_samples;

  auto run = [&](const Chunk& chunk, HitCount* out) {
    const uint64_t begin = chunk.begin, end = chunk.end;
    // No atoms, windows, or chains here, so every variable qualifies for
    // the batched draw path unconditionally.
    const bool use_batch = options_.use_batch_generation;
    std::vector<std::vector<double>> batch(ids.size());
    std::vector<uint32_t> ncomp(ids.size(), 1);
    if (use_batch) {
      for (size_t j = 0; j < ids.size(); ++j) {
        auto info = pool_->Info(ids[j]);
        if (!info.ok()) {
          out->status = info.status();
          return;
        }
        ncomp[j] = info.value()->num_components;
        Status s = pool_->GenerateBatch(ids[j], options_.sample_offset + begin,
                                        end - begin, kAconfMarker, &batch[j]);
        if (!s.ok()) {
          out->status = s;
          return;
        }
      }
    }
    std::vector<double> joint;
    Assignment a;
    for (uint64_t idx = begin; idx < end; ++idx) {
      uint64_t sample_index = options_.sample_offset + idx;
      for (size_t j = 0; j < ids.size(); ++j) {
        const uint64_t id = ids[j];
        if (use_batch) {
          const double* row = batch[j].data() + (idx - begin) * ncomp[j];
          for (uint32_t comp = 0; comp < ncomp[j]; ++comp) {
            a.Set(VarRef{id, comp}, row[comp]);
          }
          continue;
        }
        Status s = pool_->GenerateJoint(id, sample_index, kAconfMarker,
                                        &joint);
        if (!s.ok()) {
          out->status = s;
          return;
        }
        for (uint32_t comp = 0; comp < joint.size(); ++comp) {
          a.Set(VarRef{id, comp}, joint[comp]);
        }
      }
      bool any = false;
      for (const auto* d : live) {
        auto t = d->Eval(a);
        if (!t.ok()) {
          out->status = t.status();
          return;
        }
        if (t.value()) {
          any = true;
          break;
        }
      }
      ++out->n;
      if (any) ++out->hits;
    }
  };

  HitCount total;
  PIP_RETURN_IF_ERROR(RunChunks<HitCount>(
      "joint confidence", cap, options_.fixed_samples == 0, run,
      [&](const Chunk&, const HitCount& o) {
        total.Add(o);
        return !total.Converged(z, options_);
      }));
  return total.rate();
}

StatusOr<std::vector<double>> SamplingEngine::SampleConditional(
    const ExprPtr& expr, const Condition& condition, size_t n) const {
  std::vector<double> samples;
  if (condition.IsKnownFalse()) return samples;
  VarSet target_vars = expr->Variables();
  bool inconsistent = false;
  PIP_ASSIGN_OR_RETURN(std::vector<GroupPlan> plans,
                       PlanGroups(condition, target_vars, &inconsistent));
  if (inconsistent || n == 0) return samples;

  samples.assign(n, 0.0);

  // Index of the first chunk whose budget genuinely collapsed
  // (deterministic per chunk). Chunks strictly after it abort early —
  // the fold truncates the result before them anyway, so the visible
  // prefix stays bit-identical while total work stays bounded. (Unlike
  // the expectation loop, a plain "someone collapsed" flag would be
  // wrong here: an *earlier* chunk aborting would shorten the prefix.)
  std::atomic<uint64_t> first_truncated{UINT64_MAX};
  const std::optional<CompiledExpr> target = CompileTarget(plans, expr);

  // The expectation loop's piloted schedule. `ledger` folds per-chunk
  // attempt counts in chunk order so max_total_attempts stays a
  // deterministic per-call bound (exceeding it truncates the result
  // exactly like a shard budget collapse).
  size_t total = 0;
  size_t ledger = 0;
  PIP_RETURN_IF_ERROR(RunChunks<ChunkOutcome>(
      "conditional sampling", n, /*wave_limited=*/true,
      [&](const Chunk& chunk, std::vector<GroupPlan>* ps,
          ChunkOutcome* out) {
        // Values land in their slots; a collapse leaves a prefix.
        *out = SampleChunk(ps, expr, target ? &*target : nullptr,
                           chunk.begin, chunk.end, chunk.budget, chunk.index,
                           &first_truncated);
        std::copy(out->values.begin(), out->values.end(),
                  samples.begin() + chunk.begin);
      },
      [&](const Chunk& chunk, const ChunkOutcome& o) {
        total += o.values.size();
        ledger += o.attempts;
        // Short chunk or exhausted call ledger: the visible result is
        // the prefix produced so far.
        return o.values.size() == chunk.end - chunk.begin &&
               ledger <= options_.max_total_attempts;
      },
      &plans));

  samples.resize(total);
  return samples;
}

}  // namespace pip
