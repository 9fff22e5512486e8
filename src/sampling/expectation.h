/// \file expectation.h
/// \brief The expectation operator (paper Alg. 4.3) and confidence
/// computation.
///
/// This is where PIP cashes in on deferring integration: given the full
/// expression E and its row context C (a conjunction of constraint atoms),
/// the operator
///   1. checks C's consistency and harvests per-variable bounds (Alg. 3.2),
///   2. partitions {vars(E)} U {vars(C)} into minimal independent subsets,
///   3. picks per-group strategies: exact CDF integration when a group
///      reduces to interval constraints on one variable with a CDF;
///      inverse-CDF-constrained sampling when bounds and inverse CDFs are
///      available; plain rejection otherwise; and a Metropolis fallback
///      when the observed rejection rate crosses a threshold,
///   4. runs an (epsilon, delta)-adaptive sampling loop over only the
///      groups the expression touches, and
///   5. assembles P[C] from per-group acceptance rates, CDF windows and
///      exact factors.

#ifndef PIP_SAMPLING_EXPECTATION_H_
#define PIP_SAMPLING_EXPECTATION_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/constraints/consistency.h"
#include "src/constraints/independence.h"
#include "src/dist/variable_pool.h"
#include "src/expr/compiled_expr.h"
#include "src/expr/condition.h"
#include "src/expr/expr.h"
#include "src/index/expectation_index.h"
#include "src/sampling/plan_cache.h"
#include "src/sampling/shape_key.h"

namespace pip {

struct IndexProbe;  // index_ops.h

/// \brief Strategy knobs of the sampling operators.
///
/// The use_* flags exist for the ablation benchmarks; production callers
/// keep them on.
struct SamplingOptions {
  /// Confidence level parameter: results are within the delta tolerance
  /// with probability ~(1 - epsilon).
  double epsilon = 0.05;
  /// Relative precision target for adaptive stopping.
  double delta = 0.02;
  /// If nonzero, take exactly this many samples (no adaptive stopping) —
  /// the mode used by the paper's experiments ("1000 samples apiece").
  size_t fixed_samples = 0;
  size_t min_samples = 32;
  size_t max_samples = 200000;
  /// Rejection-attempt budget of one expectation call; exceeded means
  /// the condition is effectively unsatisfiable for the sampler. Under
  /// parallel sharding this is enforced deterministically at two
  /// levels: each shard gets a proportional share (with a floor — see
  /// ChunkAttemptBudget) bounding any single shard, and a ledger folded
  /// in chunk order trips the collapse once the call's accepted shards
  /// exceed the budget — so the visible (NAN, 0) is bit-identical
  /// across thread counts and total work stays within this budget plus
  /// one in-flight wave of shard floors.
  size_t max_total_attempts = 20000000;

  /// Offsets the deterministic sample index space; distinct offsets give
  /// statistically fresh (but still replayable) runs, e.g. across trials.
  uint64_t sample_offset = 0;

  /// Worker threads for the sampling loops. 0 means "hardware
  /// concurrency" (the default); 1 forces inline serial execution. The
  /// sample-index space is sharded into contiguous chunks whose schedule
  /// depends only on `chunk_samples`, and per-chunk results fold in chunk
  /// order, so results are bit-identical across num_threads values (see
  /// README "Threading model").
  size_t num_threads = 0;
  /// Samples per shard chunk. Part of the determinism contract: the
  /// chunk schedule (and hence the merge tree, the adaptive stopping
  /// barriers, and the per-chunk Metropolis scope) is a pure function of
  /// this value — never of num_threads.
  size_t chunk_samples = 64;

  // -- Optimization toggles (§IV-A), default on; benches ablate them. ----
  bool use_exact_cdf = true;       ///< Exact single-variable CDF integration.
  bool use_cdf_sampling = true;    ///< Inverse-CDF constrained sampling.
  bool use_independence = true;    ///< Minimal independent subset sampling.
  bool use_metropolis = true;      ///< MCMC fallback for tiny acceptance.
  /// Batched draws: sampling loops request a chunk's sample indices in
  /// one GenerateBatch call per variable instead of one virtual Generate
  /// per sample, and rejection sampling runs in gather rounds tested by
  /// compiled atoms. Bit-identical to the scalar path by the batch-draw
  /// contract (see README); off reproduces the per-sample loop for the
  /// scalar-vs-batch ablation benches.
  bool use_batch_generation = true;
  /// Exact numeric integration of single-variable expectations ("the
  /// expectation operator can ... potentially even sidestep [sampling]
  /// entirely", §III-A): when the target expression depends on one
  /// univariate variable with PDF+CDF and its constraints reduce to an
  /// interval, E[g(X) | a<=X<=b] is computed by adaptive quadrature (or an
  /// exact lattice sum for discrete variables) instead of sampling.
  bool use_numeric_integration = true;
  /// Absolute/relative tolerance of the quadrature.
  double integration_tolerance = 1e-10;

  /// Rejection-rate threshold that triggers the Metropolis switch
  /// ("Metropolis Threshold" in Alg. 4.3); evaluated after
  /// `metropolis_check_after` attempts of a group.
  double metropolis_threshold = 0.995;
  size_t metropolis_check_after = 2000;

  // -- Materialized expectation index (src/index/) ----------------------
  /// Serve/backfill the result index on the hot query paths (Analyze,
  /// aconf, expected aggregates). Hits are bit-identical replays; off
  /// forces every call down the Monte Carlo path.
  bool index_enabled = true;
  /// Build index entries (with moment/quantile/CDF summaries) eagerly on
  /// catalogue writes instead of lazily on first query.
  bool index_eager_build = false;
  /// Byte budget of the shared index's LRU (0 = unlimited). Applied to
  /// the database-wide index whenever an engine is created, so the
  /// last-configured session wins; see README "Expectation index".
  size_t index_memory_budget = ExpectationIndex::kDefaultMemoryBudget;

  /// Per-statement deadline in milliseconds; 0 disables. The session
  /// layer composes it into cancel_check as a steady-clock deadline at
  /// statement start, so enforcement has chunk-barrier granularity: a
  /// statement that exceeds the deadline stops at its next chunk fold
  /// and surfaces Status::Timeout (ERR TIMEOUT over the wire). Like
  /// cancel_check, excluded from the options fingerprint — the deadline
  /// decides whether a statement finishes, never what it computes.
  uint64_t statement_timeout_ms = 0;
  /// How long a statement may wait in the server's admission gate before
  /// being shed with Status::Overloaded (ERR OVERLOADED, retryable);
  /// 0 disables shedding — the statement queues until admitted (the
  /// pre-robustness behavior). Server-side only; excluded from the
  /// fingerprint like the other non-result knobs.
  uint64_t admission_timeout_ms = 0;

  /// Cooperative cancellation hook. When set, the Monte Carlo loops poll
  /// it before each chunk body (on pool workers, so it must be
  /// thread-safe) and at each chunk-fold barrier (SamplingEngine::
  /// RunChunks), and abandon the call with Status::Cancelled once it
  /// returns true. Used by ParallelRows
  /// batches (via SamplingEngine::WithCancelCheck) so a long row body
  /// dispatched just before an earlier row failed stops early instead of
  /// sampling to completion; the cancelled row's output is discarded by
  /// the row-order error protocol, so cancellation never changes what a
  /// caller observes. Like num_threads, excluded from the options
  /// fingerprint (shape_key.cc): it cannot affect kept bits.
  std::function<bool()> cancel_check;
};

/// \brief Result of an expectation (or confidence) computation.
struct ExpectationResult {
  /// E[expression | condition]; NaN when the condition is unsatisfiable
  /// (the paper's convention: "a value of NAN will result").
  double expectation = 0.0;
  /// P[condition] when requested (1.0 otherwise).
  double probability = 1.0;
  /// Monte Carlo samples actually accepted (0 for fully exact results).
  size_t samples_used = 0;
  /// Total generation attempts including rejected ones (work measure).
  size_t attempts = 0;
  /// True when no sampling was necessary (closed-form CDF integration).
  bool exact = false;
};

/// \brief Per-row sampling operators over a variable pool.
///
/// Stateless apart from configuration; every method is deterministic given
/// the pool's seed and options.sample_offset.
class SamplingEngine {
 public:
  explicit SamplingEngine(const VariablePool* pool,
                          SamplingOptions options = {})
      : SamplingEngine(pool, std::move(options), nullptr) {}

  /// Engine sharing an external plan cache (the Database hands every
  /// session's engine its process-lifetime cache, so concurrent server
  /// sessions amortize planning across statements and connections).
  SamplingEngine(const VariablePool* pool, SamplingOptions options,
                 std::shared_ptr<PlanCache> plan_cache)
      : pool_(pool),
        options_(std::move(options)),
        options_fingerprint_(std::make_shared<const std::string>(
            SamplingOptionsFingerprint(options_))),
        plan_cache_(plan_cache != nullptr ? std::move(plan_cache)
                                          : std::make_shared<PlanCache>()) {}

  const SamplingOptions& options() const { return options_; }
  const VariablePool& pool() const { return *pool_; }

  /// SamplingOptionsFingerprint(options()), built once per options and
  /// shared by copies that differ only in cancel_check: the expectation
  /// index keys every per-row call on it.
  const std::string& options_fingerprint() const {
    return *options_fingerprint_;
  }

  /// Copy of this engine with different options, sharing the pool, the
  /// plan cache, and the result index. This is how derived engines
  /// (per-row aggregate engines with relaxed tolerances) keep amortizing
  /// the process-wide caches instead of silently starting cold.
  SamplingEngine WithOptions(SamplingOptions options) const {
    SamplingEngine copy(pool_, std::move(options), plan_cache_);
    copy.result_index_ = result_index_;
    return copy;
  }

  /// Copy of this engine whose sampling loops poll `cancel` at chunk-fold
  /// barriers and return Status::Cancelled once it reports true (see
  /// SamplingOptions::cancel_check). Row-parallel batch drivers hand
  /// each row body one of these wired to its RowBatchContext so long
  /// rows bail early after an earlier row's failure. Checks compose: a
  /// nested batch (grouped aggregate -> per-row loop) ORs its hook with
  /// the inherited one, so an outer cancellation reaches the innermost
  /// sampling loops too. The copy keeps the options fingerprint, which
  /// excludes cancel_check.
  SamplingEngine WithCancelCheck(std::function<bool()> cancel) const {
    SamplingEngine copy = *this;
    std::function<bool()>& check = copy.options_.cancel_check;
    if (check) {
      check = [outer = std::move(check), inner = std::move(cancel)] {
        return outer() || inner();
      };
    } else {
      check = std::move(cancel);
    }
    return copy;
  }

  /// The shared materialized-result index, or nullptr when none is
  /// attached (the Database attaches its process-lifetime instance to
  /// every engine it hands out). The index layer (index_ops.h) consults
  /// it; the core sampling paths below never do.
  ExpectationIndex* result_index() const { return result_index_.get(); }
  void set_result_index(std::shared_ptr<ExpectationIndex> index) {
    result_index_ = std::move(index);
  }

  /// Copy of this engine for the probe pass of IndexedRows (index_ops.h):
  /// its indexed calls answer hits and, on a miss, stop instead of
  /// sampling. The core sampling paths never look at the probe.
  SamplingEngine WithIndexProbe(IndexProbe* probe) const {
    SamplingEngine copy = *this;
    copy.index_probe_ = probe;
    return copy;
  }
  IndexProbe* index_probe() const { return index_probe_; }

  /// Hit/miss counters of the shared plan-shape cache (copies of one
  /// engine share the cache, so Analyze-style row batches amortize
  /// planning across rows).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_->stats(); }

  /// expectation(): E[expr | condition], optionally with P[condition]
  /// (Alg. 4.3's getP). Deterministic expressions short-circuit.
  StatusOr<ExpectationResult> Expectation(const ExprPtr& expr,
                                          const Condition& condition,
                                          bool compute_probability) const;

  /// conf(): P[condition] for a conjunctive condition.
  StatusOr<ExpectationResult> Confidence(const Condition& condition) const;

  /// aconf(): P[c1 OR c2 OR ...] for the bag-encoded disjuncts of one
  /// distinct row group. Uses inclusion-exclusion over exact/estimated
  /// conjunction probabilities for few disjuncts, joint Monte Carlo
  /// otherwise.
  StatusOr<double> JointConfidence(
      const std::vector<Condition>& disjuncts) const;

  /// Draws `n` samples of expr conditioned on condition (the *_hist
  /// operators build histograms from these). Unsatisfiable condition
  /// yields an empty vector.
  StatusOr<std::vector<double>> SampleConditional(const ExprPtr& expr,
                                                  const Condition& condition,
                                                  size_t n) const;

  /// One chunk of a Monte Carlo schedule: schedule indices [begin, end)
  /// (sample_offset not yet added) and the chunk's rejection-attempt
  /// budget.
  struct Chunk {
    size_t index = 0;
    uint64_t begin = 0, end = 0;
    size_t budget = 0;
  };

  /// The Monte Carlo chunk driver behind every sampling loop (the four
  /// above and AggregateEvaluator::SampleWorlds), and the one place that
  /// enforces the determinism contract (README "Threading model"):
  ///   - the index space [0, cap) splits into the chunk_samples schedule;
  ///   - chunks run as `run(chunk, &outcome)` on the shared pool (each
  ///     Outcome default-constructed, with a Status `status`), in
  ///     waves of min(num_threads, parallelism budget) chunks when
  ///     `wave_limited` (adaptive stopping and attempt ledgers keep their
  ///     barriers frequent), else all at once;
  ///   - outcomes fold IN CHUNK ORDER via `fold(chunk, outcome)`, which
  ///     accumulates and returns false to stop; chunks computed past the
  ///     stop are discarded, so which worker ran a chunk never shows;
  ///   - cancel_check is polled before each chunk body and at each fold
  ///     barrier: a cancelled call returns Status::Cancelled(what), and a
  ///     chunk's failed `status` is returned before it folds.
  /// Given `plans` (Expectation, SampleConditional), chunk 0 is the pilot:
  /// it runs alone as `run(chunk, plans, &outcome)` with the Metropolis
  /// switch armed and the full max_total_attempts budget, and later
  /// chunks get 4x its attempts per produced value (floored at the
  /// proportional share; Outcome is a ChunkOutcome). If the
  /// pilot switched a target group to a chain, the schedule finishes in
  /// waves of one on `plans` (chains are sequential); otherwise each
  /// chunk runs on CloneForChunk copies, whose counters the driver folds
  /// back into `plans` in chunk order.
  template <typename Outcome, typename Run, typename Fold,
            typename Plans = void>
  Status RunChunks(const char* what, uint64_t cap, bool wave_limited,
                   const Run& run, const Fold& fold,
                   Plans* plans = nullptr) const;

 private:
  struct GroupPlan;
  struct ChunkOutcome;
  struct PlanRounds;

  /// Builds per-group strategy plans. Sets *inconsistent when the
  /// condition is unsatisfiable. Structure-only planning decisions come
  /// from the shape cache when possible.
  StatusOr<std::vector<GroupPlan>> PlanGroups(const Condition& condition,
                                              const VarSet& target_vars,
                                              bool* inconsistent) const;

  /// Samples one accepted joint draw for a group, one attempt at a time.
  /// Returns false when the attempt budget collapsed without acceptance
  /// (caller decides whether that means "unsatisfiable" or "switch to
  /// Metropolis"). `attempt_budget` bounds *total_attempts for this
  /// shard. The chain path and the scalar reference of the batched
  /// rounds in SampleChunk, whose counter replay mirrors it exactly.
  StatusOr<bool> SampleGroupOnce(GroupPlan* plan, uint64_t sample_index,
                                 Assignment* assignment,
                                 size_t* total_attempts,
                                 size_t attempt_budget) const;

  /// One scalar rejection attempt: draws every variable of `plan` at
  /// (sample_index, attempt) into *assignment and tests the group's atoms
  /// in order. `joint` is scratch for multivariate draws.
  StatusOr<bool> TryAttempt(const GroupPlan& plan, uint64_t sample_index,
                            uint64_t attempt, Assignment* assignment,
                            std::vector<double>* joint) const;

  /// Alg. 4.3's Metropolis switch test, made after each rejected
  /// attempt: the group's lifetime rejection rate crossed the threshold
  /// (pilot plans only — shard clones never switch) and a chain can run
  /// over its variables.
  bool MetropolisDue(const GroupPlan& plan) const;

  /// Seeds the group's chain and takes its first sample into
  /// *assignment. False when the chain finds no start point.
  StatusOr<bool> StartMetropolis(GroupPlan* plan,
                                 Assignment* assignment) const;

  /// The chunk sampler behind Expectation and SampleConditional: draws
  /// sample indices [begin, end) of the schedule against `plans` (only
  /// target-touching groups sample) as chunk `chunk_index`, appending
  /// each sample's target value to the outcome in index order until the
  /// first collapse or error. When no group has a Metropolis chain and
  /// `target` and every atom compiled, groups draw in gather rounds and
  /// test `target` and the atoms column-wise; the counter replay keeps
  /// every result bit-identical to the scalar loop (use_batch_generation
  /// off), which serves every other chunk. On
  /// a genuine budget collapse the chunk lowers *first_collapsed to its
  /// own index; chunks strictly after the recorded index abort early
  /// (their outcomes are discarded by the in-order fold, so the abort
  /// never shows in results — see SampleConditional for why a plain
  /// boolean flag would not be order-safe).
  ChunkOutcome SampleChunk(std::vector<GroupPlan>* plans, const ExprPtr& expr,
                           const CompiledExpr* target, uint64_t begin,
                           uint64_t end, size_t attempt_budget,
                           size_t chunk_index,
                           std::atomic<uint64_t>* first_collapsed) const;

  /// SampleChunk's scalar loop, entered at schedule index `i` and plan
  /// position `first_plan` with the earlier plans' draws of sample i
  /// already in *assignment (a mid-sample handover from the rounds when
  /// a group switches to Metropolis).
  void ScalarSamples(std::vector<GroupPlan>* plans, const ExprPtr& expr,
                     uint64_t i, size_t first_plan, uint64_t end,
                     size_t attempt_budget, size_t chunk_index,
                     std::atomic<uint64_t>* first_collapsed,
                     Assignment* assignment, ChunkOutcome* out) const;

  /// The target program over the target-touching plans' variables in
  /// plan order (SampleChunk's column layout); nullopt when `expr` does
  /// not compile.
  std::optional<CompiledExpr> CompileTarget(
      const std::vector<GroupPlan>& plans, const ExprPtr& expr) const;

  /// Attempt budget for one shard of `chunk_len` samples out of a
  /// schedule of `schedule_len`: a proportional share with a floor, the
  /// fold-side ledger bounding their sum. (A piloted schedule's chunk 0
  /// gets the full max_total_attempts instead, so hard-but-satisfiable
  /// conditions keep the serial engine's spurious-collapse threshold.)
  size_t ChunkAttemptBudget(size_t chunk_len, size_t schedule_len) const;

  /// Exact probability of a single-variable interval-constrained group.
  StatusOr<double> ExactGroupProbability(const GroupPlan& plan) const;

  /// MC estimate of P[group atoms] for groups not touching the target.
  StatusOr<double> EstimateGroupProbability(GroupPlan* plan,
                                            size_t* total_attempts) const;

  /// Attempts exact numeric integration of E[expr | plan's interval].
  /// Returns nullopt when the shape does not qualify.
  StatusOr<std::optional<double>> TryNumericIntegration(
      const ExprPtr& expr, const GroupPlan& plan) const;

  const VariablePool* pool_;
  SamplingOptions options_;
  std::shared_ptr<const std::string> options_fingerprint_;
  /// Shared (and internally synchronized) across engine copies.
  std::shared_ptr<PlanCache> plan_cache_;
  /// Shared materialized-result index; null when not attached.
  std::shared_ptr<ExpectationIndex> result_index_;
  IndexProbe* index_probe_ = nullptr;
};

template <typename Outcome, typename Run, typename Fold, typename Plans>
Status SamplingEngine::RunChunks(const char* what, uint64_t cap,
                                 bool wave_limited, const Run& run,
                                 const Fold& fold, Plans* plans) const {
  constexpr bool kPiloted = !std::is_void_v<Plans>;
  const size_t chunk = std::max<size_t>(1, options_.chunk_samples);
  const size_t nchunks = NumChunks(cap, chunk);
  // Clamped to the parallelism budget so a nested (inline) engine call
  // sizes its waves like the serial engine: one chunk per barrier check,
  // no over-computed chunks for the in-order fold to discard. Wave width
  // never affects the folded chunk set, only how much speculative work
  // exists past the stopping point.
  const size_t workers = std::min(
      ThreadPool::ResolveThreads(options_.num_threads),
      ThreadPool::ParallelismBudget());
  auto cancelled = [this] {
    return options_.cancel_check && options_.cancel_check();
  };
  // The pilot, and every chunk after a Metropolis switch, runs alone on
  // the original plans.
  bool serial = kPiloted;
  size_t later_budget = 0;
  auto chunk_at = [&](size_t c) {
    Chunk ch;
    ch.index = c;
    ch.begin = static_cast<uint64_t>(c) * chunk;
    ch.end = std::min<uint64_t>(cap, ch.begin + chunk);
    ch.budget = !kPiloted ? ChunkAttemptBudget(ch.end - ch.begin, cap)
                : c == 0  ? options_.max_total_attempts
                          : later_budget;
    return ch;
  };
  std::vector<Outcome> wave;
  for (size_t c = 0; c < nchunks;) {
    const size_t width = serial         ? 1
                         : wave_limited ? std::min(workers, nchunks - c)
                                        : nchunks - c;
    wave.assign(width, Outcome{});
    auto body = [&](size_t k) {
      if (cancelled()) {
        wave[k].status = Status::Cancelled(what);
        return;
      }
      const Chunk ch = chunk_at(c + k);
      if constexpr (!kPiloted) {
        run(ch, &wave[k]);
      } else if (serial) {
        run(ch, plans, &wave[k]);
      } else {
        Plans clones;
        clones.reserve(plans->size());
        for (const auto& p : *plans) clones.push_back(p.CloneForChunk());
        run(ch, &clones, &wave[k]);
      }
    };
    if (serial) {
      body(0);  // The pilot or a chain chunk: this thread, no pool region.
    } else {
      ThreadPool::For(width, options_.num_threads, body);
    }
    for (size_t k = 0; k < width; ++k) {
      if (cancelled()) return Status::Cancelled(what);
      Outcome& o = wave[k];
      if (!o.status.ok()) return o.status;
      if constexpr (kPiloted) {
        for (size_t g = 0; !serial && g < plans->size(); ++g) {
          (*plans)[g].accepted += o.group_accepted[g];
          (*plans)[g].attempts += o.group_attempts[g];
        }
      }
      if (!fold(chunk_at(c + k), o)) return Status::OK();
    }
    if constexpr (kPiloted) {
      if (c == 0) {
        // The pilot is serial, so its cost is deterministic; 4x slack
        // covers variance, and the caller's ledger still bounds the call
        // at max_total_attempts.
        const Outcome& pilot = wave[0];
        later_budget = ChunkAttemptBudget(chunk, cap);
        if (!pilot.values.empty()) {
          later_budget = std::max(
              later_budget,
              std::min(options_.max_total_attempts,
                       4 * (pilot.attempts / pilot.values.size()) * chunk));
        }
        serial = false;
        for (const auto& p : *plans) {
          serial = serial || (p.touches_target && p.metropolis != nullptr);
        }
      }
    }
    c += width;
  }
  return Status::OK();
}

}  // namespace pip

#endif  // PIP_SAMPLING_EXPECTATION_H_
