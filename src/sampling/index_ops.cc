#include "src/sampling/index_ops.h"

#include <algorithm>
#include <cmath>

#include "src/common/running_stats.h"
#include "src/sampling/shape_key.h"

namespace pip {

namespace {

/// Sample sweep behind an eager entry's summary. Bounded and fixed: the
/// offline cost per row is ~kSummarySamples draws regardless of the
/// session's precision knobs.
constexpr size_t kSummarySamples = 256;

/// Quantile grid of the summary tables.
constexpr double kQuantileProbs[] = {0.01, 0.05, 0.1,  0.25, 0.5,
                                     0.75, 0.9,  0.95, 0.99};

/// Points of the empirical CDF grid.
constexpr size_t kCdfGridPoints = 33;

IndexedValue ToIndexedValue(const ExpectationResult& result) {
  IndexedValue value;
  value.expectation = result.expectation;
  value.probability = result.probability;
  value.samples_used = result.samples_used;
  value.attempts = result.attempts;
  value.exact = result.exact;
  return value;
}

ExpectationResult ToExpectationResult(const IndexedValue& value) {
  ExpectationResult result;
  result.expectation = value.expectation;
  result.probability = value.probability;
  result.samples_used = static_cast<size_t>(value.samples_used);
  result.attempts = static_cast<size_t>(value.attempts);
  result.exact = value.exact;
  return result;
}

/// True when the index applies to this call at all.
bool IndexApplies(const SamplingEngine& engine, const RowProvenance& prov) {
  return IndexProbeApplies(engine) && prov.valid();
}

/// The probe key of one call on `prov`'s row, built and hashed here,
/// before the index's lock is taken.
ExpectationIndex::Key ProbeKey(const SamplingEngine& engine,
                               const RowProvenance& prov, char op_tag,
                               const ExprPtr& expr,
                               const std::vector<const Condition*>& conditions) {
  return ExpectationIndex::Key(
      prov.table_id, prov.row_id,
      ExactResultKey(op_tag, expr, conditions, engine.pool(),
                     engine.options_fingerprint()));
}

/// What an indexed call returns in a probe pass instead of sampling: the
/// row is left to IndexedRows' second pass.
Status ProbeMiss() { return Status::Cancelled("index miss"); }

/// An engine call the index cannot serve; a probe pass leaves it to the
/// second pass.
template <typename Compute>
auto Unindexed(const SamplingEngine& engine, const Compute& compute)
    -> decltype(compute()) {
  if (engine.index_probe() != nullptr) return ProbeMiss();
  return compute();
}

/// Hit → cached replay; miss → `compute()` and backfill. In a probe pass
/// a hit is left for IndexedRows to count, and a miss stops the row.
template <typename Compute>
StatusOr<ExpectationResult> ThroughIndex(const SamplingEngine& engine,
                                         const RowProvenance& prov,
                                         ExpectationIndex::Key key,
                                         const Compute& compute) {
  ExpectationIndex* index = engine.result_index();
  IndexProbe* probe = engine.index_probe();
  if (auto hit = index->Lookup(key, prov.generation,
                               /*count=*/probe == nullptr)) {
    if (probe != nullptr) ++probe->hits;
    return ToExpectationResult(*hit);
  }
  if (probe != nullptr) return ProbeMiss();
  PIP_ASSIGN_OR_RETURN(ExpectationResult result, compute());
  index->Insert(std::move(key), prov.generation, ToIndexedValue(result));
  return result;
}

/// Empirical summary of `samples` (sorted in place).
std::shared_ptr<const IndexSummary> BuildSummary(std::vector<double> samples) {
  auto summary = std::make_shared<IndexSummary>();
  RunningStats stats;
  for (double s : samples) stats.Add(s);
  summary->moment_count = stats.count();
  summary->mean = stats.mean();
  summary->m2 = stats.m2();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double p : kQuantileProbs) {
    summary->quantile_probs.push_back(p);
    size_t rank = static_cast<size_t>(p * static_cast<double>(n - 1));
    summary->quantiles.push_back(samples[rank]);
  }
  // Equi-spaced value grid over the sampled range; ps are exact ranks of
  // the sorted sweep, so the grid is a genuine empirical CDF.
  double lo = samples.front(), hi = samples.back();
  if (hi <= lo) hi = lo + 1.0;
  summary->cdf_xs.reserve(kCdfGridPoints);
  summary->cdf_ps.reserve(kCdfGridPoints);
  for (size_t i = 0; i < kCdfGridPoints; ++i) {
    double x = lo + (hi - lo) * static_cast<double>(i) /
                        static_cast<double>(kCdfGridPoints - 1);
    size_t below = std::upper_bound(samples.begin(), samples.end(), x) -
                   samples.begin();
    summary->cdf_xs.push_back(x);
    summary->cdf_ps.push_back(static_cast<double>(below) /
                              static_cast<double>(n));
  }
  return summary;
}

}  // namespace

StatusOr<ExpectationResult> IndexedExpectation(const SamplingEngine& engine,
                                               const RowProvenance& prov,
                                               const ExprPtr& expr,
                                               const Condition& condition,
                                               bool compute_probability) {
  auto compute = [&] {
    return engine.Expectation(expr, condition, compute_probability);
  };
  // Deterministic calls short-circuit inside the engine faster than a
  // key could be built; don't pollute the index with them.
  if (expr->IsDeterministic() && condition.IsDeterministic()) return compute();
  if (!IndexApplies(engine, prov)) return Unindexed(engine, compute);
  return ThroughIndex(
      engine, prov,
      ProbeKey(engine, prov, compute_probability ? 'P' : 'E', expr,
               {&condition}),
      compute);
}

StatusOr<ExpectationResult> IndexedConfidence(const SamplingEngine& engine,
                                              const RowProvenance& prov,
                                              const Condition& condition) {
  auto compute = [&] { return engine.Confidence(condition); };
  if (condition.IsDeterministic()) return compute();
  if (!IndexApplies(engine, prov)) return Unindexed(engine, compute);
  return ThroughIndex(engine, prov,
                      ProbeKey(engine, prov, 'C', nullptr, {&condition}),
                      compute);
}

StatusOr<double> IndexedJointConfidence(
    const SamplingEngine& engine, const RowProvenance& prov,
    const std::vector<Condition>& disjuncts) {
  if (!IndexApplies(engine, prov)) {
    return Unindexed(engine, [&] { return engine.JointConfidence(disjuncts); });
  }
  std::vector<const Condition*> conditions;
  conditions.reserve(disjuncts.size());
  for (const Condition& c : disjuncts) conditions.push_back(&c);
  PIP_ASSIGN_OR_RETURN(
      ExpectationResult result,
      ThroughIndex(engine, prov,
                   ProbeKey(engine, prov, 'J', nullptr, conditions),
                   [&]() -> StatusOr<ExpectationResult> {
                     PIP_ASSIGN_OR_RETURN(double probability,
                                          engine.JointConfidence(disjuncts));
                     ExpectationResult joint;
                     joint.expectation = probability;
                     joint.probability = probability;
                     return joint;
                   }));
  return result.probability;
}

Status EagerBuildIndex(const CTable& table, const SamplingEngine& engine) {
  if (engine.result_index() == nullptr || !engine.options().index_enabled ||
      table.table_id() == 0) {
    return Status::OK();
  }
  ExpectationIndex* index = engine.result_index();
  const auto& rows = table.rows();
  return ParallelRows(
      rows.size(), engine.options().num_threads,
      [&](size_t r, const RowBatchContext& ctx) -> Status {
        const CTableRow& row = rows[r];
        RowProvenance prov = ProvenanceOf(table, r);
        if (!prov.valid()) return Status::OK();
        // Cancel-wired engine: index keys exclude cancel_check (like
        // num_threads), so entries built here stay byte-identical to
        // lazily backfilled ones.
        const SamplingEngine row_engine =
            engine.WithCancelCheck([ctx] { return ctx.Cancelled(); });
        bool row_probabilistic = !row.condition.IsDeterministic();
        // The row confidence serves conf() targets and expected_count.
        if (row_probabilistic) {
          PIP_RETURN_IF_ERROR(
              IndexedConfidence(row_engine, prov, row.condition).status());
        }
        // Cell expectations, mirroring Analyze's call pattern: the first
        // probabilistic cell also carries P[condition].
        bool first = true;
        for (const ExprPtr& cell : row.cells) {
          if (cell->IsDeterministic() && !row_probabilistic) continue;
          if (cell->IsDeterministic() && !first) continue;
          PIP_RETURN_IF_ERROR(
              IndexedExpectation(row_engine, prov, cell, row.condition, first)
                  .status());
          if (first && !cell->IsDeterministic()) {
            // Attach the moment/quantile/CDF summary to the first
            // probabilistic cell's 'P' entry: a bounded deterministic
            // sample sweep of the conditional distribution, drawn only
            // for entries that lack one (rows built before an append
            // keep theirs).
            ExpectationIndex::Key key =
                ProbeKey(engine, prov, 'P', cell, {&row.condition});
            if (auto existing = index->Lookup(key, prov.generation);
                existing && existing->summary == nullptr) {
              PIP_ASSIGN_OR_RETURN(
                  std::vector<double> samples,
                  row_engine.SampleConditional(cell, row.condition,
                                               kSummarySamples));
              IndexedValue updated = *existing;
              updated.summary = BuildSummary(std::move(samples));
              index->Insert(std::move(key), prov.generation,
                            std::move(updated));
            }
          }
          first = false;
        }
        return Status::OK();
      });
}

}  // namespace pip
