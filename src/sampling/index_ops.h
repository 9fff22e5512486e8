/// \file index_ops.h
/// \brief The expectation index's integration layer: indexed drop-in
/// wrappers around the SamplingEngine's probability-removing calls.
///
/// This is the seam between the planner cache and the Monte Carlo
/// engine: query operators (Analyze, aconf, expected aggregates) route
/// per-row engine calls through these wrappers. On a hit the cached
/// result is returned without sampling — bit-identical to recomputation
/// because the draw scheme is a pure function of (seed, var, sample,
/// attempt) and the exact result key (shape_key.h) pins everything that
/// feeds it. On a miss the normal engine path runs and the result
/// backfills the index. Rows without catalogue provenance (joins,
/// unions, inline values) and fully deterministic calls bypass the index
/// entirely, as does any engine without an attached index.

#ifndef PIP_SAMPLING_INDEX_OPS_H_
#define PIP_SAMPLING_INDEX_OPS_H_

#include <numeric>
#include <vector>

#include "src/common/row_parallel.h"
#include "src/ctable/ctable.h"
#include "src/index/expectation_index.h"
#include "src/sampling/expectation.h"

namespace pip {

/// \brief Index anchor of one row: where it lives in the catalogue.
/// (table_id, row_id) names the row; the generation only lets the index
/// refuse snapshots older than the table's last replacement.
struct RowProvenance {
  uint64_t table_id = 0;
  uint64_t generation = 0;
  uint64_t row_id = 0;

  bool valid() const { return table_id != 0 && row_id != 0; }
};

/// The provenance of row `row_index` of `table` (invalid when the table
/// is not a catalogue snapshot).
inline RowProvenance ProvenanceOf(const CTable& table, size_t row_index) {
  return RowProvenance{table.table_id(), table.generation(),
                       table.row(row_index).row_id};
}

/// engine.Expectation through the index: hit → cached replay, miss →
/// compute and backfill.
StatusOr<ExpectationResult> IndexedExpectation(const SamplingEngine& engine,
                                               const RowProvenance& prov,
                                               const ExprPtr& expr,
                                               const Condition& condition,
                                               bool compute_probability);

/// engine.Confidence through the index.
StatusOr<ExpectationResult> IndexedConfidence(const SamplingEngine& engine,
                                              const RowProvenance& prov,
                                              const Condition& condition);

/// engine.JointConfidence through the index. The ordered disjunct list
/// is part of the key; `prov` should be the group's exemplar row (the
/// anchor only controls invalidation, the key controls correctness).
StatusOr<double> IndexedJointConfidence(const SamplingEngine& engine,
                                        const RowProvenance& prov,
                                        const std::vector<Condition>& disjuncts);

/// State of an IndexedRows probe pass: the hits served so far to the
/// current row by lookups that were not yet counted.
struct IndexProbe {
  uint64_t hits = 0;
};

/// True when IndexedRows runs its probe pass for `engine`.
inline bool IndexProbeApplies(const SamplingEngine& engine) {
  return engine.result_index() != nullptr && engine.options().index_enabled;
}

/// Row-batch driver of the per-row indexed operators (Analyze, aconf,
/// the expected_* aggregates). `body(r, row_engine)` computes row r with
/// the Indexed* wrappers on `row_engine` and writes its outputs to
/// per-row slots; a row can run twice, so the body must not rely on what
/// an earlier run of the row left in its slot.
///
/// Pass 1 runs every row on the calling thread with an engine that only
/// probes the index: a row whose calls all hit is finished there, for a
/// few key builds and lookups. That is cheaper than sending it to
/// another thread, whose dispatch, shared locks and cache misses made a
/// warm sweep slower at 4 threads than at 1. A row stops at its first
/// miss. Pass 2 runs the unfinished rows, in row order, through
/// ParallelRows with the full engine wired to each row's cancel context,
/// so errors surface as in a serial loop. Pass 1's lookups count as hits
/// only for rows it finishes, and pass 2 counts its own, so every call
/// is counted once. Without an enabled index only pass 2 runs.
template <typename Body>
Status IndexedRows(const SamplingEngine& engine, size_t num_rows,
                   const Body& body) {
  std::vector<size_t> pending;
  if (IndexProbeApplies(engine)) {
    IndexProbe probe;
    const SamplingEngine probing = engine.WithIndexProbe(&probe);
    uint64_t served = 0;
    for (size_t r = 0; r < num_rows; ++r) {
      probe.hits = 0;
      if (body(r, probing).ok()) {
        served += probe.hits;
      } else {
        pending.push_back(r);
      }
    }
    engine.result_index()->CountHits(served);
  } else {
    pending.resize(num_rows);
    std::iota(pending.begin(), pending.end(), size_t{0});
  }
  return ParallelRows(
      pending.size(), engine.options().num_threads,
      [&](size_t i, const RowBatchContext& ctx) -> Status {
        return body(pending[i],
                    engine.WithCancelCheck([ctx] { return ctx.Cancelled(); }));
      });
}

/// Eagerly materializes index entries for every row of a catalogue
/// snapshot: the row confidence, each probabilistic cell's expectation
/// (the first one with probability, matching Analyze's call pattern),
/// and a moment/quantile/CDF summary of the first probabilistic cell.
/// Rows fan out across the engine's thread budget. No-op for tables
/// without provenance or engines without an index. Per-row sampling
/// errors abort the build and surface as its Status; already-present
/// entries are skipped via the normal hit path.
Status EagerBuildIndex(const CTable& table, const SamplingEngine& engine);

}  // namespace pip

#endif  // PIP_SAMPLING_INDEX_OPS_H_
