/// \file expectation_index.h
/// \brief Materialized per-row expectation/confidence summaries.
///
/// The PesTrie idea transplanted to probabilistic query answering: spend
/// bounded offline (or first-touch) work materializing a compressed
/// per-row summary so repeated online queries answer in near-constant
/// time instead of re-running Monte Carlo integration. Entries are keyed
/// by (table id, row id) — the catalogue anchor stamped by the
/// Database's copy-on-write publish path — plus an exact result key
/// built by the sampling layer (operator tag, registry generation, pool
/// seed, options fingerprint, bit-exact expression and condition
/// serialization; see shape_key.h). Because the engine's draw scheme is
/// a pure function of (seed, var, sample, attempt), equal keys imply
/// bit-identical recomputation, so serving a hit is an exact replay, not
/// an approximation.
///
/// The index is a process-wide, internally synchronized LRU bounded by a
/// byte budget. Row ids are positions, and an append only adds rows at
/// the end, so appends leave every entry valid and touch nothing here.
/// Only a replacing publish calls ReplaceTable, which purges exactly that
/// table and advances its generation; lookups and backfills from older
/// snapshots are refused from then on (stale_rejects), so a hit is always
/// an exact replay of the caller's own snapshot.
///
/// Callers build a Key — result string and hash — before calling in, so
/// the lock covers only the map probe, the LRU touch and the counters.
///
/// This layer deliberately knows nothing about the sampling engine: it
/// stores plain-data payloads (IndexedValue / IndexSummary) and opaque
/// key strings, so it sits below sampling in the dependency graph and
/// both the engine and the SQL surface can share one instance.

#ifndef PIP_INDEX_EXPECTATION_INDEX_H_
#define PIP_INDEX_EXPECTATION_INDEX_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace pip {

/// \brief Distribution summary of one row's target cell: running moments
/// plus quantile and CDF tables (built by the eager indexer from a fixed
/// deterministic sample sweep).
struct IndexSummary {
  /// Running moments (count / mean / sum of squared deviations — the
  /// RunningStats representation, mergeable and numerically stable).
  uint64_t moment_count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  /// quantiles[i] is the quantile_probs[i]-quantile of the sampled
  /// conditional distribution.
  std::vector<double> quantile_probs;
  std::vector<double> quantiles;

  /// Empirical CDF grid: P[X <= cdf_xs[i]] = cdf_ps[i].
  std::vector<double> cdf_xs;
  std::vector<double> cdf_ps;

  double variance() const {
    return moment_count > 1
               ? m2 / static_cast<double>(moment_count - 1)
               : 0.0;
  }

  /// Heap bytes of the vectors (for the index's byte accounting).
  size_t ByteSize() const {
    return sizeof(IndexSummary) +
           (quantile_probs.capacity() + quantiles.capacity() +
            cdf_xs.capacity() + cdf_ps.capacity()) *
               sizeof(double);
  }
};

/// \brief One materialized result: the exact replay payload of an
/// expectation / confidence / joint-confidence call, optionally with a
/// distribution summary attached by the eager builder.
struct IndexedValue {
  double expectation = 0.0;
  double probability = 1.0;
  uint64_t samples_used = 0;
  uint64_t attempts = 0;
  bool exact = false;
  /// Present only for eagerly built entries (summaries cost a bounded
  /// extra sample sweep that the lazy miss path must not pay).
  std::shared_ptr<const IndexSummary> summary;
};

/// \brief Thread-safe LRU index of materialized results, invalidated
/// only by table replacement.
class ExpectationIndex {
 public:
  /// Default byte budget (64 MiB). 0 means unlimited, mirroring the
  /// admission gate's capacity convention.
  static constexpr size_t kDefaultMemoryBudget = 64ull << 20;

  /// \brief Exact probe key of one call on one row: the row's catalogue
  /// anchor, the sampling layer's exact result key, and a hash of all
  /// three computed at construction, outside the index's lock. Equality
  /// compares the whole key, so a hash collision can never serve a hit.
  struct Key {
    Key(uint64_t table_id, uint64_t row_id, std::string result);

    uint64_t table_id;
    uint64_t row_id;
    std::string result;
    size_t hash;

    bool operator==(const Key& o) const {
      return hash == o.hash && table_id == o.table_id &&
             row_id == o.row_id && result == o.result;
    }
  };

  struct Stats {
    size_t entries = 0;
    size_t bytes = 0;
    size_t memory_budget = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;      ///< Entries dropped by the LRU budget.
    uint64_t invalidations = 0;  ///< Entries purged by table replacement.
    uint64_t stale_rejects = 0;  ///< Lookups and backfills refused because
                                 ///< their snapshot predates a replacement.
    uint64_t insert_failures = 0;  ///< Backfills dropped by allocation
                                   ///< failure (real or injected). The
                                   ///< index stays cold but correct.
  };

  explicit ExpectationIndex(size_t memory_budget = kDefaultMemoryBudget)
      : memory_budget_(memory_budget) {}

  ExpectationIndex(const ExpectationIndex&) = delete;
  ExpectationIndex& operator=(const ExpectationIndex&) = delete;

  /// Cached value under `key`, or nullopt (counted as hit/miss unless
  /// `count` is false). `generation` is the generation of the caller's
  /// snapshot of the table; one older than the table's last replacement
  /// is refused (a miss and a stale reject), since its row ids name other
  /// rows.
  std::optional<IndexedValue> Lookup(const Key& key, uint64_t generation,
                                     bool count = true);

  /// Adds hits served by uncounted lookups once their outcome is final.
  void CountHits(uint64_t hits);

  /// Backfills one result computed on a snapshot of `generation`.
  /// Refused (stale_rejects) when that snapshot predates the table's last
  /// replacement — a reader racing a writer must not resurrect purged
  /// entries. Re-inserting an existing key replaces its value (payloads
  /// for one key are bit-identical by construction; the eager builder
  /// uses this to attach summaries) and refreshes recency.
  void Insert(Key key, uint64_t generation, IndexedValue value);

  /// Replacing-publish hook: purges every entry of `table_id` and refuses
  /// lookups and backfills from snapshots older than `generation` from
  /// now on. Appends must not call it: they leave every (table id, row
  /// id) on the same row.
  void ReplaceTable(uint64_t table_id, uint64_t generation);

  /// Adjusts the byte budget, evicting LRU entries if now over it.
  void SetMemoryBudget(size_t bytes);
  size_t memory_budget() const;

  Stats stats() const;

  void Clear();

 private:
  struct Entry {
    Key key;
    IndexedValue value;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;
  /// The map indexes the list's own keys, so each key is stored once.
  struct KeyPtrHash {
    size_t operator()(const Key* k) const { return k->hash; }
  };
  struct KeyPtrEq {
    bool operator()(const Key* a, const Key* b) const { return *a == *b; }
  };

  static size_t EntryBytes(const Entry& entry);
  /// True when a snapshot of `generation` predates `table_id`'s last
  /// replacement.
  bool StaleLocked(uint64_t table_id, uint64_t generation) const;
  void EraseLocked(LruList::iterator it);
  void EvictToBudgetLocked();

  mutable std::mutex mu_;
  size_t memory_budget_;
  size_t bytes_ = 0;
  /// Front = most recently used.
  LruList lru_;
  std::unordered_map<const Key*, LruList::iterator, KeyPtrHash, KeyPtrEq>
      map_;
  /// Generation of each replaced table's current snapshot.
  std::unordered_map<uint64_t, uint64_t> replaced_generation_;
  Stats stats_;
};

}  // namespace pip

#endif  // PIP_INDEX_EXPECTATION_INDEX_H_
