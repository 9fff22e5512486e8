#include "src/index/expectation_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/engine/database.h"
#include "src/sampling/aggregates.h"
#include "src/sampling/index_ops.h"
#include "src/sql/session.h"

namespace pip {
namespace {

// ---------------------------------------------------------------------------
// ExpectationIndex unit tests (no sampling involved).
// ---------------------------------------------------------------------------

ExpectationIndex::Key K(uint64_t table_id, uint64_t row_id,
                        const char* result) {
  return ExpectationIndex::Key(table_id, row_id, result);
}

IndexedValue MakeValue(double expectation) {
  IndexedValue v;
  v.expectation = expectation;
  v.probability = 0.5;
  v.samples_used = 100;
  return v;
}

TEST(ExpectationIndexTest, MissThenInsertThenHit) {
  ExpectationIndex index;
  EXPECT_FALSE(index.Lookup(K(1, 1, "k"), 1).has_value());
  index.Insert(K(1, 1, "k"), 1, MakeValue(3.5));
  auto hit = index.Lookup(K(1, 1, "k"), 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->expectation, 3.5);
  ExpectationIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ExpectationIndexTest, KeysSeparateRowsAndTables) {
  ExpectationIndex index;
  index.Insert(K(1, 1, "k"), 1, MakeValue(1.0));
  EXPECT_FALSE(index.Lookup(K(1, 2, "k"), 1).has_value());   // Other row.
  EXPECT_FALSE(index.Lookup(K(2, 1, "k"), 1).has_value());   // Other table.
  EXPECT_FALSE(index.Lookup(K(1, 1, "k2"), 1).has_value());  // Other query.
}

TEST(ExpectationIndexTest, ReplacePurgesExactlyThatTable) {
  ExpectationIndex index;
  index.Insert(K(1, 1, "k"), 1, MakeValue(1.0));
  index.Insert(K(1, 2, "k"), 1, MakeValue(2.0));
  index.Insert(K(9, 1, "k"), 1, MakeValue(9.0));
  index.ReplaceTable(1, 2);
  // Table 1's entries are gone; table 9 is untouched.
  EXPECT_FALSE(index.Lookup(K(1, 1, "k"), 2).has_value());
  EXPECT_FALSE(index.Lookup(K(1, 2, "k"), 2).has_value());
  EXPECT_TRUE(index.Lookup(K(9, 1, "k"), 1).has_value());
  EXPECT_EQ(index.stats().invalidations, 2u);
  EXPECT_EQ(index.stats().entries, 1u);
}

TEST(ExpectationIndexTest, SnapshotsOlderThanReplacementAreRefused) {
  ExpectationIndex index;
  index.ReplaceTable(1, 3);
  index.Insert(K(1, 1, "k"), 2, MakeValue(1.0));  // Older snapshot's backfill.
  EXPECT_EQ(index.stats().entries, 0u);
  EXPECT_EQ(index.stats().stale_rejects, 1u);
  index.Insert(K(1, 1, "k"), 3, MakeValue(2.0));  // Current generation lands.
  EXPECT_TRUE(index.Lookup(K(1, 1, "k"), 3).has_value());
  // A reader still holding the replaced snapshot never sees it: its row
  // ids name other rows.
  EXPECT_FALSE(index.Lookup(K(1, 1, "k"), 2).has_value());
  EXPECT_EQ(index.stats().stale_rejects, 2u);
}

TEST(ExpectationIndexTest, KeyEqualityIsExactNotByHash) {
  ExpectationIndex::Key a = K(1, 2, "k");
  ExpectationIndex::Key b = a;
  EXPECT_TRUE(a == b);
  b.result = "k2";  // Same stored hash, different content.
  EXPECT_FALSE(a == b);
  EXPECT_NE(K(1, 2, "k").hash, K(2, 1, "k").hash);
}

TEST(ExpectationIndexTest, LruEvictionUnderTinyBudget) {
  ExpectationIndex index(/*memory_budget=*/1);  // Nothing fits twice over.
  index.Insert(K(1, 1, "k"), 1, MakeValue(1.0));
  index.Insert(K(1, 2, "k"), 1, MakeValue(2.0));
  ExpectationIndex::Stats stats = index.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 1u);
}

TEST(ExpectationIndexTest, LruKeepsRecentlyTouchedEntry) {
  ExpectationIndex index(/*memory_budget=*/0);  // Unlimited while filling.
  index.Insert(K(1, 1, "old"), 1, MakeValue(1.0));
  index.Insert(K(1, 2, "new"), 1, MakeValue(2.0));
  // Touch the older entry, then shrink so only one survives: the
  // untouched one must be the victim.
  EXPECT_TRUE(index.Lookup(K(1, 1, "old"), 1).has_value());
  ExpectationIndex::Stats full = index.stats();
  index.SetMemoryBudget(full.bytes - 1);
  EXPECT_TRUE(index.Lookup(K(1, 1, "old"), 1).has_value());
  EXPECT_FALSE(index.Lookup(K(1, 2, "new"), 1).has_value());
}

TEST(ExpectationIndexTest, ReinsertAttachesSummaryAndKeepsOneEntry) {
  ExpectationIndex index;
  index.Insert(K(1, 1, "k"), 1, MakeValue(1.0));
  IndexedValue with_summary = MakeValue(1.0);
  auto summary = std::make_shared<IndexSummary>();
  summary->moment_count = 10;
  summary->mean = 1.0;
  with_summary.summary = summary;
  index.Insert(K(1, 1, "k"), 1, with_summary);
  auto hit = index.Lookup(K(1, 1, "k"), 1);
  ASSERT_TRUE(hit.has_value());
  ASSERT_NE(hit->summary, nullptr);
  EXPECT_EQ(hit->summary->moment_count, 10u);
  EXPECT_EQ(index.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end through SQL sessions.
// ---------------------------------------------------------------------------

class IndexSqlTest : public ::testing::Test {
 protected:
  IndexSqlTest() : db_(4242), session_(&db_) {
    session_.mutable_options()->fixed_samples = 500;
  }

  sql::SqlResult Run(const std::string& stmt) { return Run(&session_, stmt); }

  static sql::SqlResult Run(sql::Session* session, const std::string& stmt) {
    sql::SqlResult r = session->Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.ToString());
    return r;
  }

  std::vector<double> AnalyzeRow(sql::Session* session) {
    sql::SqlResult r = Run(
        session, "SELECT tag, expectation(v) AS ev, conf() FROM m WHERE v > 0");
    std::vector<double> values;
    for (size_t i = 0; i < r.table.num_rows(); ++i) {
      values.push_back(r.table.Get(i, "E[ev]").value().double_value());
      values.push_back(r.table.Get(i, "conf").value().double_value());
    }
    return values;
  }

  Database db_;
  sql::Session session_;
};

TEST_F(IndexSqlTest, HitServesBitIdenticalResultsAcrossThreadCounts) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");

  // Cold pass with the index off: the pure sampling answer.
  Run("SET index_enabled = 0");
  std::vector<double> cold = AnalyzeRow(&session_);
  uint64_t hits_before = db_.result_index_stats().hits;

  // Miss + backfill, then hits — all bit-identical to the cold pass,
  // whatever NUM_THREADS is (thread count is excluded from index keys
  // because the engine's draws are schedule-independent).
  Run("SET index_enabled = 1");
  EXPECT_EQ(AnalyzeRow(&session_), cold);  // Backfills.
  for (size_t threads : {1, 2, 8}) {
    Run("SET num_threads = " + std::to_string(threads));
    EXPECT_EQ(AnalyzeRow(&session_), cold) << "num_threads=" << threads;
  }
  EXPECT_GT(db_.result_index_stats().hits, hits_before);
}

TEST_F(IndexSqlTest, AggregatesShareIndexWithAnalyze) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Normal(20, 1))");
  sql::SqlResult cold =
      Run("SELECT expected_sum(v) AS s, expected_avg(v) AS a FROM m");
  ExpectationIndex::Stats after_cold = db_.result_index_stats();
  sql::SqlResult warm =
      Run("SELECT expected_sum(v) AS s, expected_avg(v) AS a FROM m");
  ExpectationIndex::Stats after_warm = db_.result_index_stats();
  EXPECT_EQ(warm.table.row(0)[0].double_value(),
            cold.table.row(0)[0].double_value());
  EXPECT_EQ(warm.table.row(0)[1].double_value(),
            cold.table.row(0)[1].double_value());
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.inserts, after_cold.inserts);  // Fully served.
}

/// Every numeric cell of `r`, row-major (non-numeric cells skipped).
std::vector<double> Numbers(const sql::SqlResult& r) {
  std::vector<double> out;
  for (const Row& row : r.table.rows()) {
    for (const Value& v : row) {
      if (v.type() == ValueType::kDouble) out.push_back(v.double_value());
    }
  }
  return out;
}

TEST_F(IndexSqlTest, InsertKeepsEntriesAndServesOldRows) {
  Run("CREATE TABLE m (tag, v, w)");
  Run("CREATE TABLE other (tag, v, w)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1), Poisson(3)), "
      "('b', Normal(20, 2), Poisson(4))");
  Run("INSERT INTO other VALUES ('x', Normal(5, 1), Poisson(2))");
  const std::string sweep = "SELECT tag, expectation(v * w) AS e FROM m";
  const std::string sum = "SELECT expected_sum(v * w) AS s FROM m";
  Run(sweep);
  Run(sum);
  Run("SELECT tag, expectation(v * w) AS e FROM other");
  const ExpectationIndex::Stats warm = db_.result_index_stats();
  ASSERT_EQ(warm.entries, 5u);  // m: 2 rows x (E, P); other: 1.

  // An append changes no existing row, so nothing is purged.
  Run("INSERT INTO m VALUES ('c', Normal(30, 1), Poisson(5))");
  const ExpectationIndex::Stats appended = db_.result_index_stats();
  EXPECT_EQ(appended.invalidations, warm.invalidations);
  EXPECT_EQ(appended.entries, warm.entries);

  // In both statements the old rows hit, the new row misses and
  // backfills.
  sql::SqlResult served = Run(sweep);
  sql::SqlResult served_sum = Run(sum);
  const ExpectationIndex::Stats swept = db_.result_index_stats();
  EXPECT_EQ(swept.hits - appended.hits, 4u);
  EXPECT_EQ(swept.misses - appended.misses, 2u);
  EXPECT_EQ(swept.inserts - appended.inserts, 2u);
  EXPECT_EQ(swept.invalidations, warm.invalidations);

  // Bit-identical to a session that never touches the index.
  sql::Session off(&db_);
  off.mutable_options()->fixed_samples = 500;
  Run(&off, "SET index_enabled = 0");
  EXPECT_EQ(Numbers(served), Numbers(Run(&off, sweep)));
  EXPECT_EQ(Numbers(served_sum), Numbers(Run(&off, sum)));
  EXPECT_EQ(Numbers(served).size(), 3u);
}

TEST_F(IndexSqlTest, ReplacePurgesTheTableAndRefusesItsOldSnapshot) {
  Run("CREATE TABLE m (tag, v, w)");
  Run("CREATE TABLE other (tag, v, w)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1), Poisson(3)), "
      "('b', Normal(20, 2), Poisson(4))");
  Run("INSERT INTO other VALUES ('x', Normal(5, 1), Poisson(2))");
  Run("SELECT tag, expectation(v * w) AS e FROM other");
  const size_t other_entries = db_.result_index_stats().entries;
  Run("SELECT tag, expectation(v * w) AS e FROM m");
  const ExpectationIndex::Stats warm = db_.result_index_stats();
  ASSERT_EQ(warm.entries, other_entries + 2);

  std::shared_ptr<const CTable> old_snapshot = db_.GetTable("m").value();
  db_.MaterializeView("m", *old_snapshot);
  std::shared_ptr<const CTable> new_snapshot = db_.GetTable("m").value();
  ASSERT_GT(new_snapshot->generation(), old_snapshot->generation());
  const ExpectationIndex::Stats replaced = db_.result_index_stats();
  EXPECT_EQ(replaced.invalidations - warm.invalidations, 2u);
  EXPECT_EQ(replaced.entries, other_entries);  // Only m's entries went.

  // A reader still on the replaced snapshot computes its own answer but
  // neither hits nor backfills.
  const SamplingEngine engine = db_.MakeEngine(*session_.mutable_options());
  const CTableRow& row = old_snapshot->row(0);
  const ExprPtr target = row.cells[1] * row.cells[2];
  const ExpectationResult direct =
      engine.Expectation(target, row.condition, true).value();
  const ExpectationResult stale =
      IndexedExpectation(engine, ProvenanceOf(*old_snapshot, 0), target,
                         row.condition, true)
          .value();
  EXPECT_EQ(stale.expectation, direct.expectation);
  const ExpectationIndex::Stats refused = db_.result_index_stats();
  EXPECT_EQ(refused.stale_rejects - replaced.stale_rejects, 2u);
  EXPECT_EQ(refused.entries, other_entries);

  // The current snapshot backfills and then hits as usual.
  for (int pass = 0; pass < 2; ++pass) {
    const ExpectationResult fresh =
        IndexedExpectation(engine, ProvenanceOf(*new_snapshot, 0), target,
                           row.condition, true)
            .value();
    EXPECT_EQ(fresh.expectation, direct.expectation);
  }
  const ExpectationIndex::Stats current = db_.result_index_stats();
  EXPECT_EQ(current.entries, other_entries + 1);
  EXPECT_EQ(current.hits - refused.hits, 1u);
}

TEST_F(IndexSqlTest, ConcurrentAppendsKeepSweepsExact) {
  // Two appenders and two whole-table sweepers: every indexed sweep must
  // equal an index-off recomputation of the snapshot it swept.
  Run("CREATE TABLE m (k, p)");
  SamplingOptions options = *session_.mutable_options();
  options.fixed_samples = 20;
  options.num_threads = 2;
  auto append = [this](int k) {
    VarRef x = db_.CreateVariable("Normal", {1.0 + k % 7, 1.0}).value();
    VarRef y = db_.CreateVariable("Poisson", {2.0 + k % 5}).value();
    CTableRow row;
    row.cells = {Expr::Constant(static_cast<double>(k)),
                 Expr::Var(x) * Expr::Var(y)};
    PIP_CHECK(db_.AppendRows("m", {row}).ok());
  };
  for (int k = 0; k < 16; ++k) append(k);

  constexpr int kAppendsPerWriter = 100;
  std::atomic<int> writers_left{2};
  std::atomic<int> mismatches{0};
  std::atomic<int> sweeps{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) append(1000 * (w + 1) + i);
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      SamplingOptions off_options = options;
      off_options.index_enabled = false;
      const SamplingEngine on = db_.MakeEngine(options);
      const SamplingEngine off = db_.MakeEngine(off_options);
      const AggregateEvaluator indexed(&on), plain(&off);
      // At least one sweep after the last append.
      for (bool last = false; !last;) {
        last = writers_left.load() == 0;
        std::shared_ptr<const CTable> snapshot = db_.GetTable("m").value();
        const double served = indexed.ExpectedSum(*snapshot, "p").value();
        const double fresh = plain.ExpectedSum(*snapshot, "p").value();
        if (std::memcmp(&served, &fresh, sizeof(double)) != 0) ++mismatches;
        ++sweeps;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(sweeps.load(), 2);
  EXPECT_EQ(db_.GetTable("m").value()->num_rows(), 16u + 2 * kAppendsPerWriter);
  const ExpectationIndex::Stats stats = db_.result_index_stats();
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST_F(IndexSqlTest, TinyBudgetEvictsThroughSqlKnob) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(1, 1)), ('b', Normal(2, 1)), "
      "('c', Normal(3, 1)), ('d', Normal(4, 1))");
  Run("SET index_memory_budget = 1");
  AnalyzeRow(&session_);
  ExpectationIndex::Stats stats = db_.result_index_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 1u);
  // Still answers correctly with the index effectively disabled by size.
  EXPECT_NEAR(AnalyzeRow(&session_)[0], 1.0, 0.5);
}

TEST_F(IndexSqlTest, ConcurrentSessionsAgreeAndShareEntries) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");
  constexpr int kSessions = 8;
  std::vector<std::vector<double>> results(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([this, i, &results] {
      sql::Session session(&db_);
      session.mutable_options()->fixed_samples = 500;
      results[i] = AnalyzeRow(&session);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kSessions; ++i) EXPECT_EQ(results[i], results[0]);
  // One session backfilled; later ones hit (exact interleaving varies,
  // but the racing inserts of one entry must collapse, not duplicate).
  ExpectationIndex::Stats stats = db_.result_index_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.entries, 4u);  // 2 rows x (expectation, conf).
}

TEST_F(IndexSqlTest, EagerBuildMaterializesAtInsert) {
  Run("SET index_eager_build = 1");
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");
  ExpectationIndex::Stats built = db_.result_index_stats();
  EXPECT_GT(built.entries, 0u);
  EXPECT_GT(built.inserts, 0u);

  // The eager sweep mirrors Analyze's conf()-bearing call pattern (the
  // first probabilistic cell carries P[condition]), so this query's
  // expectation targets resolve to the eagerly built entries.
  sql::SqlResult r = Run("SELECT tag, expectation(v) AS ev, conf() FROM m");
  EXPECT_NEAR(r.table.Get(0, "E[ev]").value().double_value(), 10.0, 0.5);
  ExpectationIndex::Stats after = db_.result_index_stats();
  EXPECT_GT(after.hits, built.hits);
}

TEST_F(IndexSqlTest, ShowIndexAndKnobsSurfaces) {
  sql::SqlResult knobs = Run("SHOW KNOBS");
  std::vector<std::string> names;
  for (const Row& row : knobs.table.rows()) {
    names.push_back(row[0].string_value());
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "INDEX_ENABLED"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "INDEX_EAGER_BUILD"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "INDEX_MEMORY_BUDGET"),
            names.end());

  sql::SqlResult index = Run("SHOW INDEX");
  EXPECT_EQ(index.table.schema().columns(),
            (std::vector<std::string>{"metric", "value"}));
  EXPECT_EQ(index.table.num_rows(), 10u);  // incl. insert_failures
  EXPECT_EQ(index.table.row(0)[0].string_value(), "entries");

  // Bad knob values are rejected; good ones round-trip through SHOW.
  EXPECT_FALSE(session_.Execute("SET index_enabled = 2").ok());
  Run("SET index_enabled = 0");
  sql::SqlResult shown = Run("SHOW KNOBS");
  for (const Row& row : shown.table.rows()) {
    if (row[0].string_value() == "INDEX_ENABLED") {
      EXPECT_EQ(row[1].string_value(), "0");
    }
  }
}

TEST_F(IndexSqlTest, DisabledIndexNeverTouchesCounters) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1))");
  Run("SET index_enabled = 0");
  ExpectationIndex::Stats before = db_.result_index_stats();
  AnalyzeRow(&session_);
  AnalyzeRow(&session_);
  ExpectationIndex::Stats after = db_.result_index_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
}

}  // namespace
}  // namespace pip
