/// \file bench_fig6_queries.cc
/// \brief Reproduces paper Fig. 6: execution times of Q1-Q4 under PIP
/// (split into query phase and sample phase) and under Sample-First with
/// accuracy-matched sample counts.
///
/// As in the paper: Q1/Q2 suit Sample-First (no selection), so the
/// interesting output is that PIP's symbolic overhead is minimal; Q3
/// (selectivity ~0.1) forces Sample-First to 10x worlds; Q4 (selectivity
/// 0.005) forces 200x worlds (the paper's off-scale 2985 s bar).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/dist/variable_pool.h"
#include "src/engine/query.h"
#include "src/workload/queries.h"

namespace {

using pip::SamplingOptions;
using pip::bench::AppendBenchRecords;
using pip::bench::BenchJsonPath;
using pip::bench::BenchRecord;
using pip::bench::SmokeMode;
using pip::workload::GenerateTpch;
using pip::workload::TimedResult;
using pip::workload::TpchConfig;
using pip::workload::TpchData;

constexpr size_t kSamples = 1000;
constexpr double kQ4Selectivity = 0.005;

size_t Samples() { return SmokeMode() ? 200 : kSamples; }

TpchConfig BenchConfig() {
  TpchConfig config;
  config.num_customers = 150;
  config.num_suppliers = 20;
  config.num_parts = 30;
  return config;
}

const TpchData& Data() {
  static const TpchData* data = new TpchData(GenerateTpch(BenchConfig()));
  return *data;
}

SamplingOptions PipOptions() {
  SamplingOptions opts;
  opts.fixed_samples = kSamples;
  return opts;
}

// --- google-benchmark registrations (per query, per engine) -------------

void BM_Q1_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ1Pip(Data(), 1, PipOptions());
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q1_SampleFirst(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ1SampleFirst(Data(), kSamples, 1);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q2_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ2Pip(Data(), 2, PipOptions(), kSamples);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q2_SampleFirst(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ2SampleFirst(Data(), kSamples, 2);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q3_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ3Pip(Data(), 3, PipOptions());
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q3_SampleFirst(benchmark::State& state) {
  // Selectivity ~0.1: Sample-First needs 10x worlds for matched accuracy.
  for (auto _ : state) {
    auto r = pip::workload::RunQ3SampleFirst(Data(), 10 * kSamples, 3);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q4_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ4Pip(Data(), kQ4Selectivity, 4, PipOptions());
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().total);
  }
}
void BM_Q4_SampleFirst(benchmark::State& state) {
  // Accuracy-matched world count 1/selectivity (the paper's 2985 s bar).
  size_t worlds = static_cast<size_t>(kSamples / kQ4Selectivity);
  for (auto _ : state) {
    auto r =
        pip::workload::RunQ4SampleFirst(Data(), kQ4Selectivity, worlds, 4);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().total);
  }
}

BENCHMARK(BM_Q1_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q1_SampleFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q2_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q2_SampleFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q3_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q3_SampleFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q4_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q4_SampleFirst)->Unit(benchmark::kMillisecond);

void PrintFigure6() {
  std::printf("\n=== Figure 6: query evaluation times, PIP (query phase + "
              "sample phase) vs accuracy-matched Sample-First ===\n");
  std::printf("%6s %14s %15s %12s %18s %12s\n", "query", "PIP query (s)",
              "PIP sample (s)", "PIP total", "Sample-First (s)", "SF worlds");

  struct Row {
    const char* name;
    TimedResult pip;
    TimedResult sf;
    size_t sf_worlds;
  };
  std::vector<Row> rows;

  size_t samples = Samples();
  SamplingOptions opts;
  opts.fixed_samples = samples;
  {
    auto pip = pip::workload::RunQ1Pip(Data(), 1, opts);
    auto sf = pip::workload::RunQ1SampleFirst(Data(), samples, 1);
    PIP_CHECK(pip.ok() && sf.ok());
    rows.push_back({"Q1", pip.value(), sf.value(), samples});
  }
  {
    auto pip = pip::workload::RunQ2Pip(Data(), 2, opts, samples);
    auto sf = pip::workload::RunQ2SampleFirst(Data(), samples, 2);
    PIP_CHECK(pip.ok() && sf.ok());
    rows.push_back({"Q2", pip.value(), sf.value(), samples});
  }
  {
    auto pip = pip::workload::RunQ3Pip(Data(), 3, opts);
    auto sf = pip::workload::RunQ3SampleFirst(Data(), 10 * samples, 3);
    PIP_CHECK(pip.ok() && sf.ok());
    rows.push_back({"Q3", pip.value(), sf.value(), 10 * samples});
  }
  if (!SmokeMode()) {
    // The accuracy-matched Q4 Sample-First run instantiates 200k worlds
    // (the paper's off-scale bar) — too heavy for a CI smoke pass.
    size_t worlds = static_cast<size_t>(kSamples / kQ4Selectivity);
    auto pip4 = pip::workload::RunQ4Pip(Data(), kQ4Selectivity, 4, PipOptions());
    auto sf4 =
        pip::workload::RunQ4SampleFirst(Data(), kQ4Selectivity, worlds, 4);
    PIP_CHECK(pip4.ok() && sf4.ok());
    TimedResult pt{pip4.value().total, pip4.value().query_seconds,
                   pip4.value().sample_seconds};
    TimedResult st{sf4.value().total, sf4.value().query_seconds,
                   sf4.value().sample_seconds};
    rows.push_back({"Q4", pt, st, worlds});
  }

  for (const auto& row : rows) {
    std::printf("%6s %14.3f %15.3f %12.3f %18.3f %12zu\n", row.name,
                row.pip.query_seconds, row.pip.sample_seconds,
                row.pip.query_seconds + row.pip.sample_seconds,
                row.sf.query_seconds + row.sf.sample_seconds, row.sf_worlds);
  }
  std::printf("Expected shape: PIP ~Sample-First on Q1/Q2 (overhead "
              "minimal); PIP wins ~10x on Q3 and ~100x+ on Q4.\n\n");
}

/// Runs the PIP side of Q1-Q4 at num_threads in {1, 2, 8} and records
/// wall times plus result values to BENCH_sampling.json. The engine's
/// determinism contract makes the values bit-identical across thread
/// counts — checked here, not assumed.
void ThreadSweep() {
  const size_t samples = Samples();
  const size_t thread_counts[] = {1, 2, 8};

  struct SweepRun {
    size_t threads;
    double q_wall[4];
    double q_value[4];
    double total_wall = 0.0;
  };
  std::vector<SweepRun> runs;

  std::printf("=== Thread sweep: PIP Q1-Q4, fixed_samples=%zu ===\n",
              samples);
  std::printf("%8s %10s %10s %10s %10s %12s\n", "threads", "Q1 (s)",
              "Q2 (s)", "Q3 (s)", "Q4 (s)", "total (s)");
  for (size_t threads : thread_counts) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = threads;
    SweepRun run;
    run.threads = threads;

    pip::WallTimer timer;
    auto q1 = pip::workload::RunQ1Pip(Data(), 1, opts);
    run.q_wall[0] = timer.Seconds();
    timer.Restart();
    auto q2 = pip::workload::RunQ2Pip(Data(), 2, opts, samples);
    run.q_wall[1] = timer.Seconds();
    timer.Restart();
    auto q3 = pip::workload::RunQ3Pip(Data(), 3, opts);
    run.q_wall[2] = timer.Seconds();
    timer.Restart();
    auto q4 = pip::workload::RunQ4Pip(Data(), kQ4Selectivity, 4, opts);
    run.q_wall[3] = timer.Seconds();
    PIP_CHECK(q1.ok() && q2.ok() && q3.ok() && q4.ok());
    run.q_value[0] = q1.value().value;
    run.q_value[1] = q2.value().value;
    run.q_value[2] = q3.value().value;
    run.q_value[3] = q4.value().total;
    for (double w : run.q_wall) run.total_wall += w;
    std::printf("%8zu %10.3f %10.3f %10.3f %10.3f %12.3f\n", threads,
                run.q_wall[0], run.q_wall[1], run.q_wall[2], run.q_wall[3],
                run.total_wall);
    runs.push_back(run);
  }

  // Determinism gate: every thread count must produce the same bits.
  // Bit-pattern compare, not ==, so a legitimate bit-identical NaN
  // (budget collapse) doesn't read as a determinism failure.
  bool identical = true;
  for (const auto& run : runs) {
    for (int q = 0; q < 4; ++q) {
      identical = identical && std::memcmp(&run.q_value[q],
                                           &runs[0].q_value[q],
                                           sizeof(double)) == 0;
    }
  }
  PIP_CHECK_MSG(identical,
                "thread sweep produced thread-count-dependent results");
  double speedup = runs.front().total_wall / runs.back().total_wall;
  std::printf("bit-identical across threads: yes; end-to-end speedup "
              "%zu->%zu threads: %.2fx\n\n",
              runs.front().threads, runs.back().threads, speedup);

  const char* names[] = {"Q1_pip", "Q2_pip", "Q3_pip", "Q4_pip"};
  std::vector<BenchRecord> records;
  for (const auto& run : runs) {
    for (int q = 0; q < 4; ++q) {
      BenchRecord r;
      r.bench = "fig6_thread_sweep";
      r.query = names[q];
      r.threads = static_cast<double>(run.threads);
      r.wall_seconds = run.q_wall[q];
      r.samples = static_cast<double>(samples);
      r.samples_per_sec =
          run.q_wall[q] > 0 ? static_cast<double>(samples) / run.q_wall[q]
                            : 0.0;
      r.value = run.q_value[q];
      records.push_back(r);
    }
    BenchRecord total;
    total.bench = "fig6_thread_sweep";
    total.query = "end_to_end";
    total.threads = static_cast<double>(run.threads);
    total.wall_seconds = run.total_wall;
    total.samples = static_cast<double>(samples);
    records.push_back(total);
  }
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Batched Analyze with the row axis as the outer parallel loop: the
/// rows/sec figure ROADMAP's perf-trajectory item tracks for row-level
/// scaling (per-row conditional expectations over a C-table, §IV). The
/// output tables are bit-compared across thread counts — the row-parallel
/// determinism contract, checked here like the query sweep above.
void AnalyzeRowSweep() {
  const size_t rows = SmokeMode() ? 48 : 256;
  const size_t samples = Samples();
  const size_t thread_counts[] = {1, 2, 8};

  pip::Database db(20260730);
  pip::CTable table((pip::Schema({"v"})));
  for (size_t i = 0; i < rows; ++i) {
    double mean = 10.0 + static_cast<double>(i % 17);
    auto x = db.CreateVariable("Normal", {mean, 2.0}).value();
    pip::Condition c(pip::Expr::Var(x) > pip::Expr::Constant(mean - 1.5));
    PIP_CHECK(table.Append({pip::Expr::Var(x)}, c).ok());
  }
  pip::AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  spec.with_confidence = true;

  std::printf("=== Analyze row sweep: %zu rows x %zu samples, row-parallel "
              "===\n",
              rows, samples);
  std::printf("%8s %10s %12s\n", "threads", "wall (s)", "rows/sec");

  struct SweepRun {
    size_t threads;
    double wall;
    std::string output;
  };
  std::vector<SweepRun> runs;
  for (size_t threads : thread_counts) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = threads;
    opts.use_numeric_integration = false;  // Keep the sampling path hot.
    pip::SamplingEngine engine = db.MakeEngine(opts);
    pip::WallTimer timer;
    auto out = pip::Analyze(table, engine, spec);
    double wall = timer.Seconds();
    PIP_CHECK(out.ok());
    PIP_CHECK(out.value().num_rows() == rows);
    runs.push_back({threads, wall, out.value().ToString()});
    std::printf("%8zu %10.3f %12.1f\n", threads, wall,
                wall > 0 ? static_cast<double>(rows) / wall : 0.0);
  }
  for (const auto& run : runs) {
    PIP_CHECK_MSG(run.output == runs[0].output,
                  "row-parallel Analyze produced thread-count-dependent rows");
  }
  std::printf("bit-identical across threads: yes; rows/sec speedup "
              "%zu->%zu threads: %.2fx\n\n",
              runs.front().threads, runs.back().threads,
              runs.front().wall / runs.back().wall);

  std::vector<BenchRecord> records;
  for (const auto& run : runs) {
    BenchRecord r;
    r.bench = "fig6_analyze_rows";
    r.query = "analyze_batch";
    r.threads = static_cast<double>(run.threads);
    r.wall_seconds = run.wall;
    r.samples = static_cast<double>(rows);
    // For the row-parallel axis the throughput figure is rows/sec.
    r.samples_per_sec =
        run.wall > 0 ? static_cast<double>(rows) / run.wall : 0.0;
    records.push_back(r);
  }
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Few-rows-many-threads shapes for the fig6_analyze_rows sweep: rows in
/// {2, 4, 8} on 8 threads. Under the fractional-budget scheduler a 2-row
/// batch hands each row body a budget of 4, so the nested sample regions
/// fan out across the leftover width — observable in the scheduler
/// counters even on a single-core runner, because nested helper tasks
/// are *submitted* (and always eventually executed) regardless of how
/// many cores drain them. Asserted within-run: when rows < threads, the
/// pool executed at least one nested-region helper task. Outputs are
/// byte-compared against a serial run of the same shape (the
/// determinism gate at its most adversarial: odd widths, nested
/// fan-out, join-stealing all active).
void NestedShapeSweep() {
  const size_t samples = Samples();
  const size_t threads = 8;
  const size_t row_shapes[] = {2, 4, 8};

  pip::Database db(20260806);
  std::printf("=== Nested-shape sweep: rows x %zu threads, %zu samples, "
              "fractional budget splits ===\n",
              threads, samples);
  std::printf("%6s %12s %12s %14s %14s %10s %12s\n", "rows", "serial (s)",
              "wall (s)", "nested_tasks", "joiner_tasks", "steals",
              "join_wait_us");

  std::vector<BenchRecord> records;
  for (size_t rows : row_shapes) {
    pip::CTable table((pip::Schema({"v"})));
    for (size_t i = 0; i < rows; ++i) {
      double mean = 10.0 + static_cast<double>(i % 17);
      auto x = db.CreateVariable("Normal", {mean, 2.0}).value();
      pip::Condition c(pip::Expr::Var(x) > pip::Expr::Constant(mean - 1.5));
      PIP_CHECK(table.Append({pip::Expr::Var(x)}, c).ok());
    }
    pip::AnalyzeSpec spec;
    spec.expectation_columns = {"v"};
    spec.with_confidence = true;

    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.use_numeric_integration = false;  // Keep the sampling path hot.

    opts.num_threads = 1;
    pip::SamplingEngine serial_engine = db.MakeEngine(opts);
    pip::WallTimer timer;
    auto serial_out = pip::Analyze(table, serial_engine, spec);
    const double serial_wall = timer.Seconds();
    PIP_CHECK(serial_out.ok());

    opts.num_threads = threads;
    pip::SamplingEngine engine = db.MakeEngine(opts);
    pip::ThreadPool& pool = pip::ThreadPool::Shared();
    const pip::ThreadPool::SchedulerStats before = pool.scheduler_stats();
    timer.Restart();
    auto out = pip::Analyze(table, engine, spec);
    const double wall = timer.Seconds();
    const pip::ThreadPool::SchedulerStats after = pool.scheduler_stats();
    PIP_CHECK(out.ok());
    PIP_CHECK_MSG(
        out.value().ToString() == serial_out.value().ToString(),
        "nested-shape Analyze diverged from the serial run");

    const double nested =
        static_cast<double>(after.nested_tasks - before.nested_tasks);
    const double joiner =
        static_cast<double>(after.joiner_tasks - before.joiner_tasks);
    const double steals = static_cast<double>(after.steals - before.steals);
    const double wait_us = static_cast<double>(after.join_wait_micros -
                                               before.join_wait_micros);
    std::printf("%6zu %12.3f %12.3f %14.0f %14.0f %10.0f %12.0f\n", rows,
                serial_wall, wall, nested, joiner, steals, wait_us);
    if (rows < threads) {
      // The saturation claim, made observable: with fewer rows than
      // threads the row bodies' fractional budgets exceed 1, so their
      // sample regions must have submitted (and the pool executed)
      // helper tasks. Counter-based, so it holds on single-core CI too.
      PIP_CHECK_MSG(nested >= 1.0,
                    "no nested helper tasks executed on a few-rows-many-"
                    "threads shape: budget splits are not reaching the "
                    "sample axis");
    }

    BenchRecord r;
    r.bench = "fig6_analyze_rows";
    r.query = "nested_rows" + std::to_string(rows);
    r.threads = static_cast<double>(threads);
    r.wall_seconds = wall;
    r.samples = static_cast<double>(samples);
    r.samples_per_sec =
        wall > 0 ? static_cast<double>(rows * samples) / wall : 0.0;
    r.pool_regions =
        static_cast<double>(after.regions - before.regions);
    r.pool_nested_tasks = nested;
    r.pool_joiner_tasks = joiner;
    r.pool_steals = steals;
    r.pool_join_wait_micros = wait_us;
    records.push_back(r);

    BenchRecord s = r;
    s.query = "nested_rows" + std::to_string(rows) + "_serial";
    s.threads = 1;
    s.wall_seconds = serial_wall;
    s.samples_per_sec = serial_wall > 0
                            ? static_cast<double>(rows * samples) / serial_wall
                            : 0.0;
    s.pool_regions = s.pool_nested_tasks = s.pool_joiner_tasks = 0;
    s.pool_steals = s.pool_join_wait_micros = 0;
    records.push_back(s);
  }
  std::printf("bit-identical to serial at every shape: yes\n\n");
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Scalar-vs-batch draw ablation: one unconstrained expectation (no
/// conditions, so every chunk draws its whole sample range in a single
/// GenerateBatch round when the toggle is on) timed with
/// use_batch_generation off and on. The two runs must agree bit-for-bit
/// — the batch-draw contract (README) — so the record pair differs only
/// in throughput; bench-smoke asserts a regression threshold on it.
void BatchDrawAblation() {
  const size_t samples = SmokeMode() ? 100000 : 1000000;
  pip::Database db(20260807);
  auto x = db.CreateVariable("Normal", {5.0, 2.0}).value();
  auto y = db.CreateVariable("Exponential", {1.0}).value();
  pip::ExprPtr expr = pip::Expr::Var(x) + pip::Expr::Var(y);

  double wall[2] = {0.0, 0.0};
  double value[2] = {0.0, 0.0};
  for (int mode = 0; mode < 2; ++mode) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = 1;  // Isolate the kernel effect from scheduling.
    opts.use_numeric_integration = false;
    opts.use_batch_generation = mode == 1;
    pip::SamplingEngine engine = db.MakeEngine(opts);
    pip::WallTimer timer;
    auto r = engine.Expectation(expr, pip::Condition::True(), false);
    wall[mode] = timer.Seconds();
    PIP_CHECK(r.ok());
    value[mode] = r.value().expectation;
  }
  PIP_CHECK_MSG(std::memcmp(&value[0], &value[1], sizeof(double)) == 0,
                "batch draws diverged from scalar draws");

  std::printf("=== Batch-draw ablation: E[X+Y], %zu samples, 1 thread ===\n",
              samples);
  const char* names[] = {"scalar_draws", "batch_draws"};
  std::vector<BenchRecord> records;
  for (int mode = 0; mode < 2; ++mode) {
    double rate = wall[mode] > 0
                      ? static_cast<double>(samples) / wall[mode]
                      : 0.0;
    std::printf("%13s %10.3fs %14.0f samples/s\n", names[mode], wall[mode],
                rate);
    BenchRecord r;
    r.bench = "fig6_batch_ablation";
    r.query = names[mode];
    r.threads = 1;
    r.wall_seconds = wall[mode];
    r.samples = static_cast<double>(samples);
    r.samples_per_sec = rate;
    r.value = value[mode];
    records.push_back(r);
  }
  std::printf("bit-identical scalar vs batch: yes; speedup %.2fx\n\n",
              wall[1] > 0 ? wall[0] / wall[1] : 0.0);
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Scalar-vs-batch rejection ablation on the Q5 row shape: per part,
/// E[(demand - supply) * c | demand > supply] with P[demand > supply],
/// demand ~ Poisson(1..12) and supply ~ Exponential at a selectivity in
/// [5%, 30%] (the mc_analytic parameters). The two-variable atom rejects,
/// so the batch run draws in gather rounds tested by compiled atoms. The
/// two runs must agree bit-for-bit on every row's expectation,
/// probability and attempt count; bench-smoke asserts the speedup.
void RejectionAblation() {
  const size_t rows = 300;
  const size_t samples = 200;
  pip::Database db(20261017);
  pip::Rng rng(5);
  std::vector<std::pair<pip::ExprPtr, pip::Condition>> parts;
  for (size_t r = 0; r < rows; ++r) {
    const double lambda = 1.0 + 11.0 * rng.NextUniform();
    const double rate =
        pip::workload::Q5SupplyRate(lambda, 0.05 + 0.25 * rng.NextUniform());
    auto demand =
        pip::Expr::Var(db.CreateVariable("Poisson", {lambda}).value());
    auto supply =
        pip::Expr::Var(db.CreateVariable("Exponential", {rate}).value());
    parts.emplace_back((demand - supply) * pip::Expr::Constant(1.5),
                       pip::Condition(demand > supply));
  }

  double wall[2] = {0.0, 0.0};
  std::vector<double> results[2];
  for (int mode = 0; mode < 2; ++mode) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = 1;
    opts.index_enabled = false;
    opts.use_batch_generation = mode == 1;
    pip::SamplingEngine engine = db.MakeEngine(opts);
    pip::WallTimer timer;
    for (const auto& [expr, cond] : parts) {
      auto r = engine.Expectation(expr, cond, /*compute_probability=*/true);
      PIP_CHECK(r.ok());
      results[mode].push_back(r.value().expectation);
      results[mode].push_back(r.value().probability);
      results[mode].push_back(static_cast<double>(r.value().attempts));
    }
    wall[mode] = timer.Seconds();
  }
  PIP_CHECK_MSG(std::memcmp(results[0].data(), results[1].data(),
                            results[0].size() * sizeof(double)) == 0,
                "batched rejection diverged from scalar rejection");

  double sum = 0.0;
  for (size_t r = 0; r < rows; ++r) sum += results[0][3 * r];
  std::printf("=== Rejection ablation: Q5 rows, %zu parts x %zu samples, "
              "1 thread ===\n",
              rows, samples);
  const char* names[] = {"scalar_rejection", "batch_rejection"};
  std::vector<BenchRecord> records;
  for (int mode = 0; mode < 2; ++mode) {
    double rate = wall[mode] > 0
                      ? static_cast<double>(rows * samples) / wall[mode]
                      : 0.0;
    std::printf("%16s %10.3fs %14.0f samples/s\n", names[mode], wall[mode],
                rate);
    BenchRecord r;
    r.bench = "fig6_batch_ablation";
    r.query = names[mode];
    r.threads = 1;
    r.wall_seconds = wall[mode];
    r.samples = static_cast<double>(rows * samples);
    r.samples_per_sec = rate;
    r.value = sum;
    records.push_back(r);
  }
  std::printf("bit-identical scalar vs batch: yes; speedup %.2fx\n\n",
              wall[1] > 0 ? wall[0] / wall[1] : 0.0);
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Draw-kernel ablation: VariablePool::GenerateBatch draws per second
/// for Poisson(6) and Exponential(1), measured back to back in this
/// process. bench-smoke asserts a floor on their ratio, a like-for-like
/// gate on the Poisson quantile kernel that runner speed cancels out of.
void DrawKernelRates() {
  constexpr uint64_t kBatch = 4096;
  const double budget_s = SmokeMode() ? 0.2 : 1.0;
  struct Kernel {
    const char* query;
    const char* family;
    std::vector<double> params;
  };
  const Kernel kernels[] = {{"poisson_6", "Poisson", {6.0}},
                            {"exponential_1", "Exponential", {1.0}}};
  pip::VariablePool pool(20261017);
  std::printf("=== Draw kernels: GenerateBatch, %llu per call, 1 thread ===\n",
              static_cast<unsigned long long>(kBatch));
  std::vector<BenchRecord> records;
  std::vector<double> out;
  for (const Kernel& k : kernels) {
    const uint64_t var = pool.Create(k.family, k.params).value().var_id;
    uint64_t drawn = 0;
    pip::WallTimer timer;
    while (timer.Seconds() < budget_s) {
      PIP_CHECK(pool.GenerateBatch(var, drawn, kBatch, 0, &out).ok());
      drawn += kBatch;
    }
    const double wall = timer.Seconds();
    BenchRecord r;
    r.bench = "dist_draw_kernels";
    r.query = k.query;
    r.threads = 1;
    r.wall_seconds = wall;
    r.samples = static_cast<double>(drawn);
    r.samples_per_sec = static_cast<double>(drawn) / wall;
    records.push_back(r);
    std::printf("%14s %14.0f draws/s\n", k.query, r.samples_per_sec);
  }
  std::printf("poisson_6 / exponential_1: %.2fx\n\n",
              records[0].samples_per_sec / records[1].samples_per_sec);
  AppendBenchRecords(BenchJsonPath(), records);
}

}  // namespace

int main(int argc, char** argv) {
  PrintFigure6();
  ThreadSweep();
  AnalyzeRowSweep();
  NestedShapeSweep();
  BatchDrawAblation();
  RejectionAblation();
  DrawKernelRates();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
