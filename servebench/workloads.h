/// \file workloads.h
/// \brief The benchmark's three traffic mixes over pip-server.
///
/// Each workload generates its tables and per-connection statement
/// streams from the benchmark seed alone, so one seed replays the same
/// inputs; pip-server keeps its own default pool seed. Every answer that
/// has a closed form is checked against it, with a tolerance derived from
/// the workload's pinned FIXED_SAMPLES.
///
///   point_lookup  4 connections, ~1,000 uncertain rows, Zipf-skewed
///                 per-key lookups that the expectation index repeats.
///   mc_analytic   1 connection, the paper's Q1/Q4/Q5 shapes and a
///                 per-row expectation over a 1,000-part table.
///   ingest_rw     2 paced writers appending to, 2 readers sweeping, one
///                 shared table behind a narrow admission gate.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "servebench/stats.h"
#include "src/engine/database.h"
#include "src/server/client.h"

namespace servebench {

/// Deterministic generator for workload inputs (SplitMix64); the same
/// seed gives the same stream on every platform.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

enum class StmtClass { kSample, kSymbolic, kWrite };
const char* ClassName(StmtClass cls);

/// \brief One statement of a connection's stream.
struct Stmt {
  std::string text;
  StmtClass cls = StmtClass::kSample;
  /// Close and reopen the connection before sending (session churn).
  bool reconnect_first = false;
  /// Same text gives the same answer bytes: across connections, and
  /// between the served answer and the shadow Session's.
  bool deterministic = false;
  /// Rows this statement appends to the workload's shared table.
  size_t appended_rows = 0;
  /// Validates a successful answer; empty means "any success".
  std::function<std::string(const pip::server::WireResponse&)> check;
};

/// A parameterised distribution, for the isolated draw-kernel probe.
struct DrawSpec {
  std::string family;
  std::vector<double> params;
};

/// \brief A traffic mix. Next(conn, ...) and the checks of the statements
/// it returns run on the connection's own thread only; implementations
/// synchronise any state shared between connections.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual int connections() const = 0;
  /// pip-server flags beyond --port (e.g. --set FIXED_SAMPLES=200).
  virtual std::vector<std::string> ServerFlags() const = 0;
  /// Statements one loader connection runs, in order, before the
  /// measured phase.
  virtual std::vector<std::string> SetupStatements() const = 0;
  /// The next statement of connection `conn`, issued at `now_ns` on a
  /// monotonic clock. The texts a connection issues depend only on the
  /// seed and on these times (ingest_rw paces its appends by them).
  virtual Stmt Next(int conn, int64_t now_ns) = 0;
  /// Checks that hold after the measured phase (e.g. the row count of
  /// an appended table); empty string when they pass.
  /// `acked_rows` are appends the server acknowledged; `unknown_rows`
  /// are appends whose outcome a transport error hid.
  virtual std::string FinalCheck(pip::server::Client* control,
                                 uint64_t acked_rows,
                                 uint64_t unknown_rows) {
    (void)control;
    (void)acked_rows;
    (void)unknown_rows;
    return "";
  }

  /// The workload's table whose rows the engine probe samples.
  virtual std::string MainTable() const = 0;
  /// The (expression, condition) calls its statements make per row of
  /// MainTable, for the isolated SamplingEngine probe.
  virtual std::vector<std::pair<pip::ExprPtr, pip::Condition>> EngineCalls(
      const pip::CTableRow& row, const pip::Schema& schema) const = 0;
  /// Typical parameters of each distribution family, for the isolated
  /// VariablePool::GenerateBatch probe.
  virtual std::vector<DrawSpec> DrawSpecs() const = 0;
};

/// The names above, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Configures `db` with the SamplingOptions that pip-server runs with
/// under `wl`'s --set flags, then runs its set-up statements on it, so an
/// in-process Database starts where the served one does.
pip::Status LoadInProcess(const Workload& wl, pip::Database* db);

/// Cell (row, col) of a table answer as a number; NaN when absent.
double CellNumber(const pip::server::WireResponse& r, size_t row, size_t col);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
