#include "servebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/sql/knobs.h"
#include "src/sql/session.h"
#include "src/workload/queries.h"
#include "src/workload/tpch.h"

namespace servebench {

using pip::server::WireResponse;

namespace {

// Answers are checked at this many standard errors of their closed form:
// loose enough that a correct engine never trips it at any seed, tight
// enough that a 20% error in an aggregate does.
constexpr double kAggregateSigmas = 6.0;
// Single-row answers average fewer, skewed draws; give them more room.
constexpr double kRowSigmas = 8.0;
// Skew of per-key lookups: YCSB's default Zipfian constant (Cooper et
// al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
constexpr double kZipfSkew = 0.99;

// Parameters go over the wire as %.4f text; the closed forms use the
// value that text parses back to, which is what the server sees.
double Round4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return std::strtod(buf, nullptr);
}

std::string F4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

size_t Col(const pip::Schema& schema, const char* name) {
  auto idx = schema.IndexOf(name);
  PIP_CHECK_MSG(idx.ok(), std::string("missing column ") + name);
  return idx.value();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Zipf(s) over ranks 0..n-1, mapped to keys through a seeded
/// permutation so the hot keys differ between seeds.
class ZipfKeys {
 public:
  ZipfKeys(size_t n, double s, BenchRng* rng) : cdf_(n), keys_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (size_t k = 0; k < n; ++k) keys_[k] = k;
    for (size_t k = n; k > 1; --k) std::swap(keys_[k - 1], keys_[rng->Below(k)]);
  }
  size_t Draw(BenchRng* rng) const {
    const double u = rng->Uniform();
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return keys_[std::min(r, keys_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> keys_;
};

std::string ExpectShape(const WireResponse& r, WireResponse::Kind kind,
                        size_t rows) {
  if (r.kind != kind) return "unexpected response kind";
  if (r.rows.size() != rows) {
    return "expected " + std::to_string(rows) + " rows, got " +
           std::to_string(r.rows.size());
  }
  return "";
}

std::string ExpectAck(const WireResponse& r, size_t rows) {
  const std::string want = "INSERT " + std::to_string(rows);
  if (r.kind != WireResponse::Kind::kAck || r.message != want) {
    return "expected ACK '" + want + "', got '" + r.message + "'";
  }
  return "";
}

std::string ExpectValue(const char* what, const Expected& e, double got) {
  if (Accepts(e, got)) return "";
  return std::string(what) + " " + Fmt("%.10g", got) + " outside " +
         Describe(e);
}

/// A per-row `key, expectation(...), conf()` answer for one row whose
/// unconditioned product has mean `mean` and variance `var`.
std::string CheckRowExpectation(const WireResponse& r, double mean, double var,
                                size_t samples) {
  std::string err = ExpectShape(r, WireResponse::Kind::kTable, 1);
  if (!err.empty()) return err;
  if (CellNumber(r, 0, 2) != 1.0) return "conf() of an unconditioned row != 1";
  return ExpectValue(
      "expectation",
      AroundClosedForm(mean, std::sqrt(var / samples), kRowSigmas),
      CellNumber(r, 0, 1));
}

// ---------------------------------------------------------------------------
// point_lookup
// ---------------------------------------------------------------------------

/// Per-key lookups on obs(key, x ~ Normal, y ~ Exponential). Engine work
/// per statement is far below a millisecond, so frame I/O, parsing,
/// admission classification, selection, session set-up and index lookups
/// dominate.
class PointLookup : public Workload {
 public:
  static constexpr size_t kRows = 1000;
  static constexpr size_t kSamples = 1000;
  static constexpr int kConnections = 4;

  explicit PointLookup(uint64_t seed) : rng_(seed) {
    for (size_t k = 0; k < kRows; ++k) {
      mu_.push_back(Round4(rng_.Uniform(1.0, 10.0)));
      sd_.push_back(Round4(rng_.Uniform(0.5, 3.0)));
      rate_.push_back(Round4(rng_.Uniform(0.5, 2.0)));
    }
    zipf_ = std::make_unique<ZipfKeys>(kRows, kZipfSkew, &rng_);
    for (int c = 0; c < kConnections; ++c) {
      conns_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + 101 + c);
    }
  }

  int connections() const override { return kConnections; }
  std::vector<std::string> ServerFlags() const override {
    return {"--set", "FIXED_SAMPLES=" + std::to_string(kSamples)};
  }
  std::vector<std::string> SetupStatements() const override {
    std::vector<std::string> out = {"CREATE TABLE obs (key, x, y)"};
    for (size_t b = 0; b < kRows; b += 100) {
      std::string s = "INSERT INTO obs VALUES ";
      for (size_t k = b; k < b + 100; ++k) {
        if (k > b) s += ", ";
        s += "(" + std::to_string(k) + ", Normal(" + F4(mu_[k]) + ", " +
             F4(sd_[k]) + "), Exponential(" + F4(rate_[k]) + "))";
      }
      out.push_back(std::move(s));
    }
    for (int c = 0; c < kConnections; ++c) {
      out.push_back("CREATE TABLE log_" + std::to_string(c) + " (id, v)");
    }
    return out;
  }

  Stmt Next(int conn, int64_t) override {
    Conn& c = conns_[conn];
    Stmt s;
    if (c.until_reconnect == 0) {
      c.until_reconnect = 24 + c.rng.Below(25);
      s.reconnect_first = c.issued > 0;
    }
    --c.until_reconnect;
    ++c.issued;
    const double u = c.rng.Uniform();
    const size_t k = zipf_->Draw(&c.rng);
    const std::string key = std::to_string(k);
    if (u < 0.8) {
      s.cls = StmtClass::kSample;
      s.deterministic = true;
      s.text = "SELECT key, expectation(x * y), conf() FROM obs WHERE key = " +
               key;
      const double m2 = mu_[k] * mu_[k] + sd_[k] * sd_[k];
      const double ey = 1.0 / rate_[k];
      const double mean = mu_[k] * ey;
      const double var = m2 * 2.0 * ey * ey - mean * mean;
      s.check = [mean, var](const WireResponse& r) {
        return CheckRowExpectation(r, mean, var, kSamples);
      };
    } else if (u < 0.9) {
      s.cls = StmtClass::kSymbolic;
      s.deterministic = true;
      s.text = "SELECT * FROM obs WHERE key = " + key;
      s.check = [](const WireResponse& r) {
        return ExpectShape(r, WireResponse::Kind::kCTable, 1);
      };
    } else {
      s.cls = StmtClass::kWrite;
      s.text = "INSERT INTO log_" + std::to_string(conn) + " VALUES (" +
               std::to_string(c.issued) + ", Normal(" +
               F4(c.rng.Uniform(0, 10)) + ", 1))";
      s.check = [](const WireResponse& r) { return ExpectAck(r, 1); };
    }
    return s;
  }

  std::string MainTable() const override { return "obs"; }
  std::vector<std::pair<pip::ExprPtr, pip::Condition>> EngineCalls(
      const pip::CTableRow& row, const pip::Schema& schema) const override {
    return {{row.cells[Col(schema, "x")] * row.cells[Col(schema, "y")],
             row.condition}};
  }
  std::vector<DrawSpec> DrawSpecs() const override {
    return {{"Normal", {Median(mu_), Median(sd_)}},
            {"Exponential", {Median(rate_)}},
            {"Poisson", {5.0}}};
  }

 private:
  struct Conn {
    explicit Conn(uint64_t seed) : rng(seed) {}
    BenchRng rng;
    uint64_t issued = 0;
    uint64_t until_reconnect = 0;
  };
  BenchRng rng_;
  std::vector<double> mu_, sd_, rate_;
  std::unique_ptr<ZipfKeys> zipf_;
  std::vector<Conn> conns_;
};

// ---------------------------------------------------------------------------
// mc_analytic
// ---------------------------------------------------------------------------

/// The paper's query shapes over part(partkey, price, demand ~ Poisson,
/// pop ~ Exponential(1), supply ~ Exponential(rate)) from
/// workload::GenerateTpch. Each statement carries a seeded constant, so
/// it misses the result index while its plan shape repeats; nearly all
/// time goes to Monte Carlo draws, rejection, chunk folds and pool
/// fan-out.
class McAnalytic : public Workload {
 public:
  static constexpr size_t kParts = 1000;
  static constexpr size_t kSamples = 200;

  explicit McAnalytic(uint64_t seed) : rng_(seed) {
    pip::workload::TpchConfig config;
    config.seed = seed;
    config.num_parts = kParts;
    config.num_customers = 1;
    const pip::workload::TpchData data = pip::workload::GenerateTpch(config);
    for (const auto& row : data.part.rows()) {
      Part p;
      p.price = Round4(row[2].double_value());
      p.lambda = Round4(row[3].double_value());
      // Supply rates put P[demand > supply] between 5% and 30%.
      p.rate = Round4(pip::workload::Q5SupplyRate(p.lambda,
                                                  rng_.Uniform(0.05, 0.3)));
      p.q5_sel = pip::workload::Q5Selectivity(p.lambda, p.rate);
      p.q5_short = pip::workload::Q5ConditionalShortfall(p.lambda, p.rate);
      parts_.push_back(p);
    }
  }

  int connections() const override { return 1; }
  // Ad hoc statements never repeat, so the result index only grows; a
  // 4 MiB budget reaches its steady state (with evictions) during the
  // first dozen statements instead of tracking how many ran.
  std::vector<std::string> ServerFlags() const override {
    return {"--set", "FIXED_SAMPLES=" + std::to_string(kSamples), "--set",
            "INDEX_MEMORY_BUDGET=4194304"};
  }
  std::vector<std::string> SetupStatements() const override {
    std::vector<std::string> out = {
        "CREATE TABLE part (partkey, price, demand, pop, supply)",
        "CREATE TABLE notes (id, v)"};
    for (size_t b = 0; b < parts_.size(); b += 100) {
      std::string s = "INSERT INTO part VALUES ";
      for (size_t k = b; k < std::min(parts_.size(), b + 100); ++k) {
        const Part& p = parts_[k];
        if (k > b) s += ", ";
        s += "(" + std::to_string(k) + ", " + F4(p.price) + ", Poisson(" +
             F4(p.lambda) + "), Exponential(1), Exponential(" + F4(p.rate) +
             "))";
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  // One cycle of nine statements: three Q5, two Q4, one each of Q1, the
  // per-row expectation, a symbolic peek and a side-table write. The weights
  // keep the overall and sampling medians inside one statement shape
  // rather than on the boundary between two.
  Stmt Next(int, int64_t) override {
    static constexpr char kCycle[] = "51S4P5W45";
    const char shape = kCycle[issued_ % (sizeof(kCycle) - 1)];
    ++issued_;
    Stmt s;
    s.cls = StmtClass::kSample;
    s.deterministic = true;
    const double n = static_cast<double>(kSamples);
    switch (shape) {
      case '1': {  // Q1: expected revenue.
        const double c = Round4(rng_.Uniform(0.5, 2.0));
        s.text = "SELECT expected_sum(demand * price * " + F4(c) +
                 ") FROM part";
        double mean = 0, var = 0;
        for (const Part& p : parts_) {
          mean += c * p.lambda * p.price;
          var += c * c * p.price * p.price * p.lambda;
        }
        s.check = ScalarCheck(
            "Q1", AroundClosedForm(mean, std::sqrt(var / n), kAggregateSigmas));
        break;
      }
      case '4': {  // Q4: demand under extreme popularity.
        const double t = Round4(rng_.Uniform(0.5, 2.5));
        s.text = "SELECT expected_sum(demand * pop) FROM part WHERE pop > " +
                 F4(t);
        // pop | pop > T is T + Exponential(1); demand is independent.
        const double tail = std::exp(-t);
        const double e_pop = t + 1.0, e_pop2 = e_pop * e_pop + 1.0;
        double mean = 0, var = 0;
        for (const Part& p : parts_) {
          mean += tail * p.lambda * e_pop;
          var += tail * tail *
                 ((p.lambda + p.lambda * p.lambda) * e_pop2 -
                  p.lambda * p.lambda * e_pop * e_pop);
        }
        s.check = ScalarCheck(
            "Q4", AroundClosedForm(mean, std::sqrt(var / n), kAggregateSigmas));
        break;
      }
      case '5': {  // Q5: underproduction where demand exceeds supply.
        const double c = Round4(rng_.Uniform(0.5, 2.0));
        s.text = "SELECT expected_sum((demand - supply) * " + F4(c) +
                 ") FROM part WHERE demand > supply";
        // Per row the engine multiplies a conditional mean over n
        // accepted draws by an acceptance rate over at least n attempts.
        // E[X^2 | D > S] <= E[D^2] / P, which bounds both variance terms.
        double mean = 0, var = 0;
        for (const Part& p : parts_) {
          const double pr = p.q5_sel, sh = c * p.q5_short;
          mean += pr * sh;
          var += pr * c * c * (p.lambda + p.lambda * p.lambda) + pr * sh * sh;
        }
        s.check = ScalarCheck(
            "Q5", AroundClosedForm(mean, std::sqrt(var / n), kAggregateSigmas));
        break;
      }
      case 'P': {  // Per-row expectation over the whole table.
        const double c = Round4(rng_.Uniform(0.5, 2.0));
        s.text = "SELECT partkey, expectation(demand * pop * " + F4(c) +
                 "), conf() FROM part";
        // Var(D * P) = E[D^2] E[P^2] - (E[D] E[P])^2 = 2(l + l^2) - l^2.
        double mean = 0, var = 0;
        for (const Part& p : parts_) {
          mean += c * p.lambda;
          var += c * c * (2.0 * p.lambda + p.lambda * p.lambda);
        }
        const Expected e =
            AroundClosedForm(mean, std::sqrt(var / n), kAggregateSigmas);
        const size_t rows = parts_.size();
        s.check = [e, rows](const WireResponse& r) {
          std::string err = ExpectShape(r, WireResponse::Kind::kTable, rows);
          if (!err.empty()) return err;
          double sum = 0;
          for (size_t i = 0; i < rows; ++i) {
            if (CellNumber(r, i, 2) != 1.0) return std::string("conf() != 1");
            sum += CellNumber(r, i, 1);
          }
          return ExpectValue("sum of per-row expectations", e, sum);
        };
        break;
      }
      case 'S': {
        s.cls = StmtClass::kSymbolic;
        s.text = "SELECT * FROM part WHERE partkey = " +
                 std::to_string(rng_.Below(parts_.size()));
        s.check = [](const WireResponse& r) {
          return ExpectShape(r, WireResponse::Kind::kCTable, 1);
        };
        break;
      }
      default: {
        s.cls = StmtClass::kWrite;
        s.deterministic = false;
        s.text = "INSERT INTO notes VALUES (" + std::to_string(issued_) +
                 ", Normal(" + F4(rng_.Uniform(0, 10)) + ", 1))";
        s.check = [](const WireResponse& r) { return ExpectAck(r, 1); };
        break;
      }
    }
    return s;
  }

  std::string MainTable() const override { return "part"; }
  std::vector<std::pair<pip::ExprPtr, pip::Condition>> EngineCalls(
      const pip::CTableRow& row, const pip::Schema& schema) const override {
    const pip::ExprPtr demand = row.cells[Col(schema, "demand")];
    const pip::ExprPtr pop = row.cells[Col(schema, "pop")];
    const pip::ExprPtr supply = row.cells[Col(schema, "supply")];
    pip::Condition q4 = row.condition;
    q4.AddAtom(pop > pip::Expr::Constant(1.5));
    pip::Condition q5 = row.condition;
    q5.AddAtom(demand > supply);
    return {{demand * pop, q4}, {demand - supply, q5}};
  }
  std::vector<DrawSpec> DrawSpecs() const override {
    std::vector<double> lambdas, rates;
    for (const Part& p : parts_) {
      lambdas.push_back(p.lambda);
      rates.push_back(p.rate);
    }
    return {{"Poisson", {Median(lambdas)}},
            {"Exponential", {Median(rates)}},
            {"Normal", {0.0, 1.0}}};
  }

 private:
  struct Part {
    double price = 0, lambda = 0, rate = 0;
    double q5_sel = 0, q5_short = 0;
  };

  static std::function<std::string(const WireResponse&)> ScalarCheck(
      const char* what, Expected e) {
    return [what, e](const WireResponse& r) {
      std::string err = ExpectShape(r, WireResponse::Kind::kTable, 1);
      if (!err.empty()) return err;
      return ExpectValue(what, e, CellNumber(r, 0, 0));
    };
  }

  BenchRng rng_;
  std::vector<Part> parts_;
  uint64_t issued_ = 0;
};

// ---------------------------------------------------------------------------
// ingest_rw
// ---------------------------------------------------------------------------

/// Two writers append small batches to events(key, v ~ Normal,
/// w ~ Poisson) and read back rows they appended, while two readers sweep
/// the table and look up its seeded rows. Every INSERT copies the table
/// and purges its index entries, the opposite use of catalogue and index
/// to point_lookup.
///
/// Appends are paced: a writer sends at most one per kAppendPeriodNs on
/// average and reads back between them, so the table grows by the same
/// number of rows in a run however fast the server is, and the work per
/// read does not depend on throughput.
class IngestRw : public Workload {
 public:
  static constexpr size_t kRows = 2000;
  // Keeps a sweep's sampling small next to the round trip, so a host that
  // slows down moves the read figures little.
  static constexpr size_t kSamples = 50;
  static constexpr int kWriters = 2;
  static constexpr int kConnections = 4;
  static constexpr int64_t kAppendPeriodNs = 150'000'000;

  explicit IngestRw(uint64_t seed) : rng_(seed) {
    for (size_t k = 0; k < kRows; ++k) {
      rows_.push_back(MakeRow(&rng_));
      seeded_mean_ += rows_.back().mean;
      seeded_var_ += rows_.back().var;
    }
    zipf_ = std::make_unique<ZipfKeys>(kRows, kZipfSkew, &rng_);
    for (int c = 0; c < kConnections; ++c) {
      conns_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + 211 + c,
                          seed * 0x9e3779b97f4a7c15ULL + 311 + c);
    }
  }

  int connections() const override { return kConnections; }
  std::vector<std::string> ServerFlags() const override {
    // Weight units are ~1000 draws; every sampling statement on events is
    // weighed by the whole table, so this capacity admits one at a time.
    const size_t weight = kRows * kSamples / 1000;
    return {"--set", "FIXED_SAMPLES=" + std::to_string(kSamples),
            "--max-sampling", std::to_string(weight + weight / 2)};
  }
  std::vector<std::string> SetupStatements() const override {
    std::vector<std::string> out = {"CREATE TABLE events (key, v, w)"};
    for (size_t b = 0; b < kRows; b += 200) {
      std::string s = "INSERT INTO events VALUES ";
      for (size_t k = b; k < b + 200; ++k) {
        if (k > b) s += ", ";
        s += Values(k, rows_[k]);
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  Stmt Next(int conn, int64_t now_ns) override {
    Conn& c = conns_[conn];
    Stmt s;
    if (conn < kWriters && now_ns < c.next_append_ns) {
      // Read back a row this writer appended (a seeded row before its
      // first append is acknowledged). Concurrent writers allocate
      // variables in a different order on the server and on the shadow,
      // so the symbolic rendering is checked for shape, not compared.
      const uint64_t key =
          c.acked_keys.empty() ? zipf_->Draw(&c.rng)
                               : c.acked_keys[c.rng.Below(c.acked_keys.size())];
      s.cls = StmtClass::kSymbolic;
      s.text = "SELECT * FROM events WHERE key = " + std::to_string(key);
      s.check = [](const WireResponse& r) {
        return ExpectShape(r, WireResponse::Kind::kCTable, 1);
      };
      return s;
    }
    if (conn < kWriters) {
      // Slots follow the first append, one period apart; a writer that
      // falls behind catches up, so appends never exceed one per period
      // on average.
      c.next_append_ns =
          (c.appends == 0 ? now_ns : c.next_append_ns) + kAppendPeriodNs;
      ++c.appends;
      const size_t batch = 1 + c.append_rng.Below(2);
      s.cls = StmtClass::kWrite;
      s.appended_rows = batch;
      s.text = "INSERT INTO events VALUES ";
      double mean = 0, var = 0;
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < batch; ++i) {
        const Row row = MakeRow(&c.append_rng);
        const uint64_t key = kRows + (conn + 1) * 1000000ULL + c.appends * 4 + i;
        keys.push_back(key);
        if (i > 0) s.text += ", ";
        s.text += Values(key, row);
        mean += row.mean;
        var += row.var;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        sent_mean_ += mean;
        sent_var_ += var;
      }
      s.check = [this, &c, batch, mean, keys](const WireResponse& r) {
        std::string err = ExpectAck(r, batch);
        if (err.empty()) {
          c.acked_keys.insert(c.acked_keys.end(), keys.begin(), keys.end());
          std::lock_guard<std::mutex> lock(mu_);
          acked_mean_ += mean;
        }
        return err;
      };
      return s;
    }
    if (c.rng.Uniform() < 0.6) {
      s.cls = StmtClass::kSample;
      s.text = "SELECT expected_sum(v * w) FROM events";
      // The table holds every row acknowledged before this statement was
      // sent and no row sent after its answer arrived.
      double lo;
      {
        std::lock_guard<std::mutex> lock(mu_);
        lo = seeded_mean_ + acked_mean_;
      }
      s.check = [this, lo](const WireResponse& r) {
        std::string err = ExpectShape(r, WireResponse::Kind::kTable, 1);
        if (!err.empty()) return err;
        double hi, var;
        {
          std::lock_guard<std::mutex> lock(mu_);
          hi = seeded_mean_ + sent_mean_;
          var = seeded_var_ + sent_var_;
        }
        const double half = kAggregateSigmas * std::sqrt(var / kSamples);
        return ExpectValue("expected_sum(v * w)",
                           Expected{lo - half, hi + half}, CellNumber(r, 0, 0));
      };
      return s;
    }
    const size_t k = zipf_->Draw(&c.rng);
    s.cls = StmtClass::kSample;
    s.deterministic = true;
    s.text = "SELECT key, expectation(v * w), conf() FROM events WHERE key = " +
             std::to_string(k);
    const Row row = rows_[k];
    s.check = [row](const WireResponse& r) {
      return CheckRowExpectation(r, row.mean, row.var, kSamples);
    };
    return s;
  }

  std::string FinalCheck(pip::server::Client* control, uint64_t acked_rows,
                         uint64_t unknown_rows) override {
    auto r = control->Execute("SELECT key FROM events");
    if (!r.ok()) return "row count query failed: " + r.status().ToString();
    if (!r.value().ok()) return "row count query failed: " + r.value().message;
    const uint64_t rows = r.value().rows.size();
    const uint64_t lo = kRows + acked_rows, hi = lo + unknown_rows;
    if (rows < lo || rows > hi) {
      return "events holds " + std::to_string(rows) + " rows; seeded " +
             std::to_string(kRows) + " + acknowledged " +
             std::to_string(acked_rows) + " (+ " +
             std::to_string(unknown_rows) + " unknown)";
    }
    return "";
  }

  std::string MainTable() const override { return "events"; }
  std::vector<std::pair<pip::ExprPtr, pip::Condition>> EngineCalls(
      const pip::CTableRow& row, const pip::Schema& schema) const override {
    return {{row.cells[Col(schema, "v")] * row.cells[Col(schema, "w")],
             row.condition}};
  }
  std::vector<DrawSpec> DrawSpecs() const override {
    std::vector<double> mu, sd, lambda;
    for (const Row& r : rows_) {
      mu.push_back(r.mu);
      sd.push_back(r.sd);
      lambda.push_back(r.lambda);
    }
    return {{"Normal", {Median(mu), Median(sd)}},
            {"Poisson", {Median(lambda)}},
            {"Exponential", {1.0}}};
  }

 private:
  struct Row {
    double mu = 0, sd = 0, lambda = 0;
    double mean = 0, var = 0;  ///< Of v * w.
  };
  struct Conn {
    Conn(uint64_t seed, uint64_t append_seed) : rng(seed), append_rng(append_seed) {}
    BenchRng rng;         ///< Which statement, which key.
    BenchRng append_rng;  ///< The rows a writer appends.
    uint64_t appends = 0;
    int64_t next_append_ns = 0;
    std::vector<uint64_t> acked_keys;  ///< Rows this writer appended.
  };

  static Row MakeRow(BenchRng* rng) {
    Row r;
    r.mu = Round4(rng->Uniform(1.0, 5.0));
    r.sd = Round4(rng->Uniform(0.5, 2.0));
    r.lambda = Round4(rng->Uniform(2.0, 8.0));
    r.mean = r.mu * r.lambda;
    r.var = (r.mu * r.mu + r.sd * r.sd) * (r.lambda + r.lambda * r.lambda) -
            r.mean * r.mean;
    return r;
  }
  static std::string Values(uint64_t key, const Row& r) {
    return "(" + std::to_string(key) + ", Normal(" + F4(r.mu) + ", " +
           F4(r.sd) + "), Poisson(" + F4(r.lambda) + "))";
  }

  BenchRng rng_;
  std::vector<Row> rows_;
  double seeded_mean_ = 0, seeded_var_ = 0;
  std::unique_ptr<ZipfKeys> zipf_;
  std::vector<Conn> conns_;

  std::mutex mu_;
  double sent_mean_ = 0, sent_var_ = 0;  // Guarded by mu_.
  double acked_mean_ = 0;                // Guarded by mu_.
};

}  // namespace

uint64_t BenchRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double BenchRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

const char* ClassName(StmtClass cls) {
  switch (cls) {
    case StmtClass::kSample:
      return "sample";
    case StmtClass::kSymbolic:
      return "symbolic";
    case StmtClass::kWrite:
      return "write";
  }
  return "?";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"point_lookup", "mc_analytic",
                                                 "ingest_rw"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "point_lookup") return std::make_unique<PointLookup>(seed);
  if (name == "mc_analytic") return std::make_unique<McAnalytic>(seed);
  if (name == "ingest_rw") return std::make_unique<IngestRw>(seed);
  return nullptr;
}

pip::Status LoadInProcess(const Workload& wl, pip::Database* db) {
  pip::SamplingOptions defaults;
  const std::vector<std::string> flags = wl.ServerFlags();
  for (size_t i = 0; i + 1 < flags.size(); ++i) {
    if (flags[i] == "--set") {
      PIP_RETURN_IF_ERROR(pip::sql::SetKnobFromSpec(&defaults, flags[i + 1]));
    }
  }
  db->set_default_options(defaults);
  pip::sql::Session loader(db);
  for (const std::string& s : wl.SetupStatements()) {
    pip::sql::SqlResult r = loader.Execute(s);
    if (!r.ok()) return pip::Status::Internal("set-up failed: " + r.ToString());
  }
  return pip::Status::OK();
}

double CellNumber(const WireResponse& r, size_t row, size_t col) {
  if (row >= r.rows.size() || col >= r.rows[row].size()) return NAN;
  const std::string& cell = r.rows[row][col];
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  return end != cell.c_str() && *end == '\0' ? v : NAN;
}

}  // namespace servebench
