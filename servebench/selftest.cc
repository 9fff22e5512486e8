/// \file selftest.cc
/// \brief Tests of the benchmark's own rules: the tail-percentile cut,
/// self time from nested spans, closed-form answer checks,
/// seed-determined inputs and paced appends.
///
/// Run: python3 servebench/run.py --selftest (or ctest in the build
/// directory). Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "servebench/stats.h"
#include "servebench/workloads.h"
#include "src/server/wire.h"
#include "src/sql/session.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void TailPercentileKeepsTenSamplesBeyondTheCut() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto cut = TailPercentile(v, 10);
  EXPECT(cut.has_value());
  EXPECT(cut->value == 90);
  EXPECT(cut->beyond == 10);
  EXPECT(cut->percentile == 90);

  // Eleven samples: the cut is the smallest, ten lie beyond it.
  std::vector<double> eleven(v.begin(), v.begin() + 11);
  cut = TailPercentile(eleven, 10);
  EXPECT(cut.has_value() && cut->value == 1 && cut->beyond == 10);

  // Ten samples cannot have ten beyond any of them.
  EXPECT(!TailPercentile(std::vector<double>(v.begin(), v.begin() + 10), 10));

  // Ties at the top move the cut down until ten samples exceed it.
  std::vector<double> tied(85, 1.0);
  tied.insert(tied.end(), 8, 5.0);
  tied.insert(tied.end(), 7, 9.0);
  cut = TailPercentile(tied, 10);
  EXPECT(cut.has_value() && cut->value == 1.0 && cut->beyond == 15);
  std::vector<double> flat(50, 3.0);
  EXPECT(!TailPercentile(flat, 10));
}

void SelfTimeSubtractsTheUnionOfChildren() {
  std::vector<Span> spans = {
      {1, 0, 7, "stmt", 0, 100},
      {2, 1, 7, "a", 10, 40},
      {3, 1, 7, "b", 30, 60},   // Overlaps a: counted once.
      {4, 2, 7, "a.inner", 15, 20},
      {5, 1, 7, "c", 90, 120},  // Clipped to the parent's interval.
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 30 - 5);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 5);
  EXPECT(self[4] == 30);
}

void ExpectedBoundsAreSymmetricWithAFloor() {
  Expected e = AroundClosedForm(100.0, 2.0, 3.0);
  EXPECT(Accepts(e, 105.9));
  EXPECT(!Accepts(e, 106.1));
  EXPECT(!Accepts(e, NAN));
  Expected exact = AroundClosedForm(5.0, 0.0, 6.0);
  EXPECT(Accepts(exact, 5.0));
  EXPECT(!Accepts(exact, 5.0001));
}

/// Runs one cycle of mc_analytic in-process and checks that every answer
/// passes its closed-form check, and that the same answer scaled by 1.2
/// fails it.
void ClosedFormChecksRejectPerturbedAnswers() {
  std::unique_ptr<Workload> wl = MakeWorkload("mc_analytic", 3);
  pip::Database db;
  EXPECT(LoadInProcess(*wl, &db).ok());
  pip::sql::Session session(&db);
  int perturbed_checks = 0;
  for (int i = 0; i < 9; ++i) {
    Stmt s = wl->Next(0, 0);
    auto answer = pip::server::DecodeResponse(
        pip::server::EncodeResponse(session.Execute(s.text), 0));
    EXPECT(answer.ok());
    if (!answer.ok() || !s.check) continue;
    const std::string verdict = s.check(answer.value());
    if (!verdict.empty()) std::fprintf(stderr, "%s\n", verdict.c_str());
    EXPECT(verdict.empty());
    if (s.cls != StmtClass::kSample) continue;
    pip::server::WireResponse wrong = answer.value();
    const size_t col = wrong.columns.size() == 1 ? 0 : 1;
    for (auto& row : wrong.rows) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", 1.2 * std::stod(row[col]));
      row[col] = buf;
    }
    EXPECT(!s.check(wrong).empty());
    ++perturbed_checks;
  }
  EXPECT(perturbed_checks == 7);
}

void SameSeedSameStatements() {
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> a = MakeWorkload(name, 11), b = MakeWorkload(name, 11),
                              c = MakeWorkload(name, 12);
    EXPECT(a->SetupStatements() == b->SetupStatements());
    EXPECT(a->SetupStatements() != c->SetupStatements());
    for (int i = 0; i < 50; ++i) {
      const int64_t now_ns = i * 150'000'000LL;
      for (int conn = 0; conn < a->connections(); ++conn) {
        EXPECT(a->Next(conn, now_ns).text == b->Next(conn, now_ns).text);
      }
    }
  }
}

/// ingest_rw appends by the clock, not by the statement rate: over the
/// same ten seconds a client 100x faster appends as often, so the table
/// grows by the same amount however fast the server answers.
void IngestRwPacesAppends() {
  auto appends_in_10s = [](int64_t step_ns) {
    std::unique_ptr<Workload> wl = MakeWorkload("ingest_rw", 5);
    size_t appends = 0;
    for (int64_t t = 0; t < 10'000'000'000LL; t += step_ns) {
      for (int conn = 0; conn < wl->connections(); ++conn) {
        if (wl->Next(conn, t).appended_rows > 0) ++appends;
      }
    }
    return appends;
  };
  const size_t slow = appends_in_10s(100'000'000), fast = appends_in_10s(1'000'000);
  EXPECT(slow == fast);
  EXPECT(slow == 2 * 67);  // Two writers, slots at 0, 0.15, ..., 9.9 s.
}

}  // namespace
}  // namespace servebench

int main() {
  using namespace servebench;
  TailPercentileKeepsTenSamplesBeyondTheCut();
  SelfTimeSubtractsTheUnionOfChildren();
  ExpectedBoundsAreSymmetricWithAFloor();
  SameSeedSameStatements();
  IngestRwPacesAppends();
  ClosedFormChecksRejectPerturbedAnswers();
  if (failures > 0) {
    std::fprintf(stderr, "servebench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("servebench_selftest: all checks passed\n");
  return 0;
}
