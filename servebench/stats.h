/// \file stats.h
/// \brief Order statistics, span self time and tolerance checks of the
/// served-SQL benchmark.
///
/// Kept free of engine types so the rules the benchmark reports by (the
/// tail-percentile cut, self time from nested spans, closed-form
/// acceptance) are testable on their own.

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

/// Linear-interpolation quantile (q in [0, 1]) of unsorted `values`;
/// 0 for an empty input.
double Quantile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// \brief The highest percentile with at least `min_beyond` samples
/// strictly above it.
struct TailCut {
  double value = 0;       ///< The latency at the cut.
  double percentile = 0;  ///< 100 x share of samples <= value.
  size_t beyond = 0;      ///< Samples strictly above the cut.
  size_t samples = 0;     ///< Sample count the cut was taken over.
};

/// nullopt when no sample has `min_beyond` samples strictly above it
/// (too few samples, or too many ties at the top).
std::optional<TailCut> TailPercentile(std::vector<double> values,
                                      size_t min_beyond = 10);

/// \brief One traced interval. Spans of one statement share `trace`;
/// `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval that its children's intervals cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// \brief An answer's closed form and the tolerance its sample count
/// allows.
struct Expected {
  double lo = 0;  ///< Lowest acceptable answer.
  double hi = 0;  ///< Highest acceptable answer.
};

/// [center - k * stderr, center + k * stderr], with a relative floor so
/// exactly integrated answers keep a rounding margin.
Expected AroundClosedForm(double center, double stderr_of_estimate,
                          double k_sigma);

bool Accepts(const Expected& e, double observed);

std::string Describe(const Expected& e);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
