#include "servebench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace servebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<TailCut> TailPercentile(std::vector<double> values,
                                      size_t min_beyond) {
  const size_t n = values.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Walk down from the (min_beyond + 1)-th largest sample until enough
  // samples lie strictly above it; ties at the top push the cut lower.
  for (size_t i = n - min_beyond; i-- > 0;) {
    const size_t at_or_below = static_cast<size_t>(
        std::upper_bound(values.begin(), values.end(), values[i]) -
        values.begin());
    const size_t beyond = n - at_or_below;
    if (beyond >= min_beyond) {
      TailCut cut;
      cut.value = values[i];
      cut.beyond = beyond;
      cut.samples = n;
      cut.percentile =
          100.0 * static_cast<double>(at_or_below) / static_cast<double>(n);
      return cut;
    }
  }
  return std::nullopt;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    auto it = children.find(s.id);
    if (it == children.end()) {
      self[i] = duration;
      continue;
    }
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : it->second) {
      const int64_t b = std::max(spans[c].start_ns, s.start_ns);
      const int64_t e = std::min(spans[c].end_ns, s.end_ns);
      if (b < e) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : covered) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) union_ns += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) union_ns += cur_e - cur_b;
    self[i] = duration - union_ns;
  }
  return self;
}

Expected AroundClosedForm(double center, double stderr_of_estimate,
                          double k_sigma) {
  const double half =
      k_sigma * stderr_of_estimate + 1e-9 * std::max(1.0, std::fabs(center));
  return Expected{center - half, center + half};
}

bool Accepts(const Expected& e, double observed) {
  return std::isfinite(observed) && observed >= e.lo && observed <= e.hi;
}

std::string Describe(const Expected& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.10g, %.10g]", e.lo, e.hi);
  return buf;
}

}  // namespace servebench
