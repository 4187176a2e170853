// stats.hpp — the benchmark's summary statistics.
//
// Every timing the benchmark reports is a median or a tail percentile of
// the raw per-op samples, with the sample count beside it.  The tail is
// "the highest percentile the sample supports": the nearest-rank
// percentile p (capped at the requested target) that still leaves at least
// `min_beyond` samples strictly above its rank, so a p99 from 300 samples
// honestly becomes a p96.7 instead of the second-largest value.
#pragma once
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + n / 2);
  return (lo + hi) / 2.0;
}

// Quartiles with Python's statistics.quantiles(v, n=4) ("exclusive"
// method), so the benchmark and any script that rereads its samples agree.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

struct TailPercentile {
  double p = 0;            // the percentile actually reported, in (0, 1)
  double value = 0;        // nearest-rank value at p
  std::size_t samples = 0; // sample count behind it
  std::size_t beyond = 0;  // samples strictly above the reported rank
};

// 1-based nearest rank of quantile p in n samples: ceil(p * n), in [1, n].
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

// The highest percentile <= target with at least `min_beyond` samples
// beyond its rank.  With n samples that is p = min(target, (n - k) / n);
// below 2k samples no tail is supported and the median stands in (p = 0.5,
// value = median(v)).
inline TailPercentile tail_percentile(std::vector<double> v,
                                      double target = 0.99,
                                      std::size_t min_beyond = 10) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  double p = 0.5;
  if (n >= 2 * min_beyond)
    p = std::min(target, static_cast<double>(n - min_beyond) /
                             static_cast<double>(n));
  TailPercentile t;
  t.p = p;
  t.samples = n;
  const std::size_t rank = nearest_rank(n, p);
  t.value = n >= 2 * min_beyond ? v[rank - 1] : median(v);
  t.beyond = n - rank;
  return t;
}

// Quantile q of a telemetry histogram (bucket i counts values in
// (bounds[i-1], bounds[i]]; the last bucket is overflow), interpolated
// linearly inside the bucket that holds the q-th observation.  Returns the
// last finite bound for an overflow hit and 0 for an empty histogram.
inline double histogram_quantile(const std::vector<double>& bounds,
                                 const std::vector<std::uint64_t>& buckets,
                                 double q) {
  std::uint64_t total = 0;
  for (const auto c : buckets) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(total);
  double cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double c = static_cast<double>(buckets[i]);
    if (cum + c >= target && c > 0) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      return lo + (hi - lo) * (target - cum) / c;
    }
    cum += c;
  }
  return bounds.back();
}

}  // namespace perfbench
