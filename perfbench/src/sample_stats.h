// Small statistics the benchmark reports: medians, nearest-rank
// percentiles with their tail counts, process CPU and peak memory.
#ifndef PERFBENCH_SAMPLE_STATS_H_
#define PERFBENCH_SAMPLE_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// 1-based nearest rank of the q-percentile among n samples: the smallest
// rank with at least q·n samples at or below it. `q` in (0, 1]; n > 0.
std::size_t NearestRank(std::size_t n, double q);

// The nearest-rank q-percentile of `samples` (non-empty; reordered).
template <typename T>
double Percentile(std::vector<T>& samples, double q) {
  const auto nth = samples.begin() +
                   static_cast<std::ptrdiff_t>(NearestRank(samples.size(), q) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

// Number of samples strictly past the nearest-rank q-percentile position,
// i.e. n - ceil(q·n). The benchmark reports a percentile only when this is
// at least kMinTailSamples.
std::size_t TailCount(std::size_t n, double q);
inline constexpr std::size_t kMinTailSamples = 10;

// Median (mean of the two middle samples for even n). Non-empty input.
double Median(std::vector<double> samples);

// Share of the pool's execution slots left idle while training ran:
// 1 - busy / (slots · wall). `busy_s` is the summed duration of the
// per-type training calls; `slots` counts every thread that runs them.
double PoolIdleRatio(double busy_s, int slots, double wall_s);

// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

// Peak resident set of the process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLE_STATS_H_
