#include "sample_stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace perfbench {

std::size_t NearestRank(std::size_t n, double q) {
  AER_CHECK_GT(n, 0u);
  AER_CHECK(q > 0.0 && q <= 1.0);
  // The epsilon keeps q·n that is integral in exact arithmetic (0.999·1000)
  // from rounding up to the next rank.
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-6));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t TailCount(std::size_t n, double q) {
  return n - NearestRank(n, q);
}

double Median(std::vector<double> samples) {
  AER_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double PoolIdleRatio(double busy_s, int slots, double wall_s) {
  AER_CHECK_GT(slots, 0);
  AER_CHECK_GT(wall_s, 0.0);
  return 1.0 - busy_s / (static_cast<double>(slots) * wall_s);
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  AER_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  AER_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
