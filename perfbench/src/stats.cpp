#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearest_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(q, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

bool tail_supported(double q, std::size_t n) {
  return n > 0 && n - nearest_rank(q, n) >= kMinBeyond;
}

}  // namespace perfbench
