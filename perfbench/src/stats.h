// Sample statistics for the benchmark's latency metrics.
//
// Percentiles are nearest-rank over the raw samples (no interpolation, no
// histogram buckets): the q-th percentile of N samples is the value at
// 1-based rank ceil(q * N). A failed operation is recorded as +infinity, so
// it lands above every latency limit and can only push a percentile up.
//
// A tail percentile is reported only when at least kMinBeyond samples sit
// above its rank — p90 needs N >= 100, p99 needs N >= 1000 — so a tail
// never rests on a handful of values.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
[[nodiscard]] std::size_t nearest_rank(double q, std::size_t n);

/// Nearest-rank quantile of `samples` (unsorted); NaN when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// True when quantile q over n samples leaves >= kMinBeyond samples beyond.
[[nodiscard]] bool tail_supported(double q, std::size_t n);

/// Latencies of one operation type with one plan shape.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void add_failed() { values_.push_back(kFailed); }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double quantile(double q) const {
    return perfbench::quantile(values_, q);
  }

 private:
  std::vector<double> values_;
};

}  // namespace perfbench
