// The result line a benchmark run prints last on stdout:
//   {"correct": ..., "attempted": N, "failed": F,
//    "metrics": {"name": {"value": v, "unit": "u"}, ...}}
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Adds or overwrites a metric.
  void set(const std::string& name, double value, const std::string& unit);

  /// Counts one timed operation; a failed one also clears `correct`.
  void count_op(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }

  /// One JSON object on one line. Values print with 17 significant digits;
  /// a non-finite value (a tail made of failed ops) prints as the largest
  /// double so the line stays valid JSON.
  [[nodiscard]] std::string json() const;

  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
