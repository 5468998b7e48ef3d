#include "phase.h"

#include <cstring>

namespace perfbench {

void fill_random(std::span<std::uint8_t> out, rpr::util::Xoshiro256& rng) {
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(rng());
}

double span_median_us(const Tracer& tracer, const char* name) {
  return quantile(tracer.durations(name), 0.5) * 1e6;
}

void report_overhead(Report& report, const char* name,
                     const Samples& untraced, const Samples& traced) {
  const double base = untraced.quantile(0.5);
  report.set(name, (traced.quantile(0.5) - base) / base, "frac");
}

}  // namespace perfbench
