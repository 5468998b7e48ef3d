// One closed-loop measurement phase of a benchmark run.
//
// A phase is constructed by its set-up (inputs generated from the seed,
// encoded, engines started, one untimed warm-up op of each kind), then
// stepped by the runner — one client thread, one operation in flight — until
// its time share is spent and every latency metric has the samples its name
// promises. Ops recorded while the tracer is on land in the traced sample
// sets, which feed only the per-layer rows and the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Fills `out` with the generator's output bytes.
void fill_random(std::span<std::uint8_t> out, rpr::util::Xoshiro256& rng);

/// Median of the durations of every span called `name`, in microseconds.
[[nodiscard]] double span_median_us(const Tracer& tracer, const char* name);

/// Reports (traced p50 - untraced p50) / untraced p50 under `name`.
void report_overhead(Report& report, const char* name,
                     const Samples& untraced, const Samples& traced);

class Phase {
 public:
  virtual ~Phase() = default;

  /// Runs one closed-loop step (one or a few timed ops), counting each op
  /// in `report` and recording spans when `tracer` is on.
  virtual void step(Tracer& tracer, Report& report) = 0;
  /// True while some latency metric still lacks the samples it needs.
  [[nodiscard]] virtual bool needs_samples() const = 0;
  /// Adds this phase's end-to-end metrics (untraced samples only).
  virtual void report_end_to_end(Report& report) const = 0;
  /// Adds this phase's per-layer metrics after a traced run.
  virtual void report_layers(const Tracer& tracer, Report& report) const = 0;
};

}  // namespace perfbench
