// The benchmark run: set-up, the closed-loop phases of the chosen workload,
// and the metrics of the result line.
#pragma once

#include <cstdio>

#include "cli.h"
#include "phase.h"
#include "report.h"

namespace perfbench {

/// Independent set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Runs `opts` end to end. `process_start` is when set-up began (the first
/// set-up is timed from it). Progress notes go to `log`.
[[nodiscard]] Report run_benchmark(const Options& opts,
                                   Clock::time_point process_start,
                                   std::FILE* log);

}  // namespace perfbench
