// Benchmark program: one process, one workload, one result line.
//
// Usage and exit codes: 0 after a run (the last stdout line is the result
// JSON; failed operations are reported there, not by the exit code), 2 on a
// bad argument or a pinned environment variable that is set, 1 when set-up
// itself fails.
#include <cstdio>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "runner.h"
#include "gf/gf_region.h"
#include "util/thread_pool.h"

namespace {

// Static initialization runs before main: the nearest point to process
// start the program can observe.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto opts = perfbench::parse_args(
      std::span<const char* const>(argv + 1, static_cast<std::size_t>(argc - 1)),
      error);
  if (!opts) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "data-loss|parity-loss --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n",
                 error.c_str());
    return 2;
  }
  if (const auto var = perfbench::first_pinned_env_var_set()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; it changes the "
                 "program under test. Unset it and run again.\n",
                 var->c_str());
    return 2;
  }

  std::printf("# host: gf_tier=%s thread_pool=%zu nproc=%u build=%s\n",
              rpr::gf::tier_name(rpr::gf::active_tier()),
              rpr::util::ThreadPool::shared().size(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  std::printf("# run: workload=%s seed=%llu seconds=%.0f trace=%d\n",
              opts->workload.c_str(),
              static_cast<unsigned long long>(opts->seed), opts->seconds,
              opts->trace ? 1 : 0);
  std::fflush(stdout);

  try {
    const perfbench::Report report =
        perfbench::run_benchmark(*opts, kProcessStart, stdout);
    std::printf("# attempted=%zu failed=%zu\n", report.attempted,
                report.failed);
    std::printf("%s\n", report.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
