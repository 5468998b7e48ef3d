// The benchmark's own tests: percentile math, argument and environment
// checks, seeded determinism, output checking and the fleet anchor.
//
// Built by perfbench/CMakeLists.txt; run with `python3 perfbench/run.py
// --self-test`. Exits non-zero when any expectation fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.h"
#include "fleet_wave.h"
#include "stats.h"
#include "store_mix.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(nearest_rank(0.5, 100) == 50);
  EXPECT(nearest_rank(0.9, 100) == 90);
  EXPECT(nearest_rank(0.9, 101) == 91);
  EXPECT(nearest_rank(1.0, 7) == 7);
  EXPECT(nearest_rank(0.01, 7) == 1);
  EXPECT(quantile(v, 0.5) == 50.0);
  EXPECT(quantile(v, 0.9) == 90.0);
  EXPECT(quantile({3.0}, 0.9) == 3.0);
  EXPECT(std::isnan(quantile({}, 0.5)));

  // The >= 10-samples-beyond rule: p90 needs 100 samples, p99 needs 1000.
  EXPECT(tail_supported(0.9, 100));
  EXPECT(!tail_supported(0.9, 99));
  EXPECT(tail_supported(0.99, 1000));
  EXPECT(!tail_supported(0.99, 999));
  EXPECT(tail_supported(0.5, 20));
  EXPECT(!tail_supported(0.5, 19));
  EXPECT(!tail_supported(0.5, 0));

  // Failed ops are +inf: they count against every latency limit.
  Samples s;
  for (int i = 1; i <= 89; ++i) s.add(i);
  for (int i = 0; i < 11; ++i) s.add_failed();
  EXPECT(s.count() == 100);
  EXPECT(s.quantile(0.5) == 50.0);
  EXPECT(std::isinf(s.quantile(0.9)));
}

void test_cli() {
  std::string err;
  const auto parse = [&](std::vector<const char*> args) {
    return parse_args(args, err);
  };
  const auto ok = parse({"--workload", "data-loss", "--seed", "7",
                         "--seconds", "45", "--trace", "1"});
  EXPECT(ok && ok->workload == "data-loss" && ok->seed == 7 &&
         ok->seconds == 45.0 && ok->trace);
  EXPECT(!parse({"--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "-1", "--seconds", "1",
                 "--trace", "0"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1x", "--seconds", "1",
                 "--trace", "0"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1", "--seconds", "0",
                 "--trace", "0"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1", "--seconds",
                 "1.5", "--trace", "0"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1", "--seconds", "1",
                 "--trace", "2"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1", "--seconds", "1"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--bogus", "1"}));
  EXPECT(!parse({"--workload", "data-loss", "--seed", "1", "--seconds", "1",
                 "--trace"}));
  EXPECT(!parse({}));

  EXPECT(!first_pinned_env_var_set());
  ::setenv("RPR_THREADS", "2", 1);
  const auto var = first_pinned_env_var_set();
  EXPECT(var && *var == "RPR_THREADS");
  ::unsetenv("RPR_THREADS");
}

void test_store_mix_seeding_and_checks() {
  StoreMix a(5), b(5), c(6);
  EXPECT(a.live_object(0) == b.live_object(0));
  EXPECT(a.live_object(StoreMix::kLiveObjects - 1) ==
         b.live_object(StoreMix::kLiveObjects - 1));
  EXPECT(a.live_object(0) != c.live_object(0));

  // Same seed, same op sequence: one round attempts the same ops.
  Tracer off(false);
  Report ra, rb;
  a.step(off, ra);
  b.step(off, rb);
  EXPECT(ra.attempted == rb.attempted && ra.failed == 0 && rb.failed == 0);

  // A wrong byte in what the benchmark kept makes the reads of that object
  // fail; the run goes on and counts them.
  for (std::size_t i = 0; i < StoreMix::kLiveObjects; ++i) {
    auto& bytes = a.live_object(i);
    for (std::size_t off = StoreMix::kBlock / 2; off < bytes.size();
         off += StoreMix::kBlock) {
      bytes[off] ^= 0x01;
    }
  }
  Report rc;
  a.step(off, rc);
  EXPECT(rc.failed == StoreMix::kReadsPerRound);
  EXPECT(rc.attempted > rc.failed);
  EXPECT(!rc.correct);
}

void test_fleet_anchor_and_determinism() {
  const FleetWave fleet(1);
  const auto& anchor = fleet.anchor();
  // BENCH_fleet.json's share:0.25 row, to its printed digits.
  EXPECT(std::fabs(anchor.foreground_p99_s - FleetWave::kAnchorFgP99) < 5e-6);
  EXPECT(std::fabs(anchor.degraded_p50_s - FleetWave::kAnchorDegradedP50) <
         5e-6);
  EXPECT(std::fabs(anchor.last_commit_s - FleetWave::kAnchorLastCommit) <
         5e-5);
  EXPECT(fleet.anchor_matches());
  EXPECT(identical(fleet.run(FleetWave::kAnchorSeed, nullptr), anchor));
  EXPECT(!identical(fleet.run(FleetWave::kAnchorSeed + 1, nullptr), anchor));
}

}  // namespace

int main() {
  test_percentiles();
  test_cli();
  test_store_mix_seeding_and_checks();
  test_fleet_anchor_and_determinism();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::puts("perfbench_test: all expectations passed");
  return 0;
}
