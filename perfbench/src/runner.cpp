#include "runner.h"

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ceilings.h"
#include "fleet_wave.h"
#include "repair_stream.h"
#include "store_mix.h"

namespace perfbench {

namespace {

constexpr std::size_t kSlice = 1 << 20;

/// Every workload runs all three phases, so every run reports every
/// end-to-end metric; the workloads differ in the block the repair-stream
/// phase loses. The shares of the measuring time (repair-stream, store-mix,
/// fleet-wave) follow what each phase needs for its sample counts: 100 TCP
/// repairs for the p90 with room to spare, 100 degraded reads, and the 16
/// seeded fleet draws beside as many anchor waves.
constexpr double kShares[] = {0.70, 0.05, 0.25};

/// One set-up: every phase built, its inputs generated, its warm-up done.
std::vector<std::unique_ptr<Phase>> make_phases(const Options& opts) {
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(std::make_unique<RepairStream>(
      opts.seed,
      opts.workload == "parity-loss" ? LossClass::kParity : LossClass::kData,
      kSlice, opts.trace));
  phases.push_back(std::make_unique<StoreMix>(opts.seed));
  phases.push_back(std::make_unique<FleetWave>(opts.seed));
  return phases;
}

/// Interleaves the phases' steps for `seconds`, always stepping the phase
/// furthest behind its share, so a burst of outside load lands on every
/// phase alike instead of on whichever ran at the time. An untraced run
/// keeps stepping the phases that still lack samples past the deadline (up
/// to `hard_stop`); a traced run spends the first half untraced and the
/// second half traced.
void run_phases(const std::vector<std::unique_ptr<Phase>>& phases,
                double seconds, bool traced_run, Clock::time_point hard_stop,
                Tracer& tracer, Report& report) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto half = start + (deadline - start) / 2;
  std::vector<double> busy(phases.size(), 0.0);
  for (;;) {
    const auto now = Clock::now();
    if (now >= hard_stop || (traced_run && now >= deadline)) break;
    tracer.set_enabled(traced_run && now >= half);
    std::size_t next = phases.size();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (now >= deadline && !phases[i]->needs_samples()) continue;
      if (next == phases.size() ||
          busy[i] / kShares[i] < busy[next] / kShares[next]) {
        next = i;
      }
    }
    if (next == phases.size()) break;
    phases[next]->step(tracer, report);
    busy[next] += seconds_between(now, Clock::now());
  }
  tracer.set_enabled(false);
}

/// CPU time the hypervisor gave to other guests (steal) and total CPU time,
/// in ticks, summed over all CPUs; zero when /proc/stat is unreadable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(stat >> label) || label != "cpu") return t;
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

}  // namespace

Report run_benchmark(const Options& opts, Clock::time_point process_start,
                     std::FILE* log) {
  Report report;

  std::vector<double> setups;
  std::vector<std::unique_ptr<Phase>> phases;
  for (int i = 0; i < kSetups; ++i) {
    phases.clear();  // free one set-up's buffers before building the next
    const auto t0 = i == 0 ? process_start : Clock::now();
    phases = make_phases(opts);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::fprintf(log, "# setup_s samples: %.4f %.4f %.4f\n", setups[0],
               setups[1], setups[2]);

  // Leave room to report and exit well inside the run's time limit.
  const auto hard_stop = process_start + std::chrono::seconds(150);
  Tracer tracer(opts.trace);
  const CpuTicks before = read_cpu_ticks();
  run_phases(phases, opts.seconds, opts.trace, hard_stop, tracer, report);
  const CpuTicks after = read_cpu_ticks();
  // Outside load the numbers below cannot separate from the program's own
  // cost: a busy host shows up here first.
  if (after.total > before.total) {
    std::fprintf(log, "# host: cpu steal %.4f of the measuring time\n",
                 (after.steal - before.steal) / (after.total - before.total));
  }

  for (const auto& phase : phases) {
    if (opts.trace) {
      phase->report_layers(tracer, report);
    } else {
      phase->report_end_to_end(report);
    }
  }
  if (opts.trace) {
    report.set("ceiling.memcpy_64k_gbps", memcpy_gbps(64 << 10), "GB/s");
    report.set("ceiling.memcpy_16m_gbps", memcpy_gbps(16 << 20), "GB/s");
    report.set("ceiling.loopback_gbps", loopback_gbps(), "GB/s");
    if (!opts.spans_path.empty() && !tracer.write_jsonl(opts.spans_path)) {
      std::fprintf(log, "# cannot write spans to %s\n",
                   opts.spans_path.c_str());
    }
  } else {
    report.set("setup_s", quantile(setups, 0.5), "s");
  }
  return report;
}

}  // namespace perfbench
