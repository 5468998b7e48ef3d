// fleet-wave phase: sched::run_fleet on the fleet sweep's share:0.25 scenario.
//
// RS(14,10): node 0 is lost, damaging 12 rack-rotated stripes. 64 MiB
// blocks, 1 MiB slices, max-inflight 2, repair share 0.25. Foreground load
// is an open loop of 4 MiB reads at 50 qps for 30 s plus one probe read of
// each lost block at t = 0.2 s. Only the discrete-event model runs: no bytes
// move.
//
// The model is deterministic, so its outputs vary only with the foreground
// arrival draw, and both vary a lot: one draw's degraded-read p50 ranges
// from 2.5 s to 12.9 s across seeds, one draw's simulation from 0.18 s to
// 0.5 s of wall time. So the phase runs two kinds of wave:
//  * the fleet sweep's own draw (foreground seed 7, the anchor), whose wall
//    time is the wave_wall_s sample — the same work in every run — and
//    whose every repeat must reproduce the set-up's warm-up outcome, which
//    in turn must match BENCH_fleet.json;
//  * kDraws draws seeded from --seed, whose reads are pooled for the sim.*
//    metrics; a later repeat of a draw must reproduce its first outcome.
// The two alternate until each draw has run once; after that most waves
// are anchor waves, so wave_wall_s rests on as many samples as the phase's
// time allows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "phase.h"
#include "rs/rs_code.h"
#include "sched/scheduler.h"
#include "topology/placement.h"

namespace perfbench {

class FleetWave final : public Phase {
 public:
  static constexpr std::size_t kDraws = 16;
  /// Once every draw has run, one wave in kRepeatEvery repeats a draw.
  static constexpr std::uint64_t kRepeatEvery = 8;
  /// BENCH_fleet.json's share:0.25 row, which the warm-up wave (the
  /// sweep's own foreground seed) must reproduce to its printed digits.
  static constexpr std::uint64_t kAnchorSeed = 7;
  static constexpr double kAnchorFgP99 = 0.50532;
  static constexpr double kAnchorDegradedP50 = 3.69490;
  static constexpr double kAnchorLastCommit = 48.7263;

  explicit FleetWave(std::uint64_t seed);

  void step(Tracer& tracer, Report& report) override;
  [[nodiscard]] bool needs_samples() const override {
    return reference_.size() < kDraws || wall_[0].count() < kDraws;
  }
  void report_end_to_end(Report& report) const override;
  void report_layers(const Tracer& tracer, Report& report) const override;

  /// The warm-up wave's outcome (foreground seed kAnchorSeed).
  [[nodiscard]] const rpr::sched::FleetSchedOutcome& anchor() const {
    return anchor_;
  }
  /// Whether anchor() matches BENCH_fleet.json's share:0.25 row.
  [[nodiscard]] bool anchor_matches() const;
  /// Runs one wave with the given foreground seed.
  [[nodiscard]] rpr::sched::FleetSchedOutcome run(
      std::uint64_t fg_seed, rpr::obs::MetricsRegistry* metrics) const;

 private:
  void trace_layers(Tracer& tracer, std::uint64_t op);
  /// Clears `report.correct` when the anchor wave missed its row.
  void check_anchor(Report& report) const;

  rpr::rs::RSCode code_{rpr::rs::CodeConfig{14, 10}};
  rpr::topology::Cluster cluster_;
  std::vector<std::unique_ptr<rpr::topology::Placement>> placements_;
  rpr::sched::FleetWorkload workload_;
  std::uint64_t seed_;
  rpr::sched::FleetSchedOutcome anchor_;
  /// First outcome of each draw; repeats must match it.
  std::vector<rpr::sched::FleetSchedOutcome> reference_;
  /// Pooled over the draws' first runs.
  std::vector<double> fg_latency_, probe_latency_, last_commit_;
  rpr::obs::MetricsRegistry sched_metrics_;

  std::uint64_t waves_ = 0;
  std::uint64_t draw_waves_ = 0;
  std::uint64_t traced_anchor_waves_ = 0;
  std::uint64_t sim_tasks_ = 0;
  /// Anchor-wave wall times; [0] untraced, [1] traced.
  Samples wall_[2];
};

/// Bitwise equality of two fleet outcomes (every field, every record).
[[nodiscard]] bool identical(const rpr::sched::FleetSchedOutcome& a,
                             const rpr::sched::FleetSchedOutcome& b);

}  // namespace perfbench
