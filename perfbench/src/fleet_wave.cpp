#include "fleet_wave.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>

#include "repair/executor_sim.h"

namespace perfbench {

namespace {

constexpr rpr::rs::CodeConfig kCfg{14, 10};
constexpr std::uint64_t kBlock = 64ull << 20;
constexpr std::size_t kStripes = 12;
constexpr std::size_t kSlice = 1 << 20;
constexpr std::size_t kMaxInflight = 2;
constexpr double kShare = 0.25;
constexpr double kFgQps = 50.0;
constexpr double kFgDuration = 30.0;
constexpr std::uint64_t kFgReadSize = 4ull << 20;
constexpr double kProbeAt = 0.2;

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

/// Structural soundness of a first-seen outcome: every damaged stripe
/// committed and every read was answered by some path.
bool complete(const rpr::sched::FleetSchedOutcome& out, std::size_t stripes) {
  if (out.completion_s.size() != stripes) return false;
  for (const double t : out.completion_s) {
    if (!(t > 0.0 && t <= out.last_commit_s)) return false;
  }
  std::size_t answered = 0;
  for (const std::size_t n : out.reads_by_path) answered += n;
  return answered == out.reads.size() && !out.reads.empty();
}

}  // namespace

bool identical(const rpr::sched::FleetSchedOutcome& a,
               const rpr::sched::FleetSchedOutcome& b) {
  if (!same(a.makespan_s, b.makespan_s) ||
      !same(a.last_commit_s, b.last_commit_s) ||
      !same(a.admission_wait_s, b.admission_wait_s) ||
      !same(a.completion_s, b.completion_s) || a.scheme_of != b.scheme_of ||
      !same(a.completion_p50_s, b.completion_p50_s) ||
      !same(a.completion_p95_s, b.completion_p95_s) ||
      !same(a.completion_p99_s, b.completion_p99_s) ||
      !same(a.foreground_p50_s, b.foreground_p50_s) ||
      !same(a.foreground_p95_s, b.foreground_p95_s) ||
      !same(a.foreground_p99_s, b.foreground_p99_s) ||
      !same(a.degraded_p50_s, b.degraded_p50_s) ||
      !same(a.degraded_p99_s, b.degraded_p99_s) ||
      a.reads.size() != b.reads.size() ||
      a.max_queue_depth != b.max_queue_depth ||
      a.auto_star_picks != b.auto_star_picks ||
      a.auto_chained_picks != b.auto_chained_picks ||
      a.repair_bytes != b.repair_bytes ||
      a.foreground_bytes != b.foreground_bytes ||
      a.cross_rack_bytes != b.cross_rack_bytes ||
      a.inner_rack_bytes != b.inner_rack_bytes ||
      !same(a.repair_throughput_bps, b.repair_throughput_bps)) {
    return false;
  }
  for (std::size_t p = 0; p < rpr::sched::kReadPathCount; ++p) {
    if (a.reads_by_path[p] != b.reads_by_path[p]) return false;
  }
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    const auto& x = a.reads[i];
    const auto& y = b.reads[i];
    if (!same(x.arrival_s, y.arrival_s) || !same(x.latency_s, y.latency_s) ||
        x.path != y.path || x.stripe != y.stripe || x.block != y.block) {
      return false;
    }
  }
  return true;
}

FleetWave::FleetWave(std::uint64_t seed)
    : cluster_(kCfg.racks_when_full(), kCfg.k, kCfg.k), seed_(seed) {
  // The rack-rotated damaged fleet: node 0 died, each stripe repairs
  // whichever block it kept there.
  const rpr::topology::Placement base = rpr::topology::make_placement(
      cluster_, kCfg, rpr::topology::PlacementPolicy::kRpr);
  for (std::size_t s = 0; s < kStripes; ++s) {
    std::vector<rpr::topology::NodeId> nodes(kCfg.total());
    std::size_t failed = s % kCfg.total();
    for (std::size_t b = 0; b < kCfg.total(); ++b) {
      const auto node = base.node_of(b);
      const auto rack = (cluster_.rack_of(node) + s) % cluster_.racks();
      nodes[b] = rack * cluster_.nodes_per_rack() +
                 node % cluster_.nodes_per_rack();
      if (nodes[b] == 0) failed = b;
    }
    placements_.push_back(std::make_unique<rpr::topology::Placement>(
        cluster_, kCfg, std::move(nodes)));
    rpr::sched::StripeArrival arrival;
    arrival.problem.code = &code_;
    arrival.problem.placement = placements_.back().get();
    arrival.problem.block_size = kBlock;
    arrival.problem.failed = {failed};
    arrival.problem.choose_default_replacements();
    workload_.stripes.push_back(std::move(arrival));
  }
  workload_.foreground.qps = kFgQps;
  workload_.foreground.duration_s = kFgDuration;
  workload_.foreground.read_size = kFgReadSize;
  const auto reader =
      static_cast<rpr::topology::NodeId>(cluster_.total_nodes() - 1);
  for (std::size_t s = 0; s < kStripes; ++s) {
    workload_.reads.push_back(rpr::sched::ReadEvent{
        kProbeAt, s, workload_.stripes[s].problem.failed[0], reader});
  }

  // Warm-up, untimed: the fleet sweep's own foreground draw.
  anchor_ = run(kAnchorSeed, nullptr);
}

rpr::sched::FleetSchedOutcome FleetWave::run(
    std::uint64_t fg_seed, rpr::obs::MetricsRegistry* metrics) const {
  rpr::sched::FleetWorkload w = workload_;
  w.foreground.seed = fg_seed;
  rpr::sched::SchedulerOptions opts;
  opts.max_inflight = kMaxInflight;
  opts.repair_share = kShare;
  opts.slice_size = kSlice;
  opts.degraded = rpr::sched::DegradedPolicy::kServe;
  opts.probe.metrics = metrics;
  return rpr::sched::run_fleet(w, cluster_, rpr::topology::NetworkParams{},
                               opts);
}

void FleetWave::step(Tracer& tracer, Report& report) {
  const std::uint64_t op = waves_++;
  const bool traced = tracer.enabled();
  bool ok = false;
  // Anchor and draw waves alternate until every draw has run once; from
  // then on all but every kRepeatEvery-th wave is an anchor wave, the rest
  // repeat a draw to check it reproduces.
  const bool anchor = reference_.size() < kDraws ? op % 2 == 0
                                                 : op % kRepeatEvery != 0;
  if (anchor) {
    try {
      const auto t0 = Clock::now();
      rpr::sched::FleetSchedOutcome out;
      {
        Tracer::Scope span(tracer, "sched.run_fleet", op);
        out = run(kAnchorSeed, traced ? &sched_metrics_ : nullptr);
      }
      const double s = seconds_between(t0, Clock::now());
      ok = identical(out, anchor_);
      if (ok) wall_[traced].add(s);
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) wall_[traced].add_failed();
    report.count_op(ok);
    if (traced) {
      ++traced_anchor_waves_;
      trace_layers(tracer, op);
    }
    return;
  }

  const std::size_t draw = draw_waves_++ % kDraws;
  try {
    rpr::sched::FleetSchedOutcome out;
    {
      Tracer::Scope span(tracer, "sched.run_fleet.draw", op);
      // Offset so no run's draws include the anchor's foreground seed.
      out = run(seed_ * kDraws + draw + 1000, nullptr);
    }
    if (draw < reference_.size()) {
      ok = identical(out, reference_[draw]);
    } else {
      ok = complete(out, workload_.stripes.size());
      for (const auto& rec : out.reads) {
        if (rec.path == rpr::sched::ReadPath::kHealthy) {
          fg_latency_.push_back(rec.latency_s);
        } else if (rec.arrival_s == kProbeAt) {
          probe_latency_.push_back(rec.latency_s);
        }
      }
      last_commit_.push_back(out.last_commit_s);
      reference_.push_back(std::move(out));
    }
  } catch (const std::exception&) {
    ok = false;
  }
  report.count_op(ok);
}

void FleetWave::trace_layers(Tracer& tracer, std::uint64_t op) {
  rpr::repair::RprPlanner planner;
  rpr::repair::PlannedRepair first;
  for (std::size_t s = 0; s < workload_.stripes.size(); ++s) {
    Tracer::Scope span(tracer, "repair.plan.rs14_10", op);
    auto planned = planner.plan(workload_.stripes[s].problem);
    if (s == 0) first = std::move(planned);
  }
  rpr::topology::NetworkParams net;
  net.slice_size = kSlice;
  rpr::obs::MetricsRegistry sim;
  {
    Tracer::Scope span(tracer, "simnet.simulate_sliced", op);
    (void)rpr::repair::simulate(first.plan, cluster_, net,
                                rpr::obs::Probe{&sim, nullptr});
  }
  const auto* tasks = sim.find_counter("sim.tasks");
  sim_tasks_ = tasks == nullptr ? 0 : tasks->value();
}

bool FleetWave::anchor_matches() const {
  const auto close_to = [](double value, double anchor) {
    return std::fabs(value - anchor) <= 5e-5 * std::fabs(anchor);
  };
  return close_to(anchor_.foreground_p99_s, kAnchorFgP99) &&
         close_to(anchor_.degraded_p50_s, kAnchorDegradedP50) &&
         close_to(anchor_.last_commit_s, kAnchorLastCommit);
}

void FleetWave::check_anchor(Report& report) const {
  if (anchor_matches()) return;
  std::fprintf(stderr,
               "fleet anchor mismatch: fg_p99 %.6f degraded_p50 %.6f "
               "last_commit %.6f\n",
               anchor_.foreground_p99_s, anchor_.degraded_p50_s,
               anchor_.last_commit_s);
  report.correct = false;
}

void FleetWave::report_end_to_end(Report& report) const {
  check_anchor(report);
  report.set("sim.fg_p99_s", quantile(fg_latency_, 0.99), "s");
  report.set("sim.degraded_p50_s", quantile(probe_latency_, 0.5), "s");
  report.set("sim.last_commit_s", quantile(last_commit_, 0.5), "s");
}

void FleetWave::report_layers(const Tracer& tracer, Report& report) const {
  check_anchor(report);
  // A per-layer row, not an end-to-end one: one wave is single-threaded
  // and CPU-bound, and its wall time follows the host's CPU speed so
  // closely that run medians spread past any bound a regression gate can
  // use. Taken from the traced run's untraced half.
  report.set("wave_wall_s.p50", wall_[0].quantile(0.5), "s");
  report.set("repair.plan_us.rs14_10",
             span_median_us(tracer, "repair.plan.rs14_10"), "us");
  const double sliced_us = span_median_us(tracer, "simnet.simulate_sliced");
  report.set("simnet.simulate_sliced_ms", sliced_us * 1e-3, "ms");
  report.set("simnet.tasks_per_s",
             static_cast<double>(sim_tasks_) / (sliced_us * 1e-6), "1/s");

  const auto* wait = sched_metrics_.find_histogram("sched.admission_wait_s");
  report.set("sched.admission_wait_s.p50",
             wait == nullptr ? 0.0 : wait->quantile(0.5), "s");
  const auto* depth = sched_metrics_.find_max_gauge("sched.queue_depth");
  report.set("sched.max_queue_depth", depth == nullptr ? 0.0 : depth->value(),
             "count");
  const double waves = static_cast<double>(traced_anchor_waves_);
  for (const char* path : {"healthy", "banked", "promoted", "committed"}) {
    const auto* c =
        sched_metrics_.find_counter(std::string("sched.reads.") + path);
    report.set(std::string("sched.reads.") + path,
               c == nullptr ? 0.0 : static_cast<double>(c->value()) / waves,
               "count/wave");
  }
  report_overhead(report, "obs.trace_overhead_frac.fleet_wave", wall_[0],
                  wall_[1]);
}

}  // namespace perfbench
