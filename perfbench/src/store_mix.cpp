#include "store_mix.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <span>

#include "gf/gf_region.h"
#include "repair/analysis.h"
#include "repair/executor_data.h"
#include "repair/executor_sim.h"
#include "util/hash.h"
#include "verify/plan_verifier.h"

namespace perfbench {

using rpr::topology::NodeId;

StoreMix::StoreMix(std::uint64_t seed)
    : seed_(seed), rng_(seed ^ 0x53544f5245ULL) {
  opts_.code = {6, 3};
  opts_.policy = rpr::topology::PlacementPolicy::kRpr;
  opts_.repair_scheme = rpr::repair::Scheme::kRpr;
  opts_.block_size = kBlock;
  opts_.network.slice_size = 0;  // whole-block cost model, set explicitly
  for (std::size_t i = 0; i < kLiveObjects; ++i) {
    live_.push_back(Object{0, make_object()});
  }
  rebuild();

  // Warm-up, untimed: one round with every op kind.
  Tracer off(false);
  Report scratch;
  step(off, scratch);
  if (!scratch.correct) throw std::runtime_error("store-mix warm-up failed");
}

std::vector<std::uint8_t> StoreMix::make_object() {
  rpr::util::Xoshiro256 rng(seed_ * 0x9e3779b97f4a7c15ULL + objects_made_++);
  std::vector<std::uint8_t> bytes(opts_.code.n * kBlock);
  fill_random(bytes, rng);
  return bytes;
}

void StoreMix::rebuild() {
  sys_ = std::make_unique<rpr::storage::StorageSystem>(opts_);
  for (Object& obj : live_) obj.id = sys_->put(obj.bytes);
}

void StoreMix::read(const Object& obj, std::size_t block,
                    bool expect_degraded, NodeId reader, Tracer& tracer,
                    std::uint64_t op, Report& report) {
  const bool traced = tracer.enabled();
  Samples& samples = expect_degraded ? degraded_[traced] : read_[traced];
  bool ok = false;
  try {
    const auto t0 = Clock::now();
    rpr::storage::ReadReport r;
    {
      Tracer::Scope span(tracer,
                         expect_degraded ? "storage.read_block.degraded"
                                         : "storage.read_block",
                         op);
      r = sys_->read_block(obj.id, block, reader);
    }
    const double s = seconds_between(t0, Clock::now());
    const std::span<const std::uint8_t> expected(
        obj.bytes.data() + block * kBlock, kBlock);
    ok = r.degraded == expect_degraded && r.data.size() == kBlock &&
         std::memcmp(r.data.data(), expected.data(), kBlock) == 0;
    if (ok) samples.add(s);
    if (ok && traced) {
      {
        Tracer::Scope span(tracer, "storage.lost_blocks", op);
        (void)sys_->lost_blocks(obj.id);
      }
      {
        Tracer::Scope span(tracer, "util.fnv1a64.64k", op);
        volatile std::uint64_t digest = rpr::util::fnv1a64(r.data);
        (void)digest;
      }
      rpr::rs::Block acc(kBlock, 0);
      Tracer::Scope span(tracer, "gf.mul_region_add.64k", op);
      rpr::gf::mul_region_add(0x8e, acc, r.data);
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) samples.add_failed();
  report.count_op(ok);
  ++reads_;
  if (expect_degraded) ++degraded_reads_;
}

void StoreMix::repair(const Object& obj, std::size_t lost, Tracer& tracer,
                      std::uint64_t op, Report& report) {
  const bool traced = tracer.enabled();
  bool ok = false;
  try {
    const std::vector<NodeId> before = sys_->stripe_nodes(obj.id);
    const auto t0 = Clock::now();
    rpr::storage::RepairReport r;
    {
      Tracer::Scope span(tracer, "storage.repair", op);
      r = sys_->repair(obj.id);
    }
    const double s = seconds_between(t0, Clock::now());

    // The traffic the closed form predicts for the repair that ran: the
    // pre-failure placement, the lost block, the node it was rebuilt on.
    const rpr::topology::Placement placement(sys_->cluster(), opts_.code,
                                             before);
    rpr::repair::RepairProblem problem;
    problem.code = &sys_->code();
    problem.placement = &placement;
    problem.block_size = kBlock;
    problem.failed = {lost};
    problem.replacements = {sys_->stripe_nodes(obj.id)[lost]};
    rpr::repair::PlannedRepair planned;
    {
      Tracer::Scope span(tracer, "repair.plan.rs6_3", op);
      planned = rpr::repair::RprPlanner().plan(problem);
    }
    const auto predicted = rpr::repair::analysis::predicted_traffic(
        rpr::repair::Scheme::kRpr, problem, planned);
    ok = r.verified && r.repaired_blocks == std::vector<std::size_t>{lost} &&
         r.cross_rack_bytes == predicted.cross_transfers * kBlock &&
         r.inner_rack_bytes == predicted.inner_transfers * kBlock;
    if (ok) {
      repair_[traced].add(s);
      cross_bytes_ += r.cross_rack_bytes;
      inner_bytes_ += r.inner_rack_bytes;
      rebuilt_bytes_ += kBlock;
      ++repairs_;
      if (traced) trace_repair_layers(obj, problem, planned, tracer, op);
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) repair_[traced].add_failed();
  report.count_op(ok);
}

void StoreMix::trace_repair_layers(const Object& obj,
                                   const rpr::repair::RepairProblem& problem,
                                   const rpr::repair::PlannedRepair& planned,
                                   Tracer& tracer, std::uint64_t op) {
  const auto& cfg = opts_.code;
  std::vector<rpr::rs::Block> view(cfg.total());
  for (std::size_t b = 0; b < cfg.n; ++b) {
    view[b].assign(obj.bytes.begin() + static_cast<std::ptrdiff_t>(b * kBlock),
                   obj.bytes.begin() +
                       static_cast<std::ptrdiff_t>((b + 1) * kBlock));
  }
  {
    Tracer::Scope span(tracer, "rs.encode_stripe.rs6_3", op);
    sys_->code().encode_stripe(view);
  }
  for (const std::size_t b : problem.failed) view[b].clear();
  {
    Tracer::Scope span(tracer, "verify.plan.full", op);
    (void)rpr::verify::verify_planned_repair(planned, problem,
                                             rpr::repair::Scheme::kRpr, false);
  }
  {
    Tracer::Scope span(tracer, "verify.plan.cached", op);
    (void)rpr::verify::verify_planned_repair(planned, problem,
                                             rpr::repair::Scheme::kRpr, true);
  }
  {
    Tracer::Scope span(tracer, "repair.execute_on_data", op);
    (void)rpr::repair::execute_on_data(planned.plan, planned.outputs, view);
  }
  Tracer::Scope span(tracer, "simnet.simulate", op);
  (void)rpr::repair::simulate(planned.plan, sys_->cluster(), opts_.network);
}

void StoreMix::step(Tracer& tracer, Report& report) {
  const std::uint64_t op = rounds_++;
  const auto& cfg = opts_.code;
  const std::size_t nodes = sys_->cluster().total_nodes();

  // Fail the node holding a random block of a random live object.
  const Object& victim = live_[rng_() % live_.size()];
  const NodeId failed = sys_->stripe_nodes(victim.id)[rng_() % cfg.total()];
  sys_->fail_node(failed);

  struct Damage {
    std::size_t object;
    std::size_t block;
  };
  std::vector<Damage> damaged;
  std::vector<Damage> lost_data;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const auto where = sys_->stripe_nodes(live_[i].id);
    for (std::size_t b = 0; b < where.size(); ++b) {
      if (where[b] != failed) continue;
      damaged.push_back({i, b});
      if (cfg.is_data(b)) lost_data.push_back({i, b});
    }
  }

  const auto pick_reader = [&](NodeId avoid) {
    NodeId reader = static_cast<NodeId>(rng_() % nodes);
    while (reader == failed || reader == avoid) reader = (reader + 1) % nodes;
    return reader;
  };
  for (std::size_t r = 0; r < kReadsPerRound; ++r) {
    if (r % 2 == 1 && !lost_data.empty()) {
      const Damage d = lost_data[rng_() % lost_data.size()];
      read(live_[d.object], d.block, true, pick_reader(failed), tracer, op,
           report);
      continue;
    }
    // Healthy: a data block that is not on the failed node.
    const Object& obj = live_[rng_() % live_.size()];
    const auto where = sys_->stripe_nodes(obj.id);
    std::size_t block = rng_() % cfg.n;
    while (where[block] == failed) block = (block + 1) % cfg.n;
    read(obj, block, false, pick_reader(where[block]), tracer, op, report);
  }

  for (const Damage& d : damaged) {
    repair(live_[d.object], d.block, tracer, op, report);
  }
  sys_->revive_node(failed);

  const bool traced = tracer.enabled();
  for (std::size_t p = 0; p < kPutsPerRound; ++p) {
    Object obj{0, make_object()};
    bool ok = true;
    try {
      const auto t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "storage.put", op);
        obj.id = sys_->put(obj.bytes);
      }
      put_[traced].add(seconds_between(t0, Clock::now()));
    } catch (const std::exception&) {
      ok = false;
      put_[traced].add_failed();
    }
    report.count_op(ok);
    if (ok) {
      live_.push_back(std::move(obj));
      live_.pop_front();
    }
  }
  if (sys_->stripe_count() >= kRebuildAt) rebuild();
}

void StoreMix::report_end_to_end(Report& report) const {
  report.set("put_ms.p50", put_[0].quantile(0.5) * 1e3, "ms");
  report.set("read_ms.p50", read_[0].quantile(0.5) * 1e3, "ms");
  report.set("degraded_read_ms.p50", degraded_[0].quantile(0.5) * 1e3, "ms");
  report.set("degraded_read_ms.p90", degraded_[0].quantile(0.9) * 1e3, "ms");
  report.set("repair_ms.p50", repair_[0].quantile(0.5) * 1e3, "ms");
  report.set("cross_rack_bytes_per_repaired_byte",
             static_cast<double>(cross_bytes_) /
                 static_cast<double>(rebuilt_bytes_),
             "ratio");
}

void StoreMix::report_layers(const Tracer& tracer, Report& report) const {
  const double block_bytes = static_cast<double>(kBlock);
  report.set("hash.fnv1a64_gbps",
             block_bytes / (span_median_us(tracer, "util.fnv1a64.64k") * 1e3),
             "GB/s");
  report.set("gf.mul_region_add_gbps",
             block_bytes /
                 (span_median_us(tracer, "gf.mul_region_add.64k") * 1e3),
             "GB/s");
  report.set("storage.lost_blocks_us",
             span_median_us(tracer, "storage.lost_blocks"), "us");
  report.set("storage.degraded_read_share",
             static_cast<double>(degraded_reads_) /
                 static_cast<double>(reads_),
             "frac");
  report.set("repair.execute_on_data_us",
             span_median_us(tracer, "repair.execute_on_data"), "us");
  report.set("repair.plan_us.rs6_3",
             span_median_us(tracer, "repair.plan.rs6_3"), "us");
  report.set("repair.cross_rack_bytes",
             static_cast<double>(cross_bytes_) / static_cast<double>(repairs_),
             "bytes/repair");
  report.set("repair.inner_rack_bytes",
             static_cast<double>(inner_bytes_) / static_cast<double>(repairs_),
             "bytes/repair");
  report.set("verify.plan_us", span_median_us(tracer, "verify.plan.full"),
             "us");
  report.set("verify.plan_cached_us",
             span_median_us(tracer, "verify.plan.cached"), "us");
  report.set("rs.encode_stripe_us",
             span_median_us(tracer, "rs.encode_stripe.rs6_3"), "us");
  report.set("simnet.simulate_us", span_median_us(tracer, "simnet.simulate"),
             "us");
  report_overhead(report, "obs.trace_overhead_frac.store_mix", degraded_[0],
                  degraded_[1]);
}

}  // namespace perfbench
