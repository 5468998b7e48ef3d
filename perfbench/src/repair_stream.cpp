#include "repair_stream.h"

#include <exception>

#include "gf/gf_region.h"

namespace perfbench {

using rpr::repair::OpId;

namespace {

constexpr double kLinkGbps = 1000.0;  // pacing effectively off

rpr::runtime::RegionNet fast_net(std::size_t racks) {
  return rpr::runtime::RegionNet::uniform(
      racks, rpr::util::Bandwidth::gbps(kLinkGbps),
      rpr::util::Bandwidth::gbps(kLinkGbps));
}

double histogram_p50(const rpr::obs::MetricsRegistry& m,
                     const std::string& name) {
  const rpr::obs::Histogram* h = m.find_histogram(name);
  return h == nullptr ? 0.0 : h->quantile(0.5);
}

double counter_value(const rpr::obs::MetricsRegistry& m,
                     const std::string& name) {
  const rpr::obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

}  // namespace

RepairStream::RepairStream(std::uint64_t seed, LossClass loss,
                           std::size_t slice_size, bool traced_run)
    : placed_(rpr::topology::make_placed_stripe(
          code_.config(), rpr::topology::PlacementPolicy::kRpr)) {
  const auto& cfg = code_.config();
  rpr::util::Xoshiro256 rng(seed ^ 0x5245504149ULL);
  stripe_.resize(cfg.total());
  for (std::size_t b = 0; b < cfg.n; ++b) {
    stripe_[b].resize(kBlock);
    fill_random(stripe_[b], rng);
  }
  code_.encode_stripe(stripe_);

  const auto planner = rpr::repair::make_planner(rpr::repair::Scheme::kRpr);
  const std::size_t first_lost = loss == LossClass::kData ? 0 : cfg.n;
  const std::size_t lost_count = loss == LossClass::kData ? cfg.n : cfg.k;
  repairs_.resize(lost_count);
  for (std::size_t i = 0; i < lost_count; ++i) {
    const std::size_t b = first_lost + i;
    Repair& r = repairs_[i];
    r.problem.code = &code_;
    r.problem.placement = &placed_.placement;
    r.problem.block_size = kBlock;
    r.problem.failed = {b};
    r.problem.choose_default_replacements();
    r.planned = planner->plan(r.problem);
    const auto predicted = rpr::repair::analysis::predicted_traffic(
        rpr::repair::Scheme::kRpr, r.problem, r.planned);
    r.cross_bytes = predicted.cross_transfers * kBlock;
    r.inner_bytes = predicted.inner_transfers * kBlock;
  }

  // The block read: the first data block outside the recovery rack of the
  // first repair, shipped to that repair's destination.
  const rpr::topology::NodeId dest = repairs_[0].problem.replacements[0];
  const auto dest_rack = placed_.cluster.rack_of(dest);
  for (std::size_t b = 0; b < cfg.n; ++b) {
    if (placed_.placement.rack_of(b) != dest_rack) {
      read_block_ = b;
      break;
    }
  }
  read_plan_.block_size = kBlock;
  const rpr::topology::NodeId src = placed_.placement.node_of(read_block_);
  read_output_ =
      read_plan_.send(read_plan_.read(src, read_block_, 1), src, dest);

  const auto make_tcp = [&](rpr::obs::MetricsRegistry* metrics) {
    rpr::net::TcpRuntimeParams p;
    p.net = fast_net(placed_.cluster.racks());
    p.time_scale = 1.0;
    p.decode_matrix_dim = cfg.n;
    p.slice_size = slice_size;
    p.metrics = metrics;
    return std::make_unique<rpr::net::TcpRuntime>(placed_.cluster, p);
  };
  const auto make_bed = [&](rpr::obs::MetricsRegistry* metrics) {
    rpr::runtime::TestbedParams p;
    p.net = fast_net(placed_.cluster.racks());
    p.time_scale = 1.0;
    p.decode_matrix_dim = cfg.n;
    p.slice_size = slice_size;
    p.metrics = metrics;
    return std::make_unique<rpr::runtime::Testbed>(placed_.cluster, p);
  };
  tcp_ = make_tcp(nullptr);
  bed_ = make_bed(nullptr);
  if (traced_run) {
    tcp_probed_ = make_tcp(&tcp_metrics_);
    bed_probed_ = make_bed(&bed_metrics_);
  }

  // Warm-up, untimed: one repair and one block read per engine.
  double ignored = 0.0;
  const Repair& first = repairs_[seed % repairs_.size()];
  bool ok = run_repair(*tcp_, first, ignored) &&
            run_repair(*bed_, first, ignored) &&
            run_block_read(*tcp_, ignored) && run_block_read(*bed_, ignored);
  if (traced_run) {
    ok = ok && run_repair(*tcp_probed_, first, ignored) &&
         run_repair(*bed_probed_, first, ignored);
  }
  if (!ok) throw std::runtime_error("repair-stream warm-up op failed");
  next_ = seed;
}

template <typename Engine>
bool RepairStream::run_repair(Engine& engine, const Repair& r,
                              double& seconds) {
  try {
    const auto t0 = Clock::now();
    const auto result =
        engine.execute(r.planned.plan, r.planned.outputs, stripe_);
    seconds = seconds_between(t0, Clock::now());
    return !result.abort && result.outputs.size() == 1 &&
           result.outputs[0] == stripe_[r.problem.failed[0]] &&
           result.cross_rack_bytes == r.cross_bytes &&
           result.inner_rack_bytes == r.inner_bytes;
  } catch (const std::exception&) {
    return false;
  }
}

template <typename Engine>
bool RepairStream::run_block_read(Engine& engine, double& seconds) {
  try {
    const OpId outputs[] = {read_output_};
    const auto t0 = Clock::now();
    const auto result = engine.execute(read_plan_, outputs, stripe_);
    seconds = seconds_between(t0, Clock::now());
    return !result.abort && result.outputs.size() == 1 &&
           result.outputs[0] == stripe_[read_block_];
  } catch (const std::exception&) {
    return false;
  }
}

void RepairStream::step(Tracer& tracer, Report& report) {
  const Repair& r = repairs_[next_ % repairs_.size()];
  const std::uint64_t op = next_++;
  const bool traced = tracer.enabled();
  auto& tcp = traced ? *tcp_probed_ : *tcp_;
  auto& bed = traced ? *bed_probed_ : *bed_;

  double s = 0.0;
  bool ok = false;
  {
    Tracer::Scope span(tracer, "tcp.execute", op);
    ok = run_repair(tcp, r, s);
  }
  report.count_op(ok);
  ok ? tcp_repair_[traced].add(s) : tcp_repair_[traced].add_failed();
  {
    Tracer::Scope span(tracer, "testbed.execute", op);
    ok = run_repair(bed, r, s);
  }
  report.count_op(ok);
  ok ? bed_repair_[traced].add(s) : bed_repair_[traced].add_failed();

  if (traced) {
    ++traced_repairs_;
    trace_layers(r, tracer, op);
    {
      Tracer::Scope span(tracer, "tcp.block_read", op);
      ok = run_block_read(*tcp_, s);
    }
    report.count_op(ok);
    ok ? tcp_read_.add(s) : tcp_read_.add_failed();
    {
      Tracer::Scope span(tracer, "testbed.block_read", op);
      ok = run_block_read(*bed_, s);
    }
    report.count_op(ok);
    ok ? bed_read_.add(s) : bed_read_.add_failed();
  }
}

void RepairStream::trace_layers(const Repair& r, Tracer& tracer,
                                std::uint64_t op) {
  const auto planner = rpr::repair::make_planner(rpr::repair::Scheme::kRpr);
  {
    Tracer::Scope span(tracer, "repair.plan.rs12_4", op);
    (void)planner->plan(r.problem);
  }
  // The combine kernel at the repair's own fan-in and coefficients, over
  // the first slice of each source block.
  const auto& eq = r.planned.equations[0];
  std::vector<const std::uint8_t*> srcs;
  for (const std::size_t b : eq.sources) srcs.push_back(stripe_[b].data());
  rpr::rs::Block dst(1 << 20);
  std::uint8_t* dsts[] = {dst.data()};
  Tracer::Scope span(tracer, "gf.encode_regions.1m", op);
  rpr::gf::encode_regions(eq.coefficients, 1, srcs.size(), srcs.data(), dsts,
                          dst.size());
}

void RepairStream::report_end_to_end(Report& report) const {
  report.set("tcp.repair_s.p50", tcp_repair_[0].quantile(0.5), "s");
  report.set("tcp.repair_s.p90", tcp_repair_[0].quantile(0.9), "s");
  report.set("testbed.repair_s.p50", bed_repair_[0].quantile(0.5), "s");
}

void RepairStream::report_layers(const Tracer& tracer,
                                 Report& report) const {
  for (const auto& [prefix, metrics] :
       {std::pair<std::string, const rpr::obs::MetricsRegistry*>{
            "tcp", &tcp_metrics_},
        {"testbed", &bed_metrics_}}) {
    for (const char* phase : {"cross", "inner", "combine"}) {
      const std::string name =
          prefix + ".slice." + phase + "_latency_s";
      report.set(name + ".p50", histogram_p50(*metrics, name), "s");
    }
    const auto* peak = metrics->find_max_gauge(prefix +
                                               ".bytes_in_flight_peak");
    report.set(prefix + ".bytes_in_flight_peak",
               peak == nullptr ? 0.0 : peak->value(), "bytes");
  }
  const double repairs = static_cast<double>(traced_repairs_ + 1);  // + warm-up
  report.set("tcp.conn.opened",
             counter_value(tcp_metrics_, "tcp.conn.opened") / repairs,
             "count/repair");
  report.set("tcp.conn.reused",
             counter_value(tcp_metrics_, "tcp.conn.reused") / repairs,
             "count/repair");

  const double tcp_read = tcp_read_.quantile(0.5);
  const double bed_read = bed_read_.quantile(0.5);
  report.set("tcp.block_read_s", tcp_read, "s");
  report.set("testbed.block_read_s", bed_read, "s");
  report.set("tcp.repair_over_read", tcp_repair_[1].quantile(0.5) / tcp_read,
             "ratio");
  report.set("testbed.repair_over_read", bed_repair_[1].quantile(0.5) / bed_read,
             "ratio");
  report.set("repair.plan_us.rs12_4",
             span_median_us(tracer, "repair.plan.rs12_4"), "us");
  const double fan_in =
      static_cast<double>(repairs_[0].planned.equations[0].sources.size());
  report.set("gf.combine_kernel_gbps",
             fan_in * static_cast<double>(1 << 20) /
                 (span_median_us(tracer, "gf.encode_regions.1m") * 1e3),
             "GB/s");
  report_overhead(report, "obs.trace_overhead_frac.repair_stream", tcp_repair_[0],
                  tcp_repair_[1]);
}

}  // namespace perfbench
