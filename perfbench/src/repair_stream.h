// repair-stream phase: real-byte single-stripe repairs on both real engines.
//
// RS(12,4), rpr placement, the RPR planner. Each step loses one block of
// the workload's loss class (rotating from the seed) and repairs it once on
// net::TcpRuntime and once on runtime::Testbed. Blocks are 16 MiB, so one stripe (256 MiB) is larger
// than the last-level cache, and the GF combine streams from memory. Links
// run at 1000 Gb/s: modeled pacing is effectively off and the wall time is
// software time (sockets, copies, framing, combines).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "phase.h"
#include "repair/analysis.h"
#include "repair/planner.h"
#include "rs/rs_code.h"
#include "runtime/testbed.h"
#include "topology/placement.h"

namespace perfbench {

/// Which block each repair loses: a data block (the RPR XOR fast path,
/// every combine coefficient is 1) or a parity block (the combines multiply
/// by generator coefficients).
enum class LossClass { kData, kParity };

class RepairStream final : public Phase {
 public:
  static constexpr std::uint64_t kBlock = 16ull << 20;

  /// Set-up: seeded stripe, encode, plans, engines, one warm-up repair and
  /// one warm-up block read per engine. `slice_size` is passed to both
  /// engines explicitly. A traced run also builds probed engines.
  RepairStream(std::uint64_t seed, LossClass loss, std::size_t slice_size,
               bool traced_run);

  void step(Tracer& tracer, Report& report) override;
  [[nodiscard]] bool needs_samples() const override {
    return !tail_supported(0.9, tcp_repair_[0].count());
  }
  void report_end_to_end(Report& report) const override;
  void report_layers(const Tracer& tracer, Report& report) const override;

 private:
  struct Repair {
    rpr::repair::RepairProblem problem;
    rpr::repair::PlannedRepair planned;
    std::uint64_t cross_bytes = 0;  ///< predicted_traffic, in bytes
    std::uint64_t inner_bytes = 0;
  };

  template <typename Engine>
  bool run_repair(Engine& engine, const Repair& r, double& seconds);
  template <typename Engine>
  bool run_block_read(Engine& engine, double& seconds);
  void trace_layers(const Repair& r, Tracer& tracer, std::uint64_t op);

  rpr::rs::RSCode code_{rpr::rs::CodeConfig{12, 4}};
  rpr::topology::PlacedStripe placed_;
  std::vector<rpr::rs::Block> stripe_;
  std::vector<Repair> repairs_;  ///< one per block of the loss class
  /// ECPipe's yardstick: one block read shipped across racks to the
  /// repair's destination node.
  rpr::repair::RepairPlan read_plan_;
  rpr::repair::OpId read_output_ = rpr::repair::kNoOp;
  std::size_t read_block_ = 0;

  rpr::obs::MetricsRegistry tcp_metrics_;
  rpr::obs::MetricsRegistry bed_metrics_;
  std::unique_ptr<rpr::net::TcpRuntime> tcp_;
  std::unique_ptr<rpr::runtime::Testbed> bed_;
  std::unique_ptr<rpr::net::TcpRuntime> tcp_probed_;
  std::unique_ptr<rpr::runtime::Testbed> bed_probed_;

  std::uint64_t next_ = 0;
  /// [0] untraced, [1] traced.
  Samples tcp_repair_[2], bed_repair_[2];
  Samples tcp_read_, bed_read_;
  std::size_t traced_repairs_ = 0;
};

}  // namespace perfbench
