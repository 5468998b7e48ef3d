// store-mix phase: one client against an in-process storage::StorageSystem.
//
// RS(6,3), rpr placement, the RPR planner, 64 KiB blocks, 64 live objects of
// 384 KiB (24 MiB of object data, inside the last-level cache). Each step is
// one seeded round: fail a node, serve reads (half of them of a block the
// failure lost, so degraded), repair every damaged stripe with repair(),
// revive the node and put() new objects. The oldest objects leave the live
// set as new ones arrive; when the system holds kRebuildAt stripes it is
// rebuilt, untimed, from the live set, so the data set stays the same size
// for the whole run.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "phase.h"
#include "storage/storage_system.h"

namespace perfbench {

class StoreMix final : public Phase {
 public:
  static constexpr std::uint64_t kBlock = 64 << 10;
  static constexpr std::size_t kLiveObjects = 64;
  static constexpr std::size_t kPutsPerRound = 4;
  static constexpr std::size_t kReadsPerRound = 32;
  static constexpr std::size_t kRebuildAt = kLiveObjects + 32;

  explicit StoreMix(std::uint64_t seed);

  void step(Tracer& tracer, Report& report) override;
  [[nodiscard]] bool needs_samples() const override {
    return !tail_supported(0.9, degraded_[0].count());
  }
  void report_end_to_end(Report& report) const override;
  void report_layers(const Tracer& tracer, Report& report) const override;

  /// Object bytes the benchmark keeps; exposed for the wrong-byte test.
  [[nodiscard]] std::vector<std::uint8_t>& live_object(std::size_t i) {
    return live_[i].bytes;
  }

 private:
  struct Object {
    rpr::storage::StripeId id = 0;
    std::vector<std::uint8_t> bytes;
  };

  [[nodiscard]] std::vector<std::uint8_t> make_object();
  void rebuild();
  void read(const Object& obj, std::size_t block, bool expect_degraded,
            rpr::topology::NodeId reader, Tracer& tracer, std::uint64_t op,
            Report& report);
  void repair(const Object& obj, std::size_t lost, Tracer& tracer,
              std::uint64_t op, Report& report);
  void trace_repair_layers(const Object& obj,
                           const rpr::repair::RepairProblem& problem,
                           const rpr::repair::PlannedRepair& planned,
                           Tracer& tracer, std::uint64_t op);

  std::uint64_t seed_;
  rpr::storage::StorageOptions opts_;
  std::unique_ptr<rpr::storage::StorageSystem> sys_;
  std::deque<Object> live_;
  rpr::util::Xoshiro256 rng_;
  std::uint64_t objects_made_ = 0;
  std::uint64_t rounds_ = 0;

  /// [0] untraced, [1] traced.
  Samples put_[2], read_[2], degraded_[2], repair_[2];
  std::uint64_t cross_bytes_ = 0;
  std::uint64_t inner_bytes_ = 0;
  std::uint64_t rebuilt_bytes_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t degraded_reads_ = 0;
};

}  // namespace perfbench
