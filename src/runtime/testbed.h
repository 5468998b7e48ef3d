// Threaded testbed: executes a RepairPlan with one thread per storage node,
// real block buffers, real GF(2^8) arithmetic, and bandwidth-throttled
// transfers.
//
// This is the stand-in for the paper's EC2 evaluation (§5.2): where the
// discrete-event simulator *models* transfer and decode costs, the testbed
// *incurs* them — every transfer holds its ports for its paced duration,
// partial decodes run the real region kernels over real bytes, and
// matrix-path decodes run the general (unoptimized) GF path plus a real
// matrix inversion. Total repair time is measured wall-clock. The nodes
// share one address space, so a transfer's bytes need not be copied: in
// slice mode a send's value is a view aliasing its input's (see
// exec_state.h), while the transfer still takes its port locks, paces each
// slice (deadline pacing, util/pacer.h), checks faults and counts its
// traffic. Whole-block mode copies each sent value, as it always has.
//
// Port model mirrors the simulator: a transfer holds the sender's TX port,
// the receiver's RX port and — when crossing racks — the two racks' uplink
// channels for its whole (paced) duration. Acquisition follows a fixed
// stage order (node TX -> rack TX -> rack RX -> node RX), which rules out
// deadlock by construction.
//
// Fault injection (params.faults): kills fire on the wall clock measured
// from Testbed construction — paced transfers are sliced so a mid-transfer
// death interrupts the transfer rather than completing it; every op that
// touches a dead node fails, failures propagate through the DAG, and an
// execute() whose requested outputs are unreachable returns a TestbedAbort
// (the dead node plus every value that did finish) instead of throwing.
// A straggling node's transfers stall: each afflicted attempt is abandoned
// at the straggler-detection deadline and retried after exponential backoff
// (params.retry); a transient straggle clears after its attempt budget and
// the retry succeeds, a permanent one exhausts max_attempts and the node is
// declared lost. Dead nodes stay dead across execute() calls on one
// Testbed, which is what lets repair::execute_resilient_with re-plan around
// them.
//
// Failure domains: rack kills expand to per-node kills at construction and
// an abort reports every node dead at the cut, so one re-plan absorbs the
// whole domain. A fabric partition makes cross-cut transfers fail as
// retryable errors (jittered backoff may ride out a healing cut); when
// retries run out while the split is still active the run aborts
// `partitioned` WITHOUT declaring any node lost — the unreachable helpers
// stay alive and their banked values stay valid. Slow disks stall reads at
// 1/factor of the inner-link rate instead of serving them instantly.
//
// `time_scale` multiplies every bandwidth so experiments finish quickly:
// with scale 32, a 1 Gb/s link moves a 4 MiB block in ~1 ms of wall time.
// Ratios between schemes — what the figures report — are scale-invariant.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "check/scheduler.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "repair/plan.h"
#include "rs/rs_code.h"
#include "runtime/exec_state.h"
#include "runtime/region_net.h"
#include "topology/cluster.h"

namespace rpr::runtime {

struct TestbedParams {
  RegionNet net = RegionNet::uniform(1, util::Bandwidth::gbps(10),
                                     util::Bandwidth::gbps(1));
  /// Multiplies all bandwidths (1.0 = real time).
  double time_scale = 1.0;
  /// Dimension of the decoding matrix really inverted by matrix-path
  /// decodes (set it to the code's n; it only affects a micro-cost).
  std::size_t decode_matrix_dim = 8;
  /// Optional span recorder: every executed op becomes a wall-clock span
  /// (bytes + measured throughput) on its node's track, comparable 1:1
  /// with a simulated trace of the same plan. Must outlive execute().
  obs::Recorder* recorder = nullptr;
  /// Faults to inject (kill times are seconds since Testbed construction).
  fault::FaultSchedule faults;
  /// Retry/backoff/straggler-detection policy for transfers.
  fault::RetryPolicy retry;
  /// Slice-pipelined streaming: values move through the dataplane in units
  /// of this many bytes — a combine/forward starts on a slice the moment
  /// every input published it, instead of buffering whole intermediates.
  /// Each op then runs on its own thread (a node is no longer serialized to
  /// one op at a time; the port mutexes still serialize its links at slice
  /// granularity). 0 = whole-block store-and-forward (the historical
  /// behavior). Defaults from the RPR_SLICE_SIZE environment variable.
  std::size_t slice_size = default_slice_size();
  /// Optional registry for per-slice latency histograms, slice counters and
  /// the peak bytes-in-flight gauge (under "testbed."). Must outlive
  /// execute().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Why and where an execute() gave up, plus everything it salvaged.
struct TestbedAbort {
  topology::NodeId dead_node = 0;
  /// Every node dead at abort time (a TOR death takes the whole rack down
  /// at once, so one re-plan absorbs the whole failure domain). When empty,
  /// `dead_node` alone is the casualty list.
  std::vector<topology::NodeId> dead_nodes;
  /// The abort was a fabric partition, not a death: the blamed endpoints
  /// are ALIVE but unreachable and must not be substituted away.
  bool partitioned = false;
  /// partitioned: seconds (engine wall clock) until the cut heals; < 0
  /// means the split is permanent and the caller must reroute.
  double heal_wait_s = -1.0;
  /// partitioned: side of the cut per node (index = NodeId, value 0/1).
  std::vector<int> partition_side;
  /// Ops whose values fully materialized before the failure, excluding any
  /// resident on a dead node.
  std::vector<std::pair<repair::OpId, rs::Block>> completed;
};

struct TestbedResult {
  /// Wall-clock repair time (already *not* rescaled; divide interpretation
  /// by time_scale to map back to real-link time).
  std::chrono::nanoseconds wall_time{0};
  /// The requested output values (empty when aborted).
  std::vector<rs::Block> outputs;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t inner_rack_bytes = 0;
  /// Transfer attempts abandoned at the straggler deadline and retried.
  std::size_t retries = 0;
  /// Fault activations observed this run (straggles biting; kills are
  /// reported via `abort` and counted by the re-plan driver).
  std::size_t faults_injected = 0;
  /// Engaged iff a requested output became unreachable (node death or
  /// retries exhausted); the run is then a partial result, not an error.
  std::optional<TestbedAbort> abort;
};

class Testbed {
 public:
  Testbed(topology::Cluster cluster, TestbedParams params);

  /// Runs the plan to completion with one worker thread per involved node.
  /// `stripe` supplies the block contents for kRead ops.
  TestbedResult execute(const repair::RepairPlan& plan,
                        std::span<const repair::OpId> outputs,
                        std::span<const rs::Block> stripe);

  [[nodiscard]] const topology::Cluster& cluster() const noexcept {
    return cluster_;
  }

  /// Nodes that have died so far (kill schedule entries whose time passed,
  /// plus nodes lost to exhausted retries).
  [[nodiscard]] std::set<topology::NodeId> dead_nodes() const;

  /// Measures the achieved throughput between two nodes by timing a paced
  /// transfer of `bytes` (used to regenerate Table 1).
  [[nodiscard]] double measure_mbps(topology::NodeId from, topology::NodeId to,
                                    std::uint64_t bytes);

 private:
  topology::Cluster cluster_;
  TestbedParams params_;
  /// Session clock origin for kill times.
  std::chrono::steady_clock::time_point session_start_;
  mutable check::Mutex fault_mu_{"testbed.fault"};
  /// Nodes dead so far; persists across execute() calls.
  std::set<topology::NodeId> dead_;
  /// Afflicted transfer attempts consumed per straggling node (transient
  /// straggles clear once this reaches the schedule's attempt budget).
  std::map<topology::NodeId, std::size_t> afflicted_;
  /// Slow-disk nodes already counted as an injected fault this session.
  std::set<topology::NodeId> slowdisk_counted_;
};

}  // namespace rpr::runtime
