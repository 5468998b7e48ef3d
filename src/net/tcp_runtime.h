// Networked runtime: executes repair plans over real TCP connections.
//
// The closest in-process analogue of the paper's EC2 deployment (§5.2):
// every storage node is a thread with a listening TCP socket on loopback;
// block values travel as framed messages through real sockets with
// sender-side pacing at the configured region bandwidths (wondershaper's
// role in the paper's setup); partial decoding runs the real GF kernels.
//
// Contention model that emerges naturally (and matches the testbed/port
// simulator): each node's worker sends one value at a time (TX
// serialization); receivers run one frame loop per connection. Rack
// uplinks are not separately modeled — loopback has no TOR switch — so
// this runtime validates *correctness over a real network stack* and
// coarse timing, while `runtime::Testbed` and `simnet` carry the
// calibrated cost models.
//
// Connection reuse: sends to the same peer share a pooled TCP connection —
// a completed send parks its socket keyed by (sender, receiver) and the
// next op over that edge rides it, with frames delivered back to back
// into the receiver's per-connection frame loop. A stale pooled socket
// (peer tore it down while idle) is replaced immediately at no retry or
// backoff cost, and an active fabric partition severs every pooled
// connection crossing the cut. `tcp.conn.opened` / `tcp.conn.reused`
// counters in the metrics registry expose the reuse rate.
//
// Fault injection mirrors runtime::Testbed (same FaultSchedule, same
// TestbedResult/TestbedAbort contract) but failures manifest through the
// socket layer: a killed node stops accepting and abandons in-flight sends
// (peers observe EOF/connection errors, bounded by the retry policy's
// timeouts — never a hang, see net/socket.h), a straggling sender stalls
// until the straggler-detection deadline and is retried with exponential
// backoff, and an execute() whose outputs became unreachable returns an
// abort for repair::execute_resilient_with to re-plan around. Dead nodes
// persist across execute() calls on one TcpRuntime.
//
// Failure domains mirror runtime::Testbed: rack kills expand to per-node
// kills at construction and an abort reports every node dead at the cut; a
// fabric partition fails cross-cut connections as retryable errors
// (jittered backoff can ride out a healing cut) and exhausting retries
// while the split is active aborts `partitioned` without declaring anyone
// lost; slow disks stall reads at 1/factor of the inner-link rate.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <set>

#include "check/scheduler.h"
#include "fault/fault.h"
#include "repair/plan.h"
#include "rs/rs_code.h"
#include "runtime/region_net.h"
#include "runtime/testbed.h"

namespace rpr::net {

struct TcpRuntimeParams {
  runtime::RegionNet net = runtime::RegionNet::uniform(
      1, util::Bandwidth::gbps(10), util::Bandwidth::gbps(1));
  /// Multiplies all pacing bandwidths (1.0 = real time).
  double time_scale = 1.0;
  /// Dimension of the matrix really inverted on the matrix decode path.
  std::size_t decode_matrix_dim = 8;
  /// Pacing granularity: sleep after each chunk of this many bytes.
  std::size_t pace_chunk = 64 << 10;
  /// Optional span recorder: every executed op becomes a wall-clock span on
  /// its node's track (sends are timed sender-side but land on the receiving
  /// node's row, matching the simulator convention). Must outlive execute().
  obs::Recorder* recorder = nullptr;
  /// Faults to inject (kill times are seconds since TcpRuntime
  /// construction, on the wall clock).
  fault::FaultSchedule faults;
  /// Retry/backoff/straggler-detection policy; op_deadline_s bounds every
  /// connect and recv so dead peers produce errors, not hangs.
  fault::RetryPolicy retry;
  /// Slice-pipelined streaming: a sender writes one frame header and then
  /// streams the payload in units of this many bytes as its input's slices
  /// publish; the receiver ingests each slice straight into the op's
  /// value buffer and publishes it immediately, so downstream
  /// combines/sends overlap with the transfer. Each op then runs on its own
  /// thread and a receiving node ingests connections concurrently (one
  /// ingest thread per connection); the sender's TX port stays serialized
  /// at slice granularity, RX serialization is relaxed — loopback has no
  /// real RX port, the calibrated contention models live in runtime::Testbed
  /// and simnet. 0 = whole-block store-and-forward (historical behavior).
  /// Defaults from the RPR_SLICE_SIZE environment variable.
  std::size_t slice_size = runtime::default_slice_size();
  /// Optional registry for per-slice latency histograms, slice counters,
  /// the peak bytes-in-flight gauge, and the connection-pool
  /// opened/reused counters (under "tcp."). Must outlive execute().
  obs::MetricsRegistry* metrics = nullptr;
};

class TcpRuntime {
 public:
  TcpRuntime(topology::Cluster cluster, TcpRuntimeParams params);

  /// Runs the plan with one worker thread (plus one acceptor thread where
  /// needed) per involved node, moving every inter-node value through a
  /// real TCP connection. Returns outputs and measured wall time; under
  /// injected faults the result may instead carry a TestbedAbort.
  runtime::TestbedResult execute(const repair::RepairPlan& plan,
                                 std::span<const repair::OpId> outputs,
                                 std::span<const rs::Block> stripe);

  [[nodiscard]] const topology::Cluster& cluster() const noexcept {
    return cluster_;
  }

  /// Nodes that have died so far (kill times passed or retries exhausted).
  [[nodiscard]] std::set<topology::NodeId> dead_nodes() const;

 private:
  topology::Cluster cluster_;
  TcpRuntimeParams params_;
  /// Session clock origin for kill times.
  std::chrono::steady_clock::time_point session_start_;
  mutable check::Mutex fault_mu_{"tcp.fault"};
  std::set<topology::NodeId> dead_;
  std::map<topology::NodeId, std::size_t> afflicted_;
  /// Slow-disk nodes already counted as an injected fault this session.
  std::set<topology::NodeId> slowdisk_counted_;
};

}  // namespace rpr::net
