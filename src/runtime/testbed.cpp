#include "runtime/testbed.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "runtime/combine_stream.h"
#include "runtime/exec_state.h"
#include "runtime/op_trace.h"
#include "util/pacer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rpr::runtime {

using repair::OpId;
using repair::OpKind;
using repair::PlanOp;
using repair::RepairPlan;
using rs::Block;

namespace {

/// Paced sleep emulating a transfer of `bytes` at `bw * scale`.
void pace(std::uint64_t bytes, util::Bandwidth bw, double scale) {
  const double sec =
      static_cast<double>(bytes) / (bw.as_bytes_per_sec() * scale);
  std::this_thread::sleep_for(std::chrono::duration<double>(sec));
}

}  // namespace

Testbed::Testbed(topology::Cluster cluster, TestbedParams params)
    : cluster_(cluster),
      params_(std::move(params)),
      session_start_(std::chrono::steady_clock::now()) {
  if (params_.net.racks() < cluster_.racks()) {
    throw std::invalid_argument("Testbed: RegionNet smaller than cluster");
  }
  if (params_.time_scale <= 0.0) {
    throw std::invalid_argument("Testbed: time_scale must be positive");
  }
  if (params_.retry.max_attempts == 0) {
    throw std::invalid_argument("Testbed: retry.max_attempts must be >= 1");
  }
  // Whole-rack deaths lower to per-node kills; the abort machinery then
  // reports the whole failure domain in one shot.
  params_.faults.expand_racks(cluster_);
}

std::set<topology::NodeId> Testbed::dead_nodes() const {
  std::scoped_lock lock(fault_mu_);
  return dead_;
}

TestbedResult Testbed::execute(const RepairPlan& plan,
                               std::span<const OpId> outputs,
                               std::span<const Block> stripe) {
  repair::validate(plan, cluster_);
  detail::ExecState state(plan.ops.size(), plan.block_size,
                          params_.slice_size);
  const bool sliced = state.slices() > 1;
  if (sliced) {
    // Slice offsets are derived from plan.block_size; every streamed value
    // must be exactly that long.
    for (const PlanOp& op : plan.ops) {
      if (op.kind == OpKind::kRead &&
          stripe[op.block].size() != plan.block_size) {
        throw std::invalid_argument(
            "Testbed: slice mode requires stripe blocks of plan.block_size");
      }
    }
  }
  detail::SliceMetrics metrics(params_.metrics, "testbed");

  // Port mutexes. Acquisition order: node TX -> rack TX -> rack RX -> node
  // RX. A thread holding a later-stage lock never waits on an earlier one.
  // In slice mode they are taken per slice, so concurrent streams through
  // one port interleave at slice granularity instead of blocking for a
  // whole block.
  std::vector<check::Mutex> node_tx(cluster_.total_nodes());
  std::vector<check::Mutex> node_rx(cluster_.total_nodes());
  std::vector<check::Mutex> rack_tx(cluster_.racks());
  std::vector<check::Mutex> rack_rx(cluster_.racks());
  for (auto& m : node_tx) m.set_class("testbed.node_tx");
  for (auto& m : node_rx) m.set_class("testbed.node_rx");
  for (auto& m : rack_tx) m.set_class("testbed.rack_tx");
  for (auto& m : rack_rx) m.set_class("testbed.rack_rx");

  std::atomic<std::uint64_t> cross_bytes{0};
  std::atomic<std::uint64_t> inner_bytes{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> faults{0};
  // First node whose loss made an op fail this run (reported in the abort).
  std::atomic<topology::NodeId> first_dead{fault::kNoNode};
  // First partition that exhausted an op's retries (reported in the abort;
  // the endpoints stay alive).
  std::atomic<const fault::Partition*> first_cut{nullptr};

  auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         session_start_)
        .count();
  };
  // Active partition separating two racks right now, or nullptr.
  auto active_partition = [&](topology::RackId a, topology::RackId b)
      -> const fault::Partition* {
    if (a == b || params_.faults.partitions.empty()) return nullptr;
    const double t = elapsed_s();
    for (const auto& p : params_.faults.partitions) {
      if (p.active_at(t) && p.separates(a, b)) return &p;
    }
    return nullptr;
  };
  auto note_partition = [&](const fault::Partition* p) {
    const fault::Partition* expected = nullptr;
    first_cut.compare_exchange_strong(expected, p);
  };
  // Deterministic jitter key: schedule seed + retrying op + sender.
  auto jitter_key = [&](OpId id, topology::NodeId node) -> std::uint64_t {
    return params_.faults.seed ^ (static_cast<std::uint64_t>(id) << 24) ^
           static_cast<std::uint64_t>(node);
  };

  // A node is dead once its kill time passed or its retries were exhausted;
  // deaths outlive this execute() call (dead_ is a member).
  auto is_dead = [&](topology::NodeId node) {
    std::scoped_lock lock(fault_mu_);
    if (dead_.count(node) != 0) return true;
    // Explorer-injected kill: the schedule explorer lands deaths exactly on
    // decision boundaries instead of on the wall clock.
    if (check::node_killed(static_cast<std::uint32_t>(node))) {
      dead_.insert(node);
      return true;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      session_start_)
            .count();
    for (const auto& kill : params_.faults.kills) {
      if (kill.node == node && elapsed >= kill.at_s) {
        dead_.insert(node);
        return true;
      }
    }
    return false;
  };
  auto blame = [&](topology::NodeId node) {
    topology::NodeId expected = fault::kNoNode;
    first_dead.compare_exchange_strong(expected, node);
  };
  auto declare_lost = [&](topology::NodeId node) {
    {
      std::scoped_lock lock(fault_mu_);
      dead_.insert(node);
    }
    blame(node);
  };

  // Paced transfer sliced so a mid-transfer death or fabric cut interrupts
  // it rather than completing it.
  enum class Xfer { kOk, kDead, kCut };
  constexpr double kSliceS = 0.0005;
  // Upper bound on one batched slice forward (see the sliced kSend path):
  // large enough to amortize port locking and pacing-sleep granularity at
  // 16 KiB slices, small enough to keep the pipeline fine-grained.
  constexpr std::size_t kMaxBatchBytes = 256 << 10;
  // Deadline-paced (util::Pacer): `pacer` is the sending op's own, so a
  // late wake-up in one slice's transfer is repaid in the next.
  auto paced_transfer = [&](std::uint64_t bytes, util::Bandwidth bw,
                            topology::NodeId from, topology::NodeId to,
                            util::Pacer& pacer) -> Xfer {
    const topology::RackId rf = cluster_.rack_of(from);
    const topology::RackId rt = cluster_.rack_of(to);
    const double total_s = static_cast<double>(bytes) /
                           (bw.as_bytes_per_sec() * params_.time_scale);
    pacer.begin();
    double sent_s = 0.0;
    while (sent_s < total_s) {
      if (is_dead(from)) {
        blame(from);
        return Xfer::kDead;
      }
      if (is_dead(to)) {
        blame(to);
        return Xfer::kDead;
      }
      if (active_partition(rf, rt) != nullptr) return Xfer::kCut;
      const double step = std::min(kSliceS, total_s - sent_s);
      pacer.advance(step);
      sent_s += step;
    }
    return Xfer::kOk;
  };

  detail::name_node_tracks(cluster_, params_.recorder);
  // One DAG span id per plan op (0 = tracing disabled, no identity).
  const obs::SpanId span_base =
      params_.recorder == nullptr
          ? 0
          : params_.recorder->reserve_span_ids(plan.ops.size());
  const auto start = detail::TraceClock::now();

  auto run_op = [&](OpId id) {
    const PlanOp& op = plan.ops[id];
    const topology::NodeId self =
        op.kind == OpKind::kSend ? op.from : op.node;
    auto op_start = detail::TraceClock::now();
    std::uint64_t op_bytes = 0;
    double op_stall_s = 0.0;  // straggler stalls + retry backoffs (wall)
    switch (op.kind) {
      case OpKind::kRead: {
        if (is_dead(self)) {
          blame(self);
          state.fail(id);
          return;
        }
        if (const fault::SlowDisk* slow = params_.faults.slowdisk_of(self)) {
          // A degraded disk serves the read at 1/factor of the inner link
          // rate instead of instantly.
          const topology::RackId r = cluster_.rack_of(self);
          const double stall_s =
              static_cast<double>(stripe[op.block].size()) * slow->factor /
              (params_.net.between_racks(r, r).as_bytes_per_sec() *
               params_.time_scale);
          std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
          op_stall_s += stall_s;
          std::scoped_lock lock(fault_mu_);
          if (slowdisk_counted_.insert(self).second) ++faults;
        }
        const Block& src = stripe[op.block];
        op_bytes = src.size();
        if (!sliced) {
          Block out(src.size(), 0);
          gf::mul_region_add(op.coeff, out, src);
          state.publish(id, std::move(out));
        } else {
          // Reads are local and instant: every slice is available at once,
          // as a view of the stripe block scaled by the read coefficient.
          state.publish_view(id, src.data(), op.coeff);
        }
        break;
      }
      case OpKind::kSend: {
        if (op.from == op.node) {  // local move: forward slices as they land
          if (!sliced) {
            if (!state.wait_inputs_done(op.inputs)) {
              state.fail(id);
              return;
            }
            op_start = detail::TraceClock::now();
            if (is_dead(self)) {
              blame(self);
              state.fail(id);
              return;
            }
            Block payload = state.take_copy(op.inputs[0]);
            op_bytes = payload.size();
            state.publish(id, std::move(payload));
            break;
          }
          // Sliced: alias the input and republish its slices as they land.
          op_bytes = state.value_size();
          for (std::size_t s = 0; s < state.slices();) {
            const std::size_t avail = state.wait_inputs_slices_batch(
                op.inputs, s, state.slices());
            if (avail == 0) {
              state.fail(id);
              return;
            }
            if (s == 0) {
              op_start = detail::TraceClock::now();
              if (is_dead(self)) {
                blame(self);
                state.fail(id);
                return;
              }
              state.alias(id, op.inputs[0]);
            }
            state.publish_slices(id, avail);
            s = avail;
          }
          break;
        }

        const topology::RackId rf = cluster_.rack_of(op.from);
        const topology::RackId rt = cluster_.rack_of(op.node);
        const util::Bandwidth bw = params_.net.between_racks(rf, rt);
        const fault::Straggle* straggle = params_.faults.straggle_of(op.from);
        util::Pacer pacer;

        if (!sliced) {
          // Whole-block store-and-forward (the historical path).
          if (!state.wait_inputs_done(op.inputs)) {
            state.fail(id);
            return;
          }
          op_start = detail::TraceClock::now();
          if (is_dead(self)) {
            blame(self);
            state.fail(id);
            return;
          }
          Block payload = state.take_copy(op.inputs[0]);
          op_bytes = payload.size();
          const auto bytes = static_cast<std::uint64_t>(payload.size());
          const double expected_s =
              static_cast<double>(bytes) /
              (bw.as_bytes_per_sec() * params_.time_scale);

          bool sent = false;
          for (std::size_t attempt = 0;
               attempt < params_.retry.max_attempts && !sent; ++attempt) {
            check::point(check::PointKind::kRetry, id, 0, "testbed.retry");
            // A straggling sender's transfer crawls at factor x; the
            // straggler detector abandons the attempt at threshold x the
            // expected duration (speculative re-fetch), so an afflicted
            // attempt costs the deadline, not the crawl.
            bool afflicted = false;
            if (straggle != nullptr) {
              std::scoped_lock lock(fault_mu_);
              if (afflicted_[op.from] < straggle->attempts) {
                ++afflicted_[op.from];
                afflicted = true;
              }
            }
            if (afflicted) {
              ++faults;
              const double stall_s =
                  std::min(expected_s * straggle->factor,
                           std::min(expected_s *
                                        params_.retry.straggler_threshold,
                                    params_.retry.op_deadline_s));
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(stall_s));
              op_stall_s += stall_s;
              if (attempt + 1 < params_.retry.max_attempts) {
                ++retries;
                const double backoff = params_.retry.backoff_jittered_s(
                    attempt, jitter_key(id, op.from));
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
                op_stall_s += backoff;
              }
              continue;
            }
            metrics.begin_flight(bytes);
            Xfer xr;
            if (rf == rt) {
              check::OrderedLock ports(node_tx[op.from], node_rx[op.node]);
              xr = paced_transfer(bytes, bw, op.from, op.node, pacer);
            } else {
              check::OrderedLock ports(node_tx[op.from], rack_tx[rf],
                                       rack_rx[rt], node_rx[op.node]);
              xr = paced_transfer(bytes, bw, op.from, op.node, pacer);
            }
            metrics.end_flight(bytes);
            if (xr == Xfer::kOk) {
              (rf == rt ? inner_bytes : cross_bytes) += bytes;
              sent = true;
            } else if (xr == Xfer::kDead) {
              break;  // endpoint died: retrying cannot help
            } else if (attempt + 1 < params_.retry.max_attempts) {
              // Cut by a partition: back off and retry — a later attempt
              // may find the fabric healed.
              ++retries;
              const double backoff = params_.retry.backoff_jittered_s(
                  attempt, jitter_key(id, op.from));
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(backoff));
              op_stall_s += backoff;
            }
          }
          if (!sent) {
            if (const auto* p = active_partition(rf, rt)) {
              // Retries ran out while the split was still active: the
              // endpoints are alive — report a partition, declare no one
              // lost.
              note_partition(p);
            } else if (first_dead.load() == fault::kNoNode) {
              // Either an endpoint died mid-transfer (blamed already) or
              // every attempt hit the straggler deadline — the sender is
              // lost.
              declare_lost(op.from);
            }
            state.fail(id);
            return;
          }
          state.publish(id, std::move(payload));
          break;
        }

        // Slice-pipelined transfer: forward each slice the moment the
        // input published it, holding the ports only for that slice's
        // paced duration. The bytes do not move — the op aliases its
        // input's view — but every slice still pays its port locks, its
        // pacing and its fault checks, and is counted as traffic.
        // Straggle/retry stay op-granular; a retried attempt resumes from
        // the first unforwarded slice.
        op_bytes = state.value_size();
        const double expected_s =
            static_cast<double>(state.value_size()) /
            (bw.as_bytes_per_sec() * params_.time_scale);
        bool sent = false;
        bool endpoint_died = false;
        std::size_t next_slice = 0;
        for (std::size_t attempt = 0;
             attempt < params_.retry.max_attempts && !sent; ++attempt) {
          check::point(check::PointKind::kRetry, id, 0, "testbed.retry");
          bool afflicted = false;
          if (straggle != nullptr) {
            std::scoped_lock lock(fault_mu_);
            if (afflicted_[op.from] < straggle->attempts) {
              ++afflicted_[op.from];
              afflicted = true;
            }
          }
          if (afflicted) {
            ++faults;
            const double stall_s =
                std::min(expected_s * straggle->factor,
                         std::min(expected_s *
                                      params_.retry.straggler_threshold,
                                  params_.retry.op_deadline_s));
            std::this_thread::sleep_for(
                std::chrono::duration<double>(stall_s));
            op_stall_s += stall_s;
            if (attempt + 1 < params_.retry.max_attempts) {
              ++retries;
              const double backoff = params_.retry.backoff_jittered_s(
                  attempt, jitter_key(id, op.from));
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(backoff));
              op_stall_s += backoff;
            }
            continue;
          }
          // Contiguous already-published input slices forward as ONE port
          // acquisition and one paced transfer, capped so a backlog drain
          // cannot coarsen the pipeline past kMaxBatchBytes. A consumer
          // keeping pace with a streaming producer still sees one-slice
          // batches; the cap only bites behind instantly-published reads
          // or after a stall — which is where per-slice lock/pacing
          // overhead used to make small slices a pessimization.
          const std::size_t batch_slices = std::max<std::size_t>(
              1, kMaxBatchBytes /
                     std::max<std::size_t>(1, state.slice_len(0)));
          Xfer xr = Xfer::kOk;
          for (std::size_t s = next_slice;
               s < state.slices() && xr == Xfer::kOk;) {
            const std::size_t avail = state.wait_inputs_slices_batch(
                op.inputs, s, s + batch_slices);
            if (avail == 0) {
              state.fail(id);
              return;
            }
            if (s == 0) {
              op_start = detail::TraceClock::now();
              state.alias(id, op.inputs[0]);
            }
            // Fault/schedule boundary before the ports are taken: an
            // explored kill can land between a slice becoming ready and
            // its forward (mirrors combine_stream's per-slice point).
            check::point(check::PointKind::kStep, id, 0, "testbed.send_slice");
            const std::size_t off = state.slice_offset(s);
            const std::size_t len = state.slice_offset(avail - 1) +
                                    state.slice_len(avail - 1) - off;
            const auto t0 = std::chrono::steady_clock::now();
            metrics.begin_flight(len);
            if (rf == rt) {
              check::OrderedLock ports(node_tx[op.from], node_rx[op.node]);
              xr = paced_transfer(len, bw, op.from, op.node, pacer);
            } else {
              check::OrderedLock ports(node_tx[op.from], rack_tx[rf],
                                       rack_rx[rt], node_rx[op.node]);
              xr = paced_transfer(len, bw, op.from, op.node, pacer);
            }
            metrics.end_flight(len);
            if (xr != Xfer::kOk) break;
            (rf == rt ? inner_bytes : cross_bytes) += len;
            metrics.transfer_slice(
                rf != rt,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count(),
                len);
            state.publish_slices(id, avail);
            next_slice = avail;
            s = avail;
          }
          if (xr == Xfer::kOk) {
            sent = true;
          } else if (xr == Xfer::kDead) {
            endpoint_died = true;  // paced_transfer blamed the endpoint
            break;
          } else if (attempt + 1 < params_.retry.max_attempts) {
            // Cut by a partition: back off and resume from the first
            // unforwarded slice — a later attempt may find it healed.
            ++retries;
            const double backoff = params_.retry.backoff_jittered_s(
                attempt, jitter_key(id, op.from));
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
            op_stall_s += backoff;
          }
        }
        if (!sent) {
          if (const auto* p = active_partition(rf, rt);
              p != nullptr && !endpoint_died) {
            note_partition(p);
          } else if (!endpoint_died &&
                     first_dead.load() == fault::kNoNode) {
            declare_lost(op.from);
          }
          state.fail(id);
          return;
        }
        state.publish_all(id);
        break;
      }
      case OpKind::kCombine: {
        if (!sliced) {
          // Whole-block combine. Inputs are read in place from the shared
          // state (they are final once done) — the historical per-input
          // scratch copies are gone — and the optimized fused pass is
          // sharded across the process thread pool.
          if (!state.wait_inputs_done(op.inputs)) {
            state.fail(id);
            return;
          }
          op_start = detail::TraceClock::now();
          if (is_dead(self)) {
            blame(self);
            state.fail(id);
            return;
          }
          if (op.with_matrix_cost) {
            detail::build_and_invert_matrix(params_.decode_matrix_dim);
          }
          const std::size_t nin = op.inputs.size();
          Block acc(state.value[op.inputs[0]].size(), 0);
          std::vector<std::uint8_t> coeffs(nin);
          std::vector<const std::uint8_t*> srcs(nin);
          for (std::size_t i = 0; i < nin; ++i) {
            coeffs[i] =
                op.input_coeffs.empty() ? std::uint8_t{1} : op.input_coeffs[i];
            srcs[i] = state.value[op.inputs[i]].data();
          }
          if (op.with_matrix_cost) {
            // The traditional decoder's per-source multiply passes; kept
            // serial so the modeled cost stays comparable.
            for (std::size_t i = 0; i < nin; ++i) {
              gf::mul_region_add_general(coeffs[i], acc,
                                         {srcs[i], acc.size()});
            }
          } else {
            util::ThreadPool::shared().parallel_for(
                acc.size(), 64, 128 << 10,
                [&](std::size_t b, std::size_t e) {
                  std::vector<const std::uint8_t*> sub(nin);
                  for (std::size_t i = 0; i < nin; ++i) sub[i] = srcs[i] + b;
                  gf::mul_region_add_multi({coeffs.data(), nin}, sub.data(),
                                           {acc.data() + b, e - b});
                });
          }
          op_bytes = acc.size() * nin;  // one region pass per input
          if (is_dead(op.node)) {
            blame(op.node);
            state.fail(id);
            return;
          }
          state.publish(id, std::move(acc));
          break;
        }
        op_bytes = state.value_size() * op.inputs.size();
        const bool done = detail::stream_combine(
            state, op, id, params_.decode_matrix_dim, metrics,
            [&] {
              if (is_dead(op.node)) {
                blame(op.node);
                return true;
              }
              return false;
            },
            op_start);
        if (!done) return;
        break;
      }
    }
    detail::record_op_span(params_.recorder, op, id, cluster_, start,
                           op_start, detail::TraceClock::now(), op_bytes,
                           span_base,
                           static_cast<std::int64_t>(op_stall_s * 1e9));
  };

  // Worker threads register with an installed check::Scheduler under
  // deterministic ordinals (op id in sliced mode, node id otherwise) so a
  // replayed schedule string names the same thread on every run.
  std::vector<std::thread> workers;
  if (sliced) {
    // One thread per op: a node's combines and sends overlap, streaming
    // slices through each other, instead of queueing on one node worker.
    workers.reserve(plan.ops.size());
    check::expect_threads(plan.ops.size());
    for (OpId id = 0; id < plan.ops.size(); ++id) {
      workers.emplace_back([&, id] {
        check::run_checked(static_cast<int>(id), "op", [&] { run_op(id); });
      });
    }
  } else {
    // Assign ops to worker nodes: sends run on the sender, everything else
    // on the op's node.
    std::vector<std::vector<OpId>> ops_of_node(cluster_.total_nodes());
    for (OpId id = 0; id < plan.ops.size(); ++id) {
      const PlanOp& op = plan.ops[id];
      const topology::NodeId worker =
          op.kind == OpKind::kSend ? op.from : op.node;
      ops_of_node[worker].push_back(id);
    }
    std::size_t involved = 0;
    for (const auto& ids : ops_of_node) involved += ids.empty() ? 0u : 1u;
    check::expect_threads(involved);
    for (topology::NodeId node = 0; node < cluster_.total_nodes(); ++node) {
      if (ops_of_node[node].empty()) continue;
      workers.emplace_back([&, node, ids = ops_of_node[node]] {
        check::run_checked(static_cast<int>(node), "node", [&] {
          for (OpId id : ids) run_op(id);
        });
      });
    }
  }
  for (auto& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();

  TestbedResult result;
  result.wall_time =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start);
  result.cross_rack_bytes = cross_bytes.load();
  result.inner_rack_bytes = inner_bytes.load();
  result.retries = retries.load();
  result.faults_injected = faults.load();

  bool any_output_failed = false;
  {
    std::unique_lock lock(state.mu);
    for (OpId id : outputs) any_output_failed |= state.failed[id];
  }
  if (!any_output_failed) {
    result.outputs = state.take_outputs(outputs);
    metrics.fresh_buffers(state.fresh_buffers(), state.fresh_bytes());
    return result;
  }

  const fault::Partition* cut = first_cut.load();
  if (first_dead.load() == fault::kNoNode && cut == nullptr) {
    throw std::logic_error("testbed: output failed with no node to blame");
  }
  TestbedAbort abort;
  if (first_dead.load() != fault::kNoNode) {
    abort.dead_node = first_dead.load();
    // Sweep the schedule: every node whose kill time has passed is dead
    // now — a TOR death reports the whole rack in one abort.
    const double now_s = elapsed_s();
    std::scoped_lock fl(fault_mu_);
    for (const auto& kill : params_.faults.kills) {
      if (kill.at_s <= now_s) dead_.insert(kill.node);
    }
    abort.dead_nodes.assign(dead_.begin(), dead_.end());
  } else {
    // A fabric split, not a death: nobody is declared lost, and the caller
    // learns how long until the cut heals (< 0 = permanent).
    abort.partitioned = true;
    abort.heal_wait_s =
        cut->heals()
            ? std::max(0.0, (cut->at_s + cut->heal_after_s) - elapsed_s())
            : -1.0;
    abort.partition_side.resize(cluster_.total_nodes(), 0);
    for (topology::NodeId n = 0; n < cluster_.total_nodes(); ++n) {
      abort.partition_side[n] = cut->side_of(cluster_.rack_of(n));
    }
  }
  std::vector<OpId> salvaged;
  {
    std::scoped_lock fl(fault_mu_);
    std::unique_lock lock(state.mu);
    for (OpId id = 0; id < plan.ops.size(); ++id) {
      if (!state.done[id]) continue;
      if (dead_.count(plan.ops[id].node) != 0) continue;
      salvaged.push_back(id);
    }
  }
  // Materialized outside the locks (the pool lock is a leaf): a view's
  // scale is applied, so a banked value is its op's value byte for byte.
  for (const OpId id : salvaged) {
    abort.completed.emplace_back(id, state.take_copy(id));
  }
  metrics.fresh_buffers(state.fresh_buffers(), state.fresh_bytes());
  result.abort = std::move(abort);
  return result;
}

double Testbed::measure_mbps(topology::NodeId from, topology::NodeId to,
                             std::uint64_t bytes) {
  // Times the paced transfer alone (no worker threads), mirroring how the
  // paper measured Table 1 with point-to-point transfers.
  const topology::RackId rf = cluster_.rack_of(from);
  const topology::RackId rt = cluster_.rack_of(to);
  const util::Bandwidth bw = params_.net.between_racks(rf, rt);
  const auto start = std::chrono::steady_clock::now();
  pace(bytes, bw, params_.time_scale);
  const auto end = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(end - start).count();
  // Report in "link time": undo the time_scale speed-up.
  return static_cast<double>(bytes) * 8.0 / 1e6 / (sec * params_.time_scale);
}

}  // namespace rpr::runtime
