#include "net/tcp_runtime.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "net/message.h"
#include "net/socket.h"
#include "runtime/combine_stream.h"
#include "runtime/exec_state.h"
#include "runtime/op_trace.h"
#include "util/pacer.h"
#include "util/thread_pool.h"

namespace rpr::net {

using repair::OpId;
using repair::OpKind;
using repair::PlanOp;
using repair::RepairPlan;
using rs::Block;

TcpRuntime::TcpRuntime(topology::Cluster cluster, TcpRuntimeParams params)
    : cluster_(cluster),
      params_(std::move(params)),
      session_start_(std::chrono::steady_clock::now()) {
  if (params_.net.racks() < cluster_.racks()) {
    throw std::invalid_argument("TcpRuntime: RegionNet smaller than cluster");
  }
  if (params_.time_scale <= 0.0 || params_.pace_chunk == 0) {
    throw std::invalid_argument("TcpRuntime: bad pacing parameters");
  }
  if (params_.retry.max_attempts == 0 || params_.retry.op_deadline_s <= 0.0) {
    throw std::invalid_argument("TcpRuntime: bad retry policy");
  }
  // Whole-rack deaths lower to per-node kills; the abort machinery then
  // reports the whole failure domain in one shot.
  params_.faults.expand_racks(cluster_);
}

std::set<topology::NodeId> TcpRuntime::dead_nodes() const {
  std::scoped_lock lock(fault_mu_);
  return dead_;
}

runtime::TestbedResult TcpRuntime::execute(const RepairPlan& plan,
                                           std::span<const OpId> outputs,
                                           std::span<const Block> stripe) {
  repair::validate(plan, cluster_);
  runtime::detail::ExecState state(plan.ops.size(), plan.block_size,
                                   params_.slice_size);
  const bool sliced = state.slices() > 1;
  if (sliced) {
    // Slice framing derives offsets from plan.block_size; every streamed
    // value must be exactly that long.
    for (const PlanOp& op : plan.ops) {
      if (op.kind == OpKind::kRead &&
          stripe[op.block].size() != plan.block_size) {
        throw std::invalid_argument(
            "TcpRuntime: slice mode requires stripe blocks of "
            "plan.block_size");
      }
    }
  }
  runtime::detail::SliceMetrics metrics(params_.metrics, "tcp");

  // Which ops each node receives over the wire, and which node runs which
  // ops (sends run on the sender).
  std::vector<std::vector<OpId>> incoming_of_node(cluster_.total_nodes());
  std::vector<std::vector<OpId>> ops_of_node(cluster_.total_nodes());
  for (OpId id = 0; id < plan.ops.size(); ++id) {
    const PlanOp& op = plan.ops[id];
    if (op.kind == OpKind::kSend && op.from != op.node) {
      incoming_of_node[op.node].push_back(id);
      ops_of_node[op.from].push_back(id);
    } else if (op.kind == OpKind::kSend) {
      ops_of_node[op.from].push_back(id);
    } else {
      ops_of_node[op.node].push_back(id);
    }
  }

  // Listeners for every receiving node (ephemeral loopback ports).
  std::vector<std::unique_ptr<Listener>> listener(cluster_.total_nodes());
  std::vector<std::uint16_t> port(cluster_.total_nodes(), 0);
  for (topology::NodeId n = 0; n < cluster_.total_nodes(); ++n) {
    if (incoming_of_node[n].empty()) continue;
    listener[n] = std::make_unique<Listener>();
    port[n] = listener[n]->port();
  }

  // Teardown wake-ups: a receiving node's acceptor and idle frame loops
  // poll its wake fd beside their sockets, and it is signaled the moment
  // the last op the node is owed resolves or the node is found dead — so
  // they exit at once instead of on their next periodic poll (which stays,
  // for the wall-clock kill checks).
  std::vector<std::unique_ptr<WakeFd>> wake(cluster_.total_nodes());
  std::vector<std::atomic<std::size_t>> owed_left(cluster_.total_nodes());
  for (topology::NodeId n = 0; n < cluster_.total_nodes(); ++n) {
    owed_left[n].store(incoming_of_node[n].size());
    if (!incoming_of_node[n].empty()) wake[n] = std::make_unique<WakeFd>();
  }
  auto wake_node = [&](topology::NodeId n) {
    if (wake[n]) wake[n]->signal();
  };
  state.on_resolve = [&](OpId id) {
    const PlanOp& op = plan.ops[id];
    if (op.kind == OpKind::kSend && op.from != op.node &&
        owed_left[op.node].fetch_sub(1) == 1) {
      wake_node(op.node);
    }
  };

  // TX serialization in slice mode: concurrent streams out of one node
  // interleave at slice granularity instead of implicitly queueing on the
  // node's single worker thread (which no longer exists — one thread per
  // op). One ingest at a time per op keeps a retried stream from racing
  // the broken stream it replaces.
  // check::Mutex so port-layer acquisition edges land in the lock-order
  // graph when it is enabled (TCP threads are never *checked* — blocking
  // socket I/O cannot be cooperatively scheduled — but the analyzer's
  // acquisition recording is engine-agnostic).
  std::vector<check::Mutex> tx_mu(cluster_.total_nodes());
  std::vector<check::Mutex> ingest_mu(plan.ops.size());
  for (auto& m : tx_mu) m.set_class("tcp.tx");
  for (auto& m : ingest_mu) m.set_class("tcp.ingest");

  // Per-peer connection pool: a completed send parks its socket keyed by
  // (sender, receiver) and the next op over the same edge reuses it —
  // receivers run one frame loop per connection, so consecutive frames
  // ride one socket back to back instead of paying a connect per op. A
  // pooled socket can go stale (the peer tore it down while it sat idle);
  // the sender then reconnects immediately, burning neither a retry
  // attempt nor a backoff. An active fabric cut severs every pooled
  // connection that crosses it, the way a real partition would.
  check::Mutex pool_mu{"tcp.pool"};
  std::map<std::pair<topology::NodeId, topology::NodeId>,
           std::vector<Socket>>
      conn_pool;
  std::atomic<std::uint64_t> conns_opened{0};
  std::atomic<std::uint64_t> conns_reused{0};
  auto acquire_conn = [&](topology::NodeId from, topology::NodeId to,
                          bool& reused) -> Socket {
    {
      std::scoped_lock lock(pool_mu);
      const auto it = conn_pool.find({from, to});
      if (it != conn_pool.end() && !it->second.empty()) {
        Socket s = std::move(it->second.back());
        it->second.pop_back();
        ++conns_reused;
        reused = true;
        return s;
      }
    }
    reused = false;
    ++conns_opened;
    return connect_local(port[to], params_.retry.op_deadline_s);
  };
  auto release_conn = [&](topology::NodeId from, topology::NodeId to,
                          Socket s) {
    std::scoped_lock lock(pool_mu);
    conn_pool[{from, to}].push_back(std::move(s));
  };
  auto drop_cut_conns = [&](const fault::Partition& p) {
    std::scoped_lock lock(pool_mu);
    for (auto& [edge, conns] : conn_pool) {
      if (p.separates(cluster_.rack_of(edge.first),
                      cluster_.rack_of(edge.second))) {
        conns.clear();  // closing the sockets severs the link
      }
    }
  };

  std::atomic<std::uint64_t> cross_bytes{0};
  std::atomic<std::uint64_t> inner_bytes{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> faults{0};
  std::atomic<topology::NodeId> first_dead{fault::kNoNode};
  // First partition that exhausted an op's retries (the endpoints are
  // alive; nobody is declared lost).
  std::atomic<const fault::Partition*> first_cut{nullptr};
  const std::uint64_t max_payload = plan.block_size + 4096;

  auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         session_start_)
        .count();
  };
  // Active partition separating two racks right now, or nullptr. The cut is
  // injected at connection granularity: loopback has no real fabric, so a
  // cross-cut attempt simply fails and is retried with backoff.
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

  auto is_dead = [&](topology::NodeId node) {
    std::scoped_lock lock(fault_mu_);
    if (dead_.count(node) != 0) return true;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      session_start_)
            .count();
    for (const auto& kill : params_.faults.kills) {
      if (kill.node == node && elapsed >= kill.at_s) {
        dead_.insert(node);
        wake_node(node);
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
    wake_node(node);
    blame(node);
  };

  // One first unexpected exception wins; fault-path failures do not land
  // here — they resolve ops as failed instead.
  check::Mutex err_mu{"tcp.err"};
  std::string first_error;
  auto record_error = [&](const std::string& what) {
    std::scoped_lock lock(err_mu);
    if (first_error.empty()) first_error = what;
  };

  runtime::detail::name_node_tracks(cluster_, params_.recorder);
  // One DAG span id per plan op (0 = tracing disabled, no identity).
  const obs::SpanId span_base =
      params_.recorder == nullptr
          ? 0
          : params_.recorder->reserve_span_ids(plan.ops.size());
  const auto start = runtime::detail::TraceClock::now();

  auto run_op = [&](OpId id) {
    const PlanOp& op = plan.ops[id];
    const topology::NodeId self =
        op.kind == OpKind::kSend ? op.from : op.node;
    auto op_start = runtime::detail::TraceClock::now();
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
            op_start = runtime::detail::TraceClock::now();
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
              op_start = runtime::detail::TraceClock::now();
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

        const auto rf = cluster_.rack_of(op.from);
        const auto rt = cluster_.rack_of(op.node);
        const util::Bandwidth bw = params_.net.between_racks(rf, rt);
        // Chunked pacing: the stream averages bw*scale, one chunk per
        // delay (deadline-paced, see util/pacer.h).
        const double chunk_sec =
            static_cast<double>(params_.pace_chunk) /
            (bw.as_bytes_per_sec() * params_.time_scale);
        const auto delay_ns = static_cast<std::uint64_t>(chunk_sec * 1e9);
        const fault::Straggle* straggle =
            params_.faults.straggle_of(op.from);
        // Returns the endpoint that died, if either did (sender first).
        auto endpoint_dead = [&]() -> topology::NodeId {
          if (is_dead(op.from)) return op.from;
          if (is_dead(op.node)) return op.node;
          return fault::kNoNode;
        };

        if (!sliced) {
          // Whole-block store-and-forward (the historical path).
          if (!state.wait_inputs_done(op.inputs)) {
            state.fail(id);
            return;
          }
          op_start = runtime::detail::TraceClock::now();
          if (is_dead(self)) {
            blame(self);
            state.fail(id);
            return;
          }
          Block payload = state.take_copy(op.inputs[0]);
          op_bytes = payload.size();
          const double expected_s =
              static_cast<double>(payload.size()) /
              (bw.as_bytes_per_sec() * params_.time_scale);

          bool sent = false;
          for (std::size_t attempt = 0;
               attempt < params_.retry.max_attempts && !sent; ++attempt) {
            if (const topology::NodeId d = endpoint_dead();
                d != fault::kNoNode) {
              blame(d);
              state.fail(id);
              return;
            }
            if (const fault::Partition* p = active_partition(rf, rt)) {
              // The cut severs established connections and drops this
              // attempt: back off and retry — a later attempt may find the
              // fabric healed.
              drop_cut_conns(*p);
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
            // A straggling sender's stream crawls; the straggler detector
            // abandons the attempt at threshold x the expected duration and
            // the op is retried after backoff (speculative re-fetch).
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
            bool reused = false;
            try {
              Socket sock = acquire_conn(op.from, op.node, reused);
              metrics.begin_flight(payload.size());
              const bool ok = send_value(
                  sock, id, payload, params_.pace_chunk, delay_ns,
                  [&] { return endpoint_dead() != fault::kNoNode; });
              metrics.end_flight(payload.size());
              if (!ok) {
                // Abandoned mid-stream: closing the socket gives the
                // receiver a short read it tolerates.
                const topology::NodeId d = endpoint_dead();
                blame(d != fault::kNoNode ? d : op.node);
                state.fail(id);
                return;
              }
              (rf == rt ? inner_bytes : cross_bytes) += payload.size();
              release_conn(op.from, op.node, std::move(sock));
              sent = true;
            } catch (const std::exception&) {
              if (reused) {
                // Stale pooled socket (the peer had already torn it down):
                // reconnect right away — staleness is not a fault, so it
                // costs no attempt and no backoff.
                --attempt;
                continue;
              }
              // Connect/send error: the receiver may be gone or not
              // accepting; retry within budget.
              if (attempt + 1 < params_.retry.max_attempts) {
                ++retries;
                const double backoff = params_.retry.backoff_jittered_s(
                    attempt, jitter_key(id, op.from));
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
                op_stall_s += backoff;
              }
            }
          }
          if (!sent) {
            if (const auto* p = active_partition(rf, rt)) {
              // Retries ran out while the split was still active: the
              // receiver is alive — report a partition, declare no one
              // lost.
              note_partition(p);
            } else {
              // Every attempt failed: the receiver is unreachable — lost.
              declare_lost(op.node);
            }
            state.fail(id);
            return;
          }
          // The receiver's acceptor publishes the value; nothing to do
          // here.
          break;
        }

        // Slice-pipelined send: one frame header declaring the full
        // payload, then each slice streamed the moment the input published
        // it — the receiver ingests and republishes slice by slice, so the
        // whole downstream chain overlaps with this transfer. A retried
        // attempt resends from slice 0 (content-identical); the receiver
        // skips whatever prefix it already published.
        op_bytes = state.value_size();
        const double expected_s =
            static_cast<double>(state.value_size()) /
            (bw.as_bytes_per_sec() * params_.time_scale);
        if (!state.wait_inputs_slice(op.inputs, 0)) {
          state.fail(id);
          return;
        }
        op_start = runtime::detail::TraceClock::now();
        // The input's view is final once slice 0 published. A scaled view
        // (a read with its coefficient, or an alias of one) is multiplied
        // slice by slice into a scratch buffer on its way to the socket;
        // the receiver always owns its bytes at scale 1.
        const runtime::detail::ValueView in = state.view(op.inputs[0]);
        std::vector<std::uint8_t> scaled(in.scale != 1 ? state.slice_len(0)
                                                       : 0);
        util::Pacer pacer;

        bool sent = false;
        for (std::size_t attempt = 0;
             attempt < params_.retry.max_attempts && !sent; ++attempt) {
          if (const topology::NodeId d = endpoint_dead();
              d != fault::kNoNode) {
            blame(d);
            state.fail(id);
            return;
          }
          if (const fault::Partition* p = active_partition(rf, rt)) {
            // The cut severs established connections and drops this
            // attempt: back off and retry — a later attempt may find the
            // fabric healed.
            drop_cut_conns(*p);
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
          bool reused = false;
          try {
            Socket sock = acquire_conn(op.from, op.node, reused);
            send_header(sock, id, state.value_size());
            bool ok = true;
            std::uint64_t attempt_bytes = 0;
            for (std::size_t s = 0; s < state.slices() && ok; ++s) {
              if (!state.wait_inputs_slice(op.inputs, s)) {
                state.fail(id);
                return;
              }
              const std::size_t off = state.slice_offset(s);
              const std::size_t len = state.slice_len(s);
              const std::uint8_t* payload = in.data + off;
              if (in.scale != 1) {
                gf::mul_region(in.scale, {scaled.data(), len}, {payload, len});
                payload = scaled.data();
              }
              metrics.begin_flight(len);
              {
                std::scoped_lock tx(tx_mu[op.from]);
                ok = send_payload_chunk(
                    sock, {payload, len}, params_.pace_chunk, delay_ns,
                    [&] { return endpoint_dead() != fault::kNoNode; },
                    &pacer);
              }
              metrics.end_flight(len);
              if (ok) attempt_bytes += len;
            }
            if (!ok) {
              const topology::NodeId d = endpoint_dead();
              blame(d != fault::kNoNode ? d : op.node);
              state.fail(id);
              return;
            }
            (rf == rt ? inner_bytes : cross_bytes) += attempt_bytes;
            release_conn(op.from, op.node, std::move(sock));
            sent = true;
          } catch (const std::exception&) {
            if (reused) {
              // Stale pooled socket: reconnect right away — no attempt
              // burned, no backoff.
              --attempt;
              continue;
            }
            if (attempt + 1 < params_.retry.max_attempts) {
              ++retries;
              const double backoff = params_.retry.backoff_jittered_s(
                  attempt, jitter_key(id, op.from));
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(backoff));
              op_stall_s += backoff;
            }
          }
        }
        if (!sent) {
          if (const auto* p = active_partition(rf, rt)) {
            note_partition(p);
          } else {
            declare_lost(op.node);
          }
          state.fail(id);
          return;
        }
        break;
      }
      case OpKind::kCombine: {
        if (!sliced) {
          // Whole-block combine, inputs read in place from the shared
          // state (final once done — the historical per-input scratch
          // copies are gone), optimized pass sharded across the process
          // thread pool.
          if (!state.wait_inputs_done(op.inputs)) {
            state.fail(id);
            return;
          }
          op_start = runtime::detail::TraceClock::now();
          if (is_dead(self)) {
            blame(self);
            state.fail(id);
            return;
          }
          if (op.with_matrix_cost) {
            runtime::detail::build_and_invert_matrix(
                params_.decode_matrix_dim);
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
            // Traditional-decoder cost model: serial per-source passes.
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
        const bool done = runtime::detail::stream_combine(
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
    runtime::detail::record_op_span(params_.recorder, op, id, cluster_, start,
                                    op_start,
                                    runtime::detail::TraceClock::now(),
                                    op_bytes, span_base,
                                    static_cast<std::int64_t>(
                                        op_stall_s * 1e9));
  };

  constexpr double kAcceptPollS = 0.01;

  // Resolution check shared by the acceptor and its frame loops: a node is
  // owed every op it receives over the wire.
  auto all_owed_resolved = [&](topology::NodeId n) {
    const std::vector<OpId>& owed = incoming_of_node[n];
    return std::all_of(owed.begin(), owed.end(),
                       [&](OpId id) { return state.resolved(id); });
  };
  auto fail_owed = [&](topology::NodeId n) {
    blame(n);
    for (OpId id : incoming_of_node[n]) state.fail(id);
  };

  // Ingests one sliced frame whose header has been read: drains
  // slice-sized chunks straight into the op's value buffer and publishes
  // each one. A resumed (retried) stream re-reads the published prefix
  // into scratch — those regions are concurrently read by consumers and
  // must not be rewritten, and the resent bytes are content-identical
  // anyway. Returns false when the connection desynced mid-payload and
  // must be closed (the sender retries or has already failed the op).
  auto ingest_sliced_frame = [&](topology::NodeId n, Socket& peer,
                                 OpId id) -> bool {
    const bool cross = cluster_.rack_of(plan.ops[id].from) !=
                       cluster_.rack_of(plan.ops[id].node);
    std::scoped_lock op_lock(ingest_mu[id]);
    Block& out = state.storage(id);
    std::size_t s = state.progress(id);
    try {
      const std::size_t skip =
          std::min(state.slice_offset(s), state.value_size());
      if (skip > 0) {
        std::vector<std::uint8_t> scratch(
            std::min<std::size_t>(skip, 256u << 10));
        std::size_t left = skip;
        while (left > 0) {
          const std::size_t l = std::min(left, scratch.size());
          peer.read_exact({scratch.data(), l});
          left -= l;
        }
      }
      for (; s < state.slices(); ++s) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t len = state.slice_len(s);
        peer.read_exact({out.data() + state.slice_offset(s), len});
        if (is_dead(n)) {
          blame(n);
          state.fail(id);
          return false;
        }
        metrics.transfer_slice(
            cross,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            len);
        state.publish_slices(id, s + 1);
      }
    } catch (const std::exception&) {
      // Short read / timeout mid-stream: keep the published prefix; the
      // resumed stream picks up past it.
      return false;
    }
    return true;
  };

  // Ingests one whole-value frame (whole-block mode, odd-sized values,
  // and duplicates in either mode). The per-op lock serializes a retried
  // delivery against the original so two connections never write one
  // value buffer concurrently; publish stays first-wins. Returns false
  // when the connection desynced and must be closed.
  auto ingest_whole_frame = [&](topology::NodeId n, Socket& peer,
                                const ValueHeader& h) -> bool {
    std::scoped_lock op_lock(ingest_mu[h.op_id]);
    if (h.payload_len == state.value_size() && !state.resolved(h.op_id)) {
      // The common case: read the payload straight into the op's
      // value buffer — no per-message scratch buffer.
      Block& out = state.storage(h.op_id);
      try {
        peer.read_exact(out);
      } catch (const std::exception&) {
        return false;
      }
      if (is_dead(n)) {
        fail_owed(n);
        return false;
      }
      state.publish_all(h.op_id);
    } else {
      // Odd-sized value or duplicate of a resolved op: drain into
      // scratch (publish is first-wins / a no-op on duplicates).
      Block b(h.payload_len);
      try {
        peer.read_exact(b);
      } catch (const std::exception&) {
        return false;
      }
      if (is_dead(n)) {
        fail_owed(n);
        return false;
      }
      state.publish(h.op_id, std::move(b));
    }
    return true;
  };

  // One connection = one frame loop: with per-peer pooling on the sender
  // side, consecutive ops over the same edge arrive back to back on one
  // socket. Between frames the loop idles on a short poll — no recv
  // deadline is armed while the connection legitimately sits quiet in the
  // sender's pool — re-checking the run's exit conditions each tick. EOF
  // or a desync ends the connection; the sender reconnects if it still
  // has frames to deliver.
  auto ingest_conn = [&](topology::NodeId n, Socket peer) {
    for (;;) {
      for (;;) {  // idle: wait for the next frame or an exit condition
        if (is_dead(n)) {
          fail_owed(n);
          return;
        }
        if (all_owed_resolved(n)) return;
        if (peer.poll_readable(kAcceptPollS, wake[n]->fd())) break;
      }
      ValueHeader h;
      try {
        // Once bytes are on the wire the frame must complete promptly;
        // the deadline bounds a sender dying mid-header.
        peer.set_recv_timeout(params_.retry.op_deadline_s);
        h = recv_header(peer, max_payload);
      } catch (const std::exception&) {
        return;  // EOF or broken framing: the connection is done
      }
      if (h.op_id >= plan.ops.size()) {
        throw std::runtime_error("tcp_runtime: bogus op id on wire");
      }
      const bool ok = sliced && h.payload_len == state.value_size()
                          ? ingest_sliced_frame(n, peer, h.op_id)
                          : ingest_whole_frame(n, peer, h);
      if (!ok) return;
    }
  };

  std::vector<std::thread> threads;

  // Acceptors: each accepts connections until every op it is owed is done
  // or failed (a sender that gave up fails the op itself), or until its
  // own node dies — then the unresolved remainder fails. Accept polls
  // with a short timeout so the exit conditions are re-checked. Every
  // connection gets a frame-loop ingest thread (both modes), so pooled
  // connections keep delivering ops for the whole run and concurrent
  // streams into one node make progress independently.
  for (topology::NodeId n = 0; n < cluster_.total_nodes(); ++n) {
    if (incoming_of_node[n].empty()) continue;
    threads.emplace_back([&, n] {
      std::vector<std::thread> ingests;
      try {
        while (!all_owed_resolved(n)) {
          if (is_dead(n)) {
            fail_owed(n);
            break;
          }
          Socket peer = listener[n]->accept(kAcceptPollS, wake[n]->fd());
          if (!peer.valid()) continue;  // timeout or wake: re-check conditions
          ingests.emplace_back([&, p = std::move(peer)]() mutable {
            try {
              ingest_conn(n, std::move(p));
            } catch (const std::exception& e) {
              record_error(e.what());
            }
          });
        }
      } catch (const std::exception& e) {
        record_error(e.what());
      }
      for (auto& t : ingests) t.join();
    });
  }
  // Workers. Slice mode runs one thread per op so a node's ops stream
  // through each other; whole-block keeps the historical one worker per
  // node.
  if (sliced) {
    for (OpId id = 0; id < plan.ops.size(); ++id) {
      threads.emplace_back([&, id] {
        try {
          run_op(id);
        } catch (const std::exception& e) {
          record_error(e.what());
        }
      });
    }
  } else {
    for (topology::NodeId n = 0; n < cluster_.total_nodes(); ++n) {
      if (ops_of_node[n].empty()) continue;
      threads.emplace_back([&, n] {
        try {
          for (OpId id : ops_of_node[n]) run_op(id);
        } catch (const std::exception& e) {
          record_error(e.what());
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  if (!first_error.empty()) {
    throw std::runtime_error("TcpRuntime::execute: " + first_error);
  }

  runtime::TestbedResult result;
  result.wall_time =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start);
  result.cross_rack_bytes = cross_bytes.load();
  result.inner_rack_bytes = inner_bytes.load();
  result.retries = retries.load();
  result.faults_injected = faults.load();
  if (params_.metrics != nullptr) {
    params_.metrics->counter("tcp.conn.opened").add(conns_opened.load());
    params_.metrics->counter("tcp.conn.reused").add(conns_reused.load());
  }

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
    throw std::logic_error("tcp_runtime: output failed with no node to blame");
  }
  runtime::TestbedAbort abort;
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

}  // namespace rpr::net
