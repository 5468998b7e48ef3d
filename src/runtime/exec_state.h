// Slice-aware shared execution state for the real executors
// (runtime::Testbed and net::TcpRuntime).
//
// Both engines run one producer per op and many consumers waiting on op
// values. Historically a value was an all-or-nothing Block; slice
// pipelining (Li et al., "Repair Pipelining for Erasure-Coded Storage")
// cuts every value into fixed-size slices that become visible to consumers
// one by one, so a downstream combine/send can start the moment slice 0
// lands instead of buffering the whole intermediate. This header carries
// the state machine both engines share:
//
//  * in slice mode an op's value is a *view*: a pointer to value_size()
//    bytes plus a GF(2^8) scale, the value being scale x those bytes. Bytes
//    are written only where a real transfer or a combine produces them. A
//    read views its stripe block scaled by its coefficient; a forward (a
//    testbed send, a local move, a one-input combine) aliases its input's
//    view and folds its own coefficient into the scale. Consumers fold the
//    scale in where they touch the bytes: a combine multiplies it into its
//    input coefficients, a TCP sender into a slice scratch buffer, and an
//    output or a salvaged value is materialized (copy x scale) at the end.
//    A view never changes once its op published slice 0, and it points
//    into memory that outlives the run (the caller's stripe, or a value
//    buffer of this state that is never reallocated once sized);
//  * an op that produces bytes (a multi-input combine, a TCP ingest, a
//    whole-block producer) owns one value-sized buffer, handed to it by
//    storage() and viewed with scale 1 — consumers read published regions
//    in place (no per-message scratch copies);
//  * owned buffers are pooled and overwrite-only: storage() draws from the
//    process-wide BlockPool, so a buffer arrives holding a previous run's
//    bytes, and every producer overwrites its whole value. Nothing is
//    zero-filled, and a warm repair faults in no pages. A request the pool
//    cannot serve allocates fresh and is counted (fresh_buffers());
//  * outputs leave by move: take_outputs() hands the caller the owning
//    buffer itself unless the output is scaled or a second output shares
//    the owner — then it materializes a copy;
//  * the pool retains buffers of the most recently used value size only,
//    and never more than the most one ExecState has held at that size —
//    retained memory is bounded by one repair's peak;
//  * slices complete strictly in order per op (each op has exactly one
//    producer thread), so per-op progress is a single counter;
//  * publication is mutex-protected: a consumer that observed
//    `slices_done[id] > s` under the lock reads slice s's bytes (and the
//    op's view) happens-after the producer wrote them. Producers write
//    slice bytes *outside* the lock (disjoint from every published region);
//  * resolution is first-wins (a TCP send can be failed by its sender and
//    published by its acceptor in a race; whichever lands first sticks),
//    and `on_resolve`, when set, hears each op's resolution exactly once.
//
// Whole-block mode is the degenerate case slice_count == 1; engines built
// on this state keep their historical store-and-forward behavior there
// (every value owned, scale 1, outputs copied out).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "check/scheduler.h"
#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "obs/metrics.h"
#include "repair/plan.h"
#include "rs/rs_code.h"
#include "util/slice.h"

namespace rpr::runtime {

// The slice arithmetic lives in util/slice.h so the simulator's lowering
// cuts values identically; re-exported here for the engine params' defaults.
using util::default_slice_size;
using util::slice_count;

/// Process-wide recycler of value buffers for ExecState (see file
/// comment). A buffer handed out by take() holds arbitrary bytes; callers
/// overwrite it. The mutex is a leaf lock: no other lock is held while it
/// is taken and none is taken under it; buffers are allocated and freed
/// outside it.
class BlockPool {
 public:
  /// The process-wide pool, created on first use.
  static BlockPool& shared() {
    static BlockPool pool;
    return pool;
  }

  /// A `size`-byte buffer: a retained one when available, else a fresh
  /// allocation (and `*fresh`, when given, is set). Requesting a new size
  /// drops every retained buffer.
  rs::Block take(std::size_t size, bool* fresh = nullptr) {
    std::vector<rs::Block> stale;
    {
      std::scoped_lock lock(mu_);
      resize_locked(size, stale);
      if (!free_.empty()) {
        rs::Block b = std::move(free_.back());
        free_.pop_back();
        if (fresh != nullptr) *fresh = false;
        return b;
      }
    }
    if (fresh != nullptr) *fresh = true;
    return rs::Block(size);
  }

  /// Takes back the `size`-byte buffers among `values` (one ExecState's
  /// values; others stay where they are). The pool keeps no more buffers
  /// than the most any one ExecState has held at this size — the retention
  /// bound — so a small run between two repairs does not shrink it. A size
  /// other than the retained one counts as a request: a whole-block run
  /// never calls take(), yet must not leave a larger size's buffers pinned.
  void give(std::vector<rs::Block>& values, std::size_t size) {
    if (size == 0) return;
    std::size_t held = 0;
    for (const rs::Block& v : values) held += v.size() == size ? 1U : 0U;
    std::vector<rs::Block> stale;
    std::scoped_lock lock(mu_);
    resize_locked(size, stale);
    cap_ = std::max(cap_, held);
    for (rs::Block& v : values) {
      if (free_.size() >= cap_) break;
      if (v.size() == size) free_.push_back(std::move(v));
    }
  }

  /// Bytes currently retained, and how many buffers hold them.
  [[nodiscard]] std::size_t retained_bytes() {
    std::scoped_lock lock(mu_);
    return free_.size() * size_;
  }
  [[nodiscard]] std::size_t retained_buffers() {
    std::scoped_lock lock(mu_);
    return free_.size();
  }

 private:
  /// Switches the pool to `size`, moving the old size's buffers to `stale`
  /// (freed by the caller after unlocking).
  void resize_locked(std::size_t size, std::vector<rs::Block>& stale) {
    if (size == size_) return;
    stale.swap(free_);
    size_ = size;
    cap_ = 0;
  }

  check::Mutex mu_{"exec.pool"};
  std::size_t size_ = 0;
  std::size_t cap_ = 0;  // most buffers one ExecState held at size_
  std::vector<rs::Block> free_;
};

namespace detail {

/// Null-safe per-slice telemetry: latency histograms per phase, slice
/// counters, and a high-water gauge of payload bytes concurrently in
/// flight across transfers. All hooks are no-ops without a registry.
class SliceMetrics {
 public:
  SliceMetrics(obs::MetricsRegistry* reg, const char* prefix) {
    if (reg == nullptr) return;
    const std::string p(prefix);
    cross_ = &reg->histogram(p + ".slice.cross_latency_s");
    inner_ = &reg->histogram(p + ".slice.inner_latency_s");
    combine_ = &reg->histogram(p + ".slice.combine_latency_s");
    slices_ = &reg->counter(p + ".slice.count");
    bytes_ = &reg->counter(p + ".slice.bytes");
    peak_ = &reg->max_gauge(p + ".bytes_in_flight_peak");
    fresh_ = &reg->counter(p + ".value_buffers.fresh");
    fresh_bytes_ = &reg->counter(p + ".value_buffers.fresh_bytes");
  }

  /// Value buffers one run had to allocate because the pool had none to
  /// give (ExecState::fresh_buffers / fresh_bytes).
  void fresh_buffers(std::uint64_t count, std::uint64_t bytes) {
    if (fresh_ == nullptr) return;
    fresh_->add(count);
    fresh_bytes_->add(bytes);
  }

  void transfer_slice(bool cross_rack, double seconds, std::size_t len) {
    if (slices_ == nullptr) return;
    (cross_rack ? cross_ : inner_)->observe(seconds);
    slices_->increment();
    bytes_->add(len);
  }

  void combine_slice(double seconds, std::size_t len) {
    if (slices_ == nullptr) return;
    combine_->observe(seconds);
    slices_->increment();
    bytes_->add(len);
  }

  /// Call around a transfer's in-flight window; keeps the peak gauge.
  void begin_flight(std::size_t len) {
    if (peak_ == nullptr) return;
    const std::uint64_t now =
        in_flight_.fetch_add(len, std::memory_order_relaxed) + len;
    peak_->observe(static_cast<double>(now));
  }
  void end_flight(std::size_t len) {
    if (peak_ == nullptr) return;
    in_flight_.fetch_sub(len, std::memory_order_relaxed);
  }

 private:
  obs::Histogram* cross_ = nullptr;
  obs::Histogram* inner_ = nullptr;
  obs::Histogram* combine_ = nullptr;
  obs::Counter* slices_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::MaxGauge* peak_ = nullptr;
  obs::Counter* fresh_ = nullptr;
  obs::Counter* fresh_bytes_ = nullptr;
  std::atomic<std::uint64_t> in_flight_{0};
};

/// An op's value as its consumers read it: `scale` x the bytes at `data`
/// (see file comment). `owner` is the op whose buffer in ExecState::value
/// holds the bytes, or kNoOp when they are the caller's (a stripe block).
struct ValueView {
  const std::uint8_t* data = nullptr;
  std::uint8_t scale = 1;
  repair::OpId owner = repair::kNoOp;
};

/// Shared per-run execution state (see file comment).
class ExecState {
 public:
  ExecState(std::size_t ops, std::size_t value_size, std::size_t slice_size)
      : value(ops),
        slices_done(ops, 0),
        done(ops, false),
        failed(ops, false),
        views_(ops),
        value_size_(value_size),
        slice_size_(slice_size == 0 ? value_size : slice_size),
        slices_(slice_count(value_size, slice_size)) {}
  ExecState(const ExecState&) = delete;
  ExecState& operator=(const ExecState&) = delete;
  /// Returns every value-sized buffer to the pool. Engines own their state
  /// on the calling thread, never a checked one, so the pool lock cannot
  /// throw check::AbortRun out of this destructor.
  ~ExecState() { BlockPool::shared().give(value, value_size_); }

  /// Slices every value is cut into (1 = whole-block mode).
  [[nodiscard]] std::size_t slices() const noexcept { return slices_; }
  [[nodiscard]] std::size_t value_size() const noexcept { return value_size_; }

  /// Byte offset of slice s.
  [[nodiscard]] std::size_t slice_offset(std::size_t s) const noexcept {
    return s * slice_size_;
  }
  /// Byte length of slice s (the last slice absorbs the tail).
  [[nodiscard]] std::size_t slice_len(std::size_t s) const noexcept {
    const std::size_t off = slice_offset(s);
    return off >= value_size_
               ? 0
               : (s + 1 == slices_ ? value_size_ - off : slice_size_);
  }

  /// The op's value buffer, drawn from the pool on first call with
  /// arbitrary contents (and viewed with scale 1): the producer must
  /// overwrite every slice it publishes. Only the op's producer may call
  /// this before publication; the returned reference (and the buffer's
  /// data pointer) is stable for the run.
  rs::Block& storage(repair::OpId id) {
    {
      std::unique_lock lock(mu);
      if (value[id].size() == value_size_) return value[id];
    }
    rs::Block fresh = pooled();
    std::unique_lock lock(mu);
    if (value[id].size() != value_size_) {
      value[id].swap(fresh);
      set_own_view_locked(id);
    }
    return value[id];
  }

  /// Publishes every slice of `id` at once as a view of `data` (value_size()
  /// caller-owned bytes that outlive the run) scaled by `scale` — a read of
  /// a stripe block. No-op on a resolved op.
  void publish_view(repair::OpId id, const std::uint8_t* data,
                    std::uint8_t scale) {
    {
      std::unique_lock lock(mu);
      if (slices_done[id] == 0 && !failed[id]) {
        views_[id] = ValueView{data, scale, repair::kNoOp};
      }
    }
    publish_all(id);
  }

  /// Makes `id` view the same bytes as `src`, scaled by `scale` on top of
  /// src's own scale. Call before publishing any slice of `id`, after `src`
  /// published its first slice (its view is final from then on).
  void alias(repair::OpId id, repair::OpId src, std::uint8_t scale = 1) {
    std::unique_lock lock(mu);
    if (slices_done[id] != 0) return;
    ValueView v = views_[src];
    v.scale = gf::mul(v.scale, scale);
    views_[id] = v;
  }

  /// The view of `id`; final once the op published its first slice.
  [[nodiscard]] ValueView view(repair::OpId id) {
    std::unique_lock lock(mu);
    return views_[id];
  }

  /// Blocks until every input has published slice s (true) or any input
  /// failed (false).
  bool wait_inputs_slice(const std::vector<repair::OpId>& ids,
                         std::size_t s) {
    std::unique_lock lock(mu);
    wait_on(lock, [&] {
      for (repair::OpId id : ids) {
        if (failed[id]) return true;
      }
      for (repair::OpId id : ids) {
        if (slices_done[id] <= s) return false;
      }
      return true;
    });
    for (repair::OpId id : ids) {
      if (failed[id]) return false;
    }
    return true;
  }

  /// Blocks until every input is fully done (true) or any failed (false).
  bool wait_inputs_done(const std::vector<repair::OpId>& ids) {
    return slices_ == 0 ? true : wait_inputs_slice(ids, slices_ - 1);
  }

  /// Batch form of wait_inputs_slice: blocks until every input has
  /// published slice `s`, then returns the count of contiguous slices
  /// published by ALL inputs, capped at `max_upto` (> s, <= slices()).
  /// Returns 0 when any input failed. A consumer keeping pace with its
  /// producers sees exactly s + 1 (no behavior change); a consumer that
  /// fell behind (or one fed by an instantly-published read) drains the
  /// backlog in one call instead of one lock round-trip per slice.
  std::size_t wait_inputs_slices_batch(const std::vector<repair::OpId>& ids,
                                       std::size_t s, std::size_t max_upto) {
    std::unique_lock lock(mu);
    wait_on(lock, [&] {
      for (repair::OpId id : ids) {
        if (failed[id]) return true;
      }
      for (repair::OpId id : ids) {
        if (slices_done[id] <= s) return false;
      }
      return true;
    });
    for (repair::OpId id : ids) {
      if (failed[id]) return 0;
    }
    std::size_t upto = max_upto > slices_ ? slices_ : max_upto;
    for (repair::OpId id : ids) {
      if (slices_done[id] < upto) upto = slices_done[id];
    }
    return upto;
  }

  /// Marks slices [0, upto) of `id` published (producer wrote their bytes
  /// before calling). Monotonic; no-op on a resolved op (first-wins).
  /// The kNonMonotonicPublish mutation bypasses the monotonic guard so the
  /// model checker's detection of a backwards counter can itself be tested.
  void publish_slices(repair::OpId id, std::size_t upto) {
    check::point(check::PointKind::kPublish, id, scope(), "exec.publish");
    check::Event counter_ev{check::EventKind::kSliceCounter, scope(), id,
                            0, 0, false};
    bool changed = false;
    bool committed = false;
    {
      std::unique_lock lock(mu);
      counter_ev.a = slices_done[id];
      if (failed[id]) return;
      if (slices_done[id] >= upto &&
          !check::mutated(check::Mutation::kNonMonotonicPublish)) {
        return;
      }
      slices_done[id] = upto;
      counter_ev.b = upto;
      changed = true;
      if (upto >= slices_ && !done[id]) {
        done[id] = true;
        committed = true;
      }
    }
    if (changed) check::observe(counter_ev);
    if (committed) {
      check::observe(check::Event{check::EventKind::kCommit, scope(), id, 0,
                                  0, false});
      if (on_resolve) on_resolve(id);
    }
    cv.notify_all();
    check::notify_object(cond_obj());
  }

  /// Publishes a complete value in one step (whole-block producers, and a
  /// sliced sender's retry path publishing a fully materialized value).
  /// When the value buffer was sized by storage(), the bytes are copied
  /// into it rather than move-replacing the vector: a concurrent slice
  /// consumer may hold the buffer's data() pointer across this call (the
  /// class contract says it is stable for the run), so the buffer must
  /// never reallocate once sized. Found by the schedule explorer; the
  /// exposing schedule is pinned in check_test.cpp
  /// (ExplorerFindings.PublishKeepsStorageStable).
  void publish(repair::OpId id, rs::Block b) {
    check::point(check::PointKind::kResolve, id, scope(), "exec.commit");
    bool resolved_already = false;
    {
      std::unique_lock lock(mu);
      resolved_already = done[id] || failed[id];
      const bool proceed =
          !resolved_already || check::mutated(check::Mutation::kDoubleCommit);
      if (!proceed) return;
      if (value[id].size() == b.size() && !value[id].empty()) {
        std::memcpy(value[id].data(), b.data(), b.size());
      } else {
        value[id] = std::move(b);
      }
      // A view a consumer may already hold (slices published) stays; its
      // bytes are the same value.
      if (slices_done[id] == 0 || views_[id].data == nullptr) {
        set_own_view_locked(id);
      }
      slices_done[id] = slices_;
      done[id] = true;
    }
    check::observe(check::Event{check::EventKind::kCommit, scope(), id, 0, 0,
                                resolved_already});
    if (!resolved_already && on_resolve) on_resolve(id);
    cv.notify_all();
    check::notify_object(cond_obj());
  }

  /// Marks a fully-published op done without replacing its buffer (the
  /// producer streamed slices directly into storage()).
  void publish_all(repair::OpId id) { publish_slices(id, slices_); }

  void fail(repair::OpId id) {
    check::point(check::PointKind::kResolve, id, scope(), "exec.fail");
    {
      std::unique_lock lock(mu);
      if (done[id] || failed[id]) return;
      failed[id] = true;
    }
    check::observe(
        check::Event{check::EventKind::kFail, scope(), id, 0, 0, false});
    if (on_resolve) on_resolve(id);
    cv.notify_all();
    check::notify_object(cond_obj());
  }

  [[nodiscard]] bool resolved(repair::OpId id) {
    std::unique_lock lock(mu);
    return done[id] || failed[id];
  }

  /// Published-slice progress (for resuming an interrupted ingest).
  [[nodiscard]] std::size_t progress(repair::OpId id) {
    std::unique_lock lock(mu);
    return slices_done[id];
  }

  /// A copy of `id`'s value, materialized from its view (copy x scale).
  /// Empty when the op never produced one. Call with no producer running.
  rs::Block take_copy(repair::OpId id) {
    const ValueView v = view(id);
    if (v.data == nullptr || (v.owner == id && v.scale == 1)) {
      std::unique_lock lock(mu);
      return value[id];
    }
    return materialize(v);
  }

  /// The values of `ids`, for returning to the caller once every producer
  /// has finished. In slice mode an output whose view is its owner's whole
  /// buffer at scale 1 takes that buffer by move; a scaled output, one
  /// viewing the caller's memory, or a second output of an owner already
  /// moved out is materialized. Whole-block mode copies (its historical
  /// behavior).
  std::vector<rs::Block> take_outputs(std::span<const repair::OpId> ids) {
    std::vector<rs::Block> out;
    out.reserve(ids.size());
    std::vector<bool> moved(value.size(), false);
    for (const repair::OpId id : ids) {
      const ValueView v = view(id);
      if (slices_ == 1 || v.data == nullptr) {
        out.push_back(take_copy(id));
      } else if (v.owner != repair::kNoOp && v.scale == 1 &&
                 !moved[v.owner]) {
        moved[v.owner] = true;
        std::unique_lock lock(mu);
        out.push_back(std::move(value[v.owner]));
      } else {
        // Still valid if the owner moved out above: the bytes moved with it.
        out.push_back(materialize(v));
      }
    }
    return out;
  }

  /// Value buffers this run allocated because the pool had none, and their
  /// bytes.
  [[nodiscard]] std::uint64_t fresh_buffers() const noexcept {
    return fresh_buffers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fresh_bytes() const noexcept {
    return fresh_buffers() * value_size_;
  }

  /// Called (outside the lock) once per op, by the thread whose publish or
  /// fail resolved it. Set before any producer starts.
  std::function<void(repair::OpId)> on_resolve;

  check::Mutex mu{"exec.state"};
  std::condition_variable_any cv;
  std::vector<rs::Block> value;
  std::vector<std::size_t> slices_done;
  std::vector<bool> done;
  std::vector<bool> failed;

  /// Event/scope identity of this state instance (a re-planning driver
  /// builds a fresh ExecState per attempt; oracles key on it). A per-run
  /// generation id, NOT the heap address: the allocator can reuse one
  /// attempt's address for the next attempt's state, which aliased two
  /// attempts in the first-wins oracle. Found by the schedule explorer on
  /// the resilient re-plan scenario.
  [[nodiscard]] std::uintptr_t scope() const noexcept { return scope_id_; }

 private:
  [[nodiscard]] std::uintptr_t cond_obj() const {
    return reinterpret_cast<std::uintptr_t>(&cv);
  }

  void set_own_view_locked(repair::OpId id) {
    views_[id] = ValueView{value[id].data(), 1, id};
  }

  /// A value-sized buffer from the pool, counting a miss.
  rs::Block pooled() {
    bool fresh = false;
    rs::Block b;
    if (value_size_ != 0) b = BlockPool::shared().take(value_size_, &fresh);
    if (fresh) fresh_buffers_.fetch_add(1, std::memory_order_relaxed);
    return b;
  }

  /// A new buffer holding `v`'s value (copy x scale).
  rs::Block materialize(const ValueView& v) {
    rs::Block b = pooled();
    gf::mul_region(v.scale, b, {v.data, b.size()});
    return b;
  }

  /// Condition wait: the plain cv under production, a cooperative
  /// block/notify loop when the calling thread is checked (the scheduler
  /// serializes checked threads, so the unlock -> block_on window admits
  /// no lost wakeup).
  template <typename Pred>
  void wait_on(std::unique_lock<check::Mutex>& lock, Pred pred) {
    if (check::Scheduler* s = check::scheduled()) {
      while (!pred()) {
        lock.unlock();
        s->block_on(check::Point{check::PointKind::kCondWait, cond_obj(),
                                 scope(), "exec.wait"});
        lock.lock();
      }
    } else {
      cv.wait(lock, std::move(pred));
    }
  }

  std::vector<ValueView> views_;
  std::size_t value_size_;
  std::size_t slice_size_;
  std::size_t slices_;
  std::atomic<std::uint64_t> fresh_buffers_{0};
  std::uintptr_t scope_id_ = check::next_scope_id();
};

}  // namespace detail
}  // namespace rpr::runtime
