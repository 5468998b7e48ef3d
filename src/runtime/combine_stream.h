// Internal helper: the slice-streamed combine loop shared by the real
// executors (runtime::Testbed and net::TcpRuntime).
//
// A combine consumes one slice from every input as soon as all of them
// published it, writes the combined slice over the op's pooled value
// buffer (which arrives holding a previous run's bytes — see
// exec_state.h), and publishes the result slice immediately — downstream
// sends start forwarding while later slices are still being computed.
// Inputs are read in place through their views: each input's scale is
// multiplied into its coefficient once, so a scaled read or forward costs
// nothing extra here. The optimized path runs one fused multi-source
// overwrite pass per slice (a one-row gf::encode_regions), sharded across
// the process thread pool (util::ThreadPool) so wide combines are no
// longer pinned to the node's single worker; a one-input optimized combine
// (the plan's finalize step) does no pass at all — it aliases its input's
// view with its coefficient folded into the scale. The matrix-cost path
// deliberately keeps the per-source general multiply passes (the paper's
// unoptimized-decoder cost model) over a cleared slice and is not sharded,
// so its measured cost stays comparable over time.
//
// Whole-block mode does not come here: the engines keep their historical
// whole-block combine (one wait on all inputs, one fused pass into a fresh
// value).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "gf/gf256.h"
#include "gf/gf_region.h"
#include "matrix/matrix.h"
#include "repair/plan.h"
#include "runtime/exec_state.h"
#include "util/thread_pool.h"

namespace rpr::runtime::detail {

/// Real matrix-build cost of the unoptimized decode path: constructs and
/// inverts a dim x dim GF matrix (a Cauchy matrix, guaranteed invertible).
inline void build_and_invert_matrix(std::size_t dim) {
  matrix::Matrix m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.at(i, j) = gf::inv(static_cast<std::uint8_t>(i ^ (dim + j)));
    }
  }
  if (!m.inverted().has_value()) {
    throw std::logic_error("combine: decode-matrix inversion failed");
  }
}

/// Runs one combine op slice by slice. `is_node_dead` is polled before each
/// slice (each batch of slices when aliasing); returning true (the caller
/// blames the node there) aborts the op. On success every slice is
/// published and true is returned; on input failure or node death the op
/// is failed and false is returned. `op_start` is set when the first
/// slice's inputs became ready, so the recorded span excludes the
/// dependency wait like the historical path.
template <typename IsNodeDead>
bool stream_combine(ExecState& state, const repair::PlanOp& op,
                    repair::OpId id, std::size_t decode_matrix_dim,
                    SliceMetrics& metrics, IsNodeDead&& is_node_dead,
                    std::chrono::steady_clock::time_point& op_start) {
  if (op.with_matrix_cost) build_and_invert_matrix(decode_matrix_dim);
  const std::size_t nin = op.inputs.size();
  std::vector<std::uint8_t> coeffs(nin);
  for (std::size_t i = 0; i < nin; ++i) {
    coeffs[i] = op.input_coeffs.empty() ? std::uint8_t{1} : op.input_coeffs[i];
  }
  // Nothing to compute for one optimized input: forward its slices under a
  // scaled alias. Otherwise take the output buffer before waiting, off the
  // critical path.
  const bool alias = nin == 1 && !op.with_matrix_cost;
  std::uint8_t* out = alias ? nullptr : state.storage(id).data();
  if (!state.wait_inputs_slice(op.inputs, 0)) {
    state.fail(id);
    return false;
  }
  op_start = std::chrono::steady_clock::now();

  if (alias) {
    state.alias(id, op.inputs[0], coeffs[0]);
    for (std::size_t s = 0; s < state.slices();) {
      const std::size_t avail =
          state.wait_inputs_slices_batch(op.inputs, s, state.slices());
      if (avail == 0) {
        state.fail(id);
        return false;
      }
      check::point(check::PointKind::kStep, id, state.scope(),
                   "combine.slice");
      if (is_node_dead()) {
        state.fail(id);
        return false;
      }
      state.publish_slices(id, avail);
      s = avail;
    }
    return true;
  }

  // Views are final once slice 0 is published: fold each input's scale
  // into its coefficient once.
  std::vector<const std::uint8_t*> base(nin);
  for (std::size_t i = 0; i < nin; ++i) {
    const ValueView v = state.view(op.inputs[i]);
    base[i] = v.data;
    coeffs[i] = gf::mul(coeffs[i], v.scale);
  }
  std::vector<const std::uint8_t*> srcs(nin);
  for (std::size_t s = 0; s < state.slices(); ++s) {
    if (s > 0 && !state.wait_inputs_slice(op.inputs, s)) {
      state.fail(id);
      return false;
    }
    // Fault/schedule boundary between the dependency wait and the compute:
    // an explored kill can land exactly between a slice becoming ready and
    // its combine, the window the death poll below is meant to cover.
    check::point(check::PointKind::kStep, id, state.scope(), "combine.slice");
    if (is_node_dead()) {
      state.fail(id);
      return false;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t off = state.slice_offset(s);
    const std::size_t len = state.slice_len(s);
    // Published regions are final; reading them in place is race-free
    // (see exec_state.h).
    for (std::size_t i = 0; i < nin; ++i) srcs[i] = base[i] + off;
    if (op.with_matrix_cost) {
      std::memset(out + off, 0, len);
      for (std::size_t i = 0; i < nin; ++i) {
        gf::mul_region_add_general(coeffs[i], {out + off, len},
                                   {srcs[i], len});
      }
    } else {
      util::ThreadPool::shared().parallel_for(
          len, 64, 32 << 10, [&](std::size_t b, std::size_t e) {
            std::vector<const std::uint8_t*> sub(nin);
            for (std::size_t i = 0; i < nin; ++i) sub[i] = srcs[i] + b;
            std::uint8_t* dst = out + off + b;
            gf::encode_regions(coeffs, 1, nin, sub.data(), &dst, e - b);
          });
    }
    metrics.combine_slice(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        len);
    state.publish_slices(id, s + 1);
  }
  return true;
}

}  // namespace rpr::runtime::detail
