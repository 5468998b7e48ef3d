// Slice-pipelined dataplane tests: the slice arithmetic shared by every
// engine, byte-identical rebuilds under slicing on the threaded testbed and
// the TCP loopback runtime (odd tails, slice == block, slice > block), the
// simulator's slice-overlap lowering (traffic invariant, chained-plan
// makespan collapse) on both the port and fluid models, the per-phase
// slice metrics emitted by the obs probe, the pooled value buffers
// (byte-exact reuse across interleaved plans and after an aborted run, and
// the pool's retention bound), and the sliced engines' value views (scaled
// reads, aliased forwards, moved and materialized outputs, salvaged values,
// the pool-miss counter, the TCP teardown wake-up).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "repair/executor_data.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "repair/resilient.h"
#include "runtime/exec_state.h"
#include "runtime/testbed.h"
#include "test_support.h"
#include "topology/placement.h"
#include "util/slice.h"

using rpr::repair::OpId;
using rpr::repair::RepairProblem;
using rpr::rs::Block;
using rpr::runtime::RegionNet;
using rpr::runtime::Testbed;
using rpr::runtime::TestbedParams;
using rpr::util::Bandwidth;
using rpr::util::slice_count;
using rpr::util::slice_len;

namespace {

// --- slice arithmetic -----------------------------------------------------

TEST(SliceMath, ZeroSliceSizeMeansWholeBlock) {
  EXPECT_EQ(slice_count(1 << 20, 0), 1u);
  EXPECT_EQ(slice_len(1 << 20, 0, 0), std::size_t{1} << 20);
  EXPECT_EQ(slice_len(1 << 20, 0, 1), 0u);
}

TEST(SliceMath, SliceAtLeastBlockDegeneratesToWholeBlock) {
  EXPECT_EQ(slice_count(4096, 4096), 1u);
  EXPECT_EQ(slice_count(4096, 8192), 1u);
  EXPECT_EQ(slice_len(4096, 8192, 0), 4096u);
}

TEST(SliceMath, LastSliceAbsorbsOddTail) {
  // 100000 = 24 * 4096 + 1696.
  EXPECT_EQ(slice_count(100000, 4096), 25u);
  for (std::size_t s = 0; s < 24; ++s) {
    EXPECT_EQ(slice_len(100000, 4096, s), 4096u);
  }
  EXPECT_EQ(slice_len(100000, 4096, 24), 1696u);
  EXPECT_EQ(slice_len(100000, 4096, 25), 0u);
}

TEST(SliceMath, SliceLengthsSumToValueSize) {
  for (const std::size_t value : {std::size_t{1}, std::size_t{4095},
                                  std::size_t{4096}, std::size_t{100000}}) {
    for (const std::size_t slice :
         {std::size_t{0}, std::size_t{1000}, std::size_t{4096},
          std::size_t{1} << 20}) {
      std::size_t total = 0;
      const std::size_t n = slice_count(value, slice);
      for (std::size_t s = 0; s < n; ++s) total += slice_len(value, slice, s);
      EXPECT_EQ(total, value) << value << "/" << slice;
    }
  }
}

TEST(SliceMath, ZeroByteValueStillCountsOneSlice) {
  EXPECT_EQ(slice_count(0, 4096), 1u);
  EXPECT_EQ(slice_len(0, 4096, 0), 0u);
}

// --- shared repair fixture ------------------------------------------------

/// One single-failure (6,3) RPR repair over real bytes of `block_size`.
struct SlicedRepair {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{6, 3}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {6, 3}, rpr::topology::PlacementPolicy::kRpr);
  std::vector<Block> stripe;
  RepairProblem problem;
  rpr::repair::PlannedRepair planned;
  std::vector<Block> expected;

  explicit SlicedRepair(std::size_t block_size) {
    stripe = rpr::testing::random_stripe(code, block_size, 33);
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = block_size;
    problem.failed = {0};
    problem.choose_default_replacements();
    planned = rpr::repair::make_planner(rpr::repair::Scheme::kRpr)
                  ->plan(problem);
    expected = rpr::repair::execute_on_data(planned.plan, planned.outputs,
                                            stripe);
  }
};

TestbedParams fast_testbed(std::size_t racks) {
  TestbedParams p;
  p.net = RegionNet::uniform(racks, Bandwidth::gbps(10), Bandwidth::gbps(1));
  p.time_scale = 256.0;
  p.decode_matrix_dim = 6;
  return p;
}

rpr::net::TcpRuntimeParams fast_tcp(std::size_t racks) {
  rpr::net::TcpRuntimeParams p;
  p.net = RegionNet::uniform(racks, Bandwidth::gbps(10), Bandwidth::gbps(1));
  p.time_scale = 256.0;
  p.decode_matrix_dim = 6;
  return p;
}

}  // namespace

// --- threaded testbed -----------------------------------------------------

TEST(SlicedTestbed, ByteIdenticalAcrossSliceSizes) {
  // Odd block size: every slice boundary case (odd tail, slice == block,
  // slice > block, whole-block) must reproduce the oracle bytes exactly.
  SlicedRepair r(100000);
  for (const std::size_t slice :
       {std::size_t{0}, std::size_t{4096}, std::size_t{100000},
        std::size_t{1} << 20}) {
    TestbedParams p = fast_testbed(r.placed.cluster.racks());
    p.slice_size = slice;
    Testbed bed(r.placed.cluster, p);
    const auto result =
        bed.execute(r.planned.plan, r.planned.outputs, r.stripe);
    ASSERT_EQ(result.outputs.size(), 1u) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.expected[0]) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.stripe[0]) << "slice=" << slice;
  }
}

TEST(SlicedTestbed, TrafficBytesMatchWholeBlockMode) {
  SlicedRepair r(100000);
  TestbedParams whole = fast_testbed(r.placed.cluster.racks());
  Testbed whole_bed(r.placed.cluster, whole);
  const auto base =
      whole_bed.execute(r.planned.plan, r.planned.outputs, r.stripe);

  TestbedParams sliced = whole;
  sliced.slice_size = 4096;
  Testbed sliced_bed(r.placed.cluster, sliced);
  const auto result =
      sliced_bed.execute(r.planned.plan, r.planned.outputs, r.stripe);
  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
}

TEST(SlicedTestbed, EmitsPerPhaseSliceMetrics) {
  SlicedRepair r(100000);
  rpr::obs::MetricsRegistry registry;
  TestbedParams p = fast_testbed(r.placed.cluster.racks());
  p.slice_size = 4096;
  p.metrics = &registry;
  Testbed bed(r.placed.cluster, p);
  const auto result =
      bed.execute(r.planned.plan, r.planned.outputs, r.stripe);
  ASSERT_EQ(result.outputs[0], r.stripe[0]);

  const auto* count = registry.find_counter("testbed.slice.count");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->value(), 0u);
  const auto* bytes = registry.find_counter("testbed.slice.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value(), 0u);
  const auto* combine =
      registry.find_histogram("testbed.slice.combine_latency_s");
  ASSERT_NE(combine, nullptr);
  EXPECT_GT(combine->count(), 0u);
  // The RPR plan for (6,3) always crosses racks at least once.
  const auto* cross =
      registry.find_histogram("testbed.slice.cross_latency_s");
  ASSERT_NE(cross, nullptr);
  EXPECT_GT(cross->count(), 0u);
}

TEST(SlicedTestbed, RejectsMismatchedReadSizeInSliceMode) {
  // Slice mode streams directly out of the stripe buffers, so a kRead whose
  // backing block disagrees with plan.block_size must be rejected up front.
  SlicedRepair r(4096);
  r.planned.plan.block_size = 8192;  // plan now disagrees with the stripe
  TestbedParams p = fast_testbed(r.placed.cluster.racks());
  p.slice_size = 1024;
  Testbed bed(r.placed.cluster, p);
  EXPECT_THROW(bed.execute(r.planned.plan, r.planned.outputs, r.stripe),
               std::invalid_argument);
}

// --- TCP loopback ---------------------------------------------------------

TEST(SlicedTcp, ByteIdenticalAcrossSliceSizes) {
  SlicedRepair r(100000);
  for (const std::size_t slice :
       {std::size_t{0}, std::size_t{4096}, std::size_t{100000},
        std::size_t{1} << 20}) {
    rpr::net::TcpRuntimeParams p = fast_tcp(r.placed.cluster.racks());
    p.slice_size = slice;
    rpr::net::TcpRuntime rt(r.placed.cluster, p);
    const auto result =
        rt.execute(r.planned.plan, r.planned.outputs, r.stripe);
    ASSERT_EQ(result.outputs.size(), 1u) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.expected[0]) << "slice=" << slice;
    EXPECT_EQ(result.outputs[0], r.stripe[0]) << "slice=" << slice;
  }
}

TEST(SlicedTcp, OddSliceSizeAndTrafficInvariant) {
  // A slice size that divides nothing (1000 into 100000-byte blocks) pushes
  // the odd-tail path through the streaming protocol; traffic totals must
  // still equal whole-block mode.
  SlicedRepair r(100000);
  rpr::net::TcpRuntimeParams whole = fast_tcp(r.placed.cluster.racks());
  rpr::net::TcpRuntime whole_rt(r.placed.cluster, whole);
  const auto base =
      whole_rt.execute(r.planned.plan, r.planned.outputs, r.stripe);

  rpr::net::TcpRuntimeParams sliced = whole;
  sliced.slice_size = 1000;
  rpr::net::TcpRuntime rt(r.placed.cluster, sliced);
  const auto result =
      rt.execute(r.planned.plan, r.planned.outputs, r.stripe);
  EXPECT_EQ(result.outputs[0], r.stripe[0]);
  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
}

TEST(SlicedTcp, EmitsPerPhaseSliceMetrics) {
  SlicedRepair r(100000);
  rpr::obs::MetricsRegistry registry;
  rpr::net::TcpRuntimeParams p = fast_tcp(r.placed.cluster.racks());
  p.slice_size = 4096;
  p.metrics = &registry;
  rpr::net::TcpRuntime rt(r.placed.cluster, p);
  const auto result =
      rt.execute(r.planned.plan, r.planned.outputs, r.stripe);
  ASSERT_EQ(result.outputs[0], r.stripe[0]);

  const auto* count = registry.find_counter("tcp.slice.count");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->value(), 0u);
  const auto* combine =
      registry.find_histogram("tcp.slice.combine_latency_s");
  ASSERT_NE(combine, nullptr);
  EXPECT_GT(combine->count(), 0u);
}

// --- discrete-event simulator --------------------------------------------

namespace {

/// A deep chained plan: RPR on (14,10) relays partial sums rack by rack, so
/// whole-block stage costs add up while slicing overlaps them.
struct ChainedSimRepair {
  rpr::rs::RSCode code{rpr::rs::CodeConfig{14, 10}};
  rpr::topology::PlacedStripe placed = rpr::topology::make_placed_stripe(
      {14, 10}, rpr::topology::PlacementPolicy::kRpr);
  RepairProblem problem;
  rpr::repair::PlannedRepair planned;

  ChainedSimRepair() {
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 64ull << 20;
    problem.failed = {0};
    problem.choose_default_replacements();
    planned = rpr::repair::make_planner(rpr::repair::Scheme::kRpr)
                  ->plan(problem);
  }
};

}  // namespace

TEST(SlicedSimnet, TrafficInvariantAndChainedMakespanCollapses) {
  ChainedSimRepair r;
  rpr::topology::NetworkParams whole;
  const auto base =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, whole);

  rpr::topology::NetworkParams sliced = whole;
  sliced.slice_size = 1 << 20;
  const auto result =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, sliced);

  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
  EXPECT_EQ(result.rack_upload_bytes, base.rack_upload_bytes);
  // Pipelining strictly overlaps the relay chain's stages.
  EXPECT_LT(result.total_repair_time, base.total_repair_time);
  EXPECT_GT(result.total_repair_time, 0.0);
}

TEST(SlicedSimnet, FluidModelTrafficInvariantAndNoSlowdown) {
  ChainedSimRepair r;
  rpr::topology::NetworkParams whole;
  const auto base =
      rpr::repair::simulate_fluid(r.planned.plan, r.placed.cluster, whole);

  rpr::topology::NetworkParams sliced = whole;
  sliced.slice_size = 1 << 20;
  const auto result =
      rpr::repair::simulate_fluid(r.planned.plan, r.placed.cluster, sliced);

  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.inner_rack_bytes, base.inner_rack_bytes);
  EXPECT_GT(result.total_repair_time, 0.0);
  // Fluid fair-sharing may already overlap flows, but slicing must never
  // make the makespan worse (the self-chain serializes each stream exactly
  // as its ports would).
  EXPECT_LE(result.total_repair_time, base.total_repair_time * 1.0001);
}

TEST(SlicedSimnet, WholeBlockSliceSizeIsIdentityLowering) {
  // slice_size >= block_size must reproduce the historical lowering bit for
  // bit: same makespan, same traffic, same transfer counts.
  SlicedRepair r(4096);
  rpr::topology::NetworkParams whole;
  const auto base =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, whole);

  rpr::topology::NetworkParams sliced = whole;
  sliced.slice_size = 64ull << 20;  // > block: one slice
  const auto result =
      rpr::repair::simulate(r.planned.plan, r.placed.cluster, sliced);
  EXPECT_EQ(result.total_repair_time, base.total_repair_time);
  EXPECT_EQ(result.cross_rack_bytes, base.cross_rack_bytes);
  EXPECT_EQ(result.cross_rack_transfers, base.cross_rack_transfers);
  EXPECT_EQ(result.inner_rack_transfers, base.inner_rack_transfers);
}

// --- pooled value buffers -------------------------------------------------
//
// Both engines draw op values from the process-wide BlockPool and never
// clear them, so every run below reuses buffers that still hold another
// plan's bytes. Each output must still match the data executor exactly.

namespace {

using rpr::repair::Scheme;
using rpr::runtime::BlockPool;
using rpr::topology::NodeId;

/// A code on its placed cluster.
struct PlacedCode {
  rpr::rs::RSCode code;
  rpr::topology::PlacedStripe placed;

  PlacedCode(rpr::rs::CodeConfig cfg, rpr::topology::PlacementPolicy policy)
      : code(cfg), placed(rpr::topology::make_placed_stripe(cfg, policy)) {}
};

/// One planned repair over a random stripe, with its reference rebuild.
struct ReuseCase {
  std::string name;
  const PlacedCode* pc;
  std::vector<Block> stripe;
  RepairProblem problem;
  rpr::repair::PlannedRepair planned;
  std::vector<Block> expected;
};

ReuseCase reuse_case(std::string name, const PlacedCode& pc, Scheme scheme,
                     std::size_t lost, std::size_t block_size,
                     std::uint64_t seed) {
  ReuseCase c{std::move(name), &pc, {}, {}, {}, {}};
  c.stripe = rpr::testing::random_stripe(pc.code, block_size, seed);
  c.problem.code = &pc.code;
  c.problem.placement = &pc.placed.placement;
  c.problem.block_size = block_size;
  c.problem.failed = {lost};
  c.problem.choose_default_replacements();
  c.planned = rpr::repair::make_planner(scheme)->plan(c.problem);
  c.expected = rpr::repair::execute_on_data(c.planned.plan, c.planned.outputs,
                                            c.stripe);
  return c;
}

/// Runs RPR star (data and parity loss) and traditional (the matrix-cost
/// combine) on RS(6,3), and the chained schedule on RS(14,10), at two odd
/// block sizes, whole-block and 64 KiB slices, twice over. One engine per
/// cluster and slice setting serves every run.
template <typename Engine, typename Params>
void expect_byte_exact_reuse(const Params& base) {
  const PlacedCode rs63({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const PlacedCode rs1410({14, 10}, rpr::topology::PlacementPolicy::kFlat);
  std::vector<ReuseCase> cases;
  std::uint64_t seed = 100;
  for (const std::size_t block : {std::size_t{100000}, std::size_t{300000}}) {
    cases.push_back(reuse_case("rpr data loss", rs63, Scheme::kRpr, 0, block,
                               ++seed));
    cases.push_back(reuse_case("rpr parity loss", rs63, Scheme::kRpr, 6,
                               block, ++seed));
    cases.push_back(reuse_case("chained RS(14,10)", rs1410,
                               Scheme::kRprChained, 0, block, ++seed));
    cases.push_back(reuse_case("traditional", rs63, Scheme::kTraditional, 0,
                               block, ++seed));
  }
  std::map<std::pair<const PlacedCode*, std::size_t>, std::unique_ptr<Engine>>
      engines;
  for (int round = 0; round < 2; ++round) {
    for (const ReuseCase& c : cases) {
      for (const std::size_t slice : {std::size_t{0}, std::size_t{64} << 10}) {
        std::unique_ptr<Engine>& engine = engines[{c.pc, slice}];
        if (!engine) {
          Params p = base;
          p.net = RegionNet::uniform(c.pc->placed.cluster.racks(),
                                     Bandwidth::gbps(10), Bandwidth::gbps(1));
          p.decode_matrix_dim = c.pc->code.config().n;
          p.slice_size = slice;
          engine = std::make_unique<Engine>(c.pc->placed.cluster, p);
        }
        const auto result =
            engine->execute(c.planned.plan, c.planned.outputs, c.stripe);
        ASSERT_FALSE(result.abort.has_value()) << c.name;
        ASSERT_EQ(result.outputs, c.expected)
            << c.name << ", block " << c.stripe[0].size() << ", slice "
            << slice << ", round " << round;
      }
    }
  }
  EXPECT_GT(BlockPool::shared().retained_buffers(), 0u);
}

/// One execute aborted by a helper killed mid-stream, then a resilient
/// re-plan on the same engine: the re-plan draws the buffers the aborted
/// run left half-written and must still rebuild the block byte-exact.
template <typename Engine, typename Params>
void expect_byte_exact_after_abort(Params p) {
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const ReuseCase c =
      reuse_case("rpr data loss", pc, Scheme::kRpr, 0, 1 << 20, 77);
  NodeId victim = rpr::fault::kNoNode;
  for (const auto& op : c.planned.plan.ops) {
    if (op.kind != rpr::repair::OpKind::kSend) continue;
    const NodeId from = c.planned.plan.node_of(op.inputs[0]);
    if (pc.placed.cluster.rack_of(from) != pc.placed.cluster.rack_of(op.node)) {
      victim = from;  // its 1 MiB cross stream lasts >= 8 ms at 1 Gb/s
      break;
    }
  }
  ASSERT_NE(victim, rpr::fault::kNoNode);
  p.net = RegionNet::uniform(pc.placed.cluster.racks(), Bandwidth::gbps(10),
                             Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.slice_size = 64 << 10;
  p.faults.kills.push_back({victim, 0.002});
  p.retry.base_backoff_s = 0.001;
  Engine engine(pc.placed.cluster, p);

  const auto aborted =
      engine.execute(c.planned.plan, c.planned.outputs, c.stripe);
  ASSERT_TRUE(aborted.abort.has_value());
  EXPECT_GT(BlockPool::shared().retained_buffers(), 0u);

  const auto planner = rpr::repair::make_planner(Scheme::kRpr);
  const auto outcome = rpr::repair::execute_resilient_with(
      engine, c.problem, *planner, c.stripe, {});
  ASSERT_EQ(outcome.outputs.size(), 1u);
  EXPECT_EQ(outcome.outputs[0], c.stripe[0]);
  EXPECT_GE(outcome.replans, 1u);
}

}  // namespace

TEST(SlicedTestbed, PooledBuffersByteExactAcrossInterleavedPlans) {
  TestbedParams p;
  p.time_scale = 256.0;
  expect_byte_exact_reuse<Testbed>(p);
}

TEST(SlicedTcp, PooledBuffersByteExactAcrossInterleavedPlans) {
  rpr::net::TcpRuntimeParams p;
  p.time_scale = 256.0;
  expect_byte_exact_reuse<rpr::net::TcpRuntime>(p);
}

TEST(SlicedTestbed, ReplanAfterAbortReusesDirtyBuffersByteExact) {
  expect_byte_exact_after_abort<Testbed>(TestbedParams{});
}

TEST(SlicedTcp, ReplanAfterAbortReusesDirtyBuffersByteExact) {
  rpr::net::TcpRuntimeParams p;
  p.retry.op_deadline_s = 5.0;  // dead peers error out fast
  expect_byte_exact_after_abort<rpr::net::TcpRuntime>(p);
}

TEST(SlicedTestbed, PoolRetainsOnlyTheLatestSizeWithinOneRunsCount) {
  // 16 MiB runs, then 1 MiB runs: the pool must let go of every 16 MiB
  // buffer and keep no more 1 MiB buffers than one run held. With 1 MiB
  // slices the 1 MiB runs are whole-block and never draw from the pool;
  // returning their values must still evict the larger buffers.
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  TestbedParams p = fast_testbed(pc.placed.cluster.racks());
  p.slice_size = 1 << 20;
  Testbed bed(pc.placed.cluster, p);
  std::size_t ops = 0;
  for (const std::size_t block : {std::size_t{16} << 20, std::size_t{1} << 20}) {
    const ReuseCase c =
        reuse_case("rpr data loss", pc, Scheme::kRpr, 0, block, block);
    ops = c.planned.plan.ops.size();
    for (int run = 0; run < 2; ++run) {
      const auto result =
          bed.execute(c.planned.plan, c.planned.outputs, c.stripe);
      ASSERT_EQ(result.outputs, c.expected) << "block " << block;
      EXPECT_LE(BlockPool::shared().retained_buffers(), ops);
    }
  }
  const std::size_t kept = BlockPool::shared().retained_buffers();
  EXPECT_GT(kept, 0u);
  EXPECT_LE(kept, ops);
  EXPECT_EQ(BlockPool::shared().retained_bytes(), kept << 20);

  // A two-op run at the same size (one block read) must not shrink the
  // pool below what the repairs need.
  const ReuseCase c = reuse_case("read", pc, Scheme::kRpr, 0, 1 << 20, 5);
  rpr::repair::RepairPlan read;
  read.block_size = 1 << 20;
  const NodeId src = pc.placed.placement.node_of(1);
  const NodeId dest = c.problem.replacements[0];
  const OpId read_out[] = {read.send(read.read(src, 1, 1), src, dest)};
  const auto got = bed.execute(read, read_out, c.stripe);
  ASSERT_EQ(got.outputs[0], c.stripe[1]);
  EXPECT_EQ(BlockPool::shared().retained_buffers(), kept);
}

// --- value views ----------------------------------------------------------
//
// In slice mode a read publishes a view of its stripe block scaled by its
// coefficient, forwards alias their input, and outputs leave by move. Every
// output and every salvaged value must still equal the data executor's
// value for its op, byte for byte.

namespace {

using rpr::repair::OpKind;

/// Every op of `plan`, in order (for checking each value the engine kept).
std::vector<OpId> all_ops(const rpr::repair::RepairPlan& plan) {
  std::vector<OpId> ids(plan.ops.size());
  for (OpId id = 0; id < ids.size(); ++id) ids[id] = id;
  return ids;
}

/// Whether some read scales its block (coefficient other than 0 and 1).
bool has_scaled_read(const rpr::repair::RepairPlan& plan) {
  for (const auto& op : plan.ops) {
    if (op.kind == OpKind::kRead && op.coeff > 1) return true;
  }
  return false;
}

template <typename Params>
Params view_params(const PlacedCode& pc, std::size_t slice) {
  Params p;
  p.net = RegionNet::uniform(pc.placed.cluster.racks(), Bandwidth::gbps(10),
                             Bandwidth::gbps(1));
  p.time_scale = 256.0;
  p.decode_matrix_dim = pc.code.config().n;
  p.slice_size = slice;
  return p;
}

/// Parity loss (every read scaled by a generator coefficient) on RS(6,3)
/// and RS(12,4), 64 KiB slices over a block with an odd tail.
template <typename Engine, typename Params>
void expect_scaled_views_byte_exact() {
  const std::size_t block = (5 << 16) + 4097;
  for (const rpr::rs::CodeConfig cfg :
       {rpr::rs::CodeConfig{6, 3}, rpr::rs::CodeConfig{12, 4}}) {
    const PlacedCode pc(cfg, rpr::topology::PlacementPolicy::kRpr);
    const ReuseCase c = reuse_case("parity loss", pc, Scheme::kRpr, cfg.n,
                                   block, 200 + cfg.n);
    ASSERT_TRUE(has_scaled_read(c.planned.plan)) << cfg.n;
    Engine engine(pc.placed.cluster, view_params<Params>(pc, 64 << 10));
    for (int run = 0; run < 2; ++run) {
      const auto result =
          engine.execute(c.planned.plan, c.planned.outputs, c.stripe);
      ASSERT_FALSE(result.abort.has_value());
      EXPECT_EQ(result.outputs, c.expected) << "RS(" << cfg.n << "," << cfg.k
                                            << "), run " << run;
    }
  }
}

/// The traditional star with every read scaled: the matrix-cost combine
/// must fold each input's scale into its serial general-multiply passes.
template <typename Engine, typename Params>
void expect_matrix_path_folds_scales() {
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  ReuseCase c =
      reuse_case("traditional", pc, Scheme::kTraditional, 0, 300001, 301);
  std::uint8_t coeff = 2;
  for (auto& op : c.planned.plan.ops) {
    if (op.kind != OpKind::kRead) continue;
    coeff = static_cast<std::uint8_t>(coeff + 37);
    op.coeff = coeff;
  }
  ASSERT_TRUE(has_scaled_read(c.planned.plan));
  const auto expected = rpr::repair::execute_on_data(
      c.planned.plan, c.planned.outputs, c.stripe);
  ASSERT_NE(expected[0], c.stripe[0]);  // the scales really changed it
  Engine engine(pc.placed.cluster, view_params<Params>(pc, 64 << 10));
  const auto result =
      engine.execute(c.planned.plan, c.planned.outputs, c.stripe);
  ASSERT_FALSE(result.abort.has_value());
  EXPECT_EQ(result.outputs, expected);
}

/// A helper killed mid-stream on a parity-loss repair: every salvaged
/// value (scaled reads, aliases and owned combines alike) must be its op's
/// value.
template <typename Engine, typename Params>
void expect_salvage_materialized(Params p) {
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const ReuseCase c =
      reuse_case("parity loss", pc, Scheme::kRpr, 6, 1 << 20, 303);
  const auto& plan = c.planned.plan;
  NodeId victim = rpr::fault::kNoNode;
  for (const auto& op : plan.ops) {
    if (op.kind != OpKind::kSend) continue;
    const NodeId from = plan.node_of(op.inputs[0]);
    if (pc.placed.cluster.rack_of(from) != pc.placed.cluster.rack_of(op.node)) {
      victim = from;  // its 1 MiB cross stream lasts >= 8 ms at 1 Gb/s
      break;
    }
  }
  ASSERT_NE(victim, rpr::fault::kNoNode);
  p.net = RegionNet::uniform(pc.placed.cluster.racks(), Bandwidth::gbps(10),
                             Bandwidth::gbps(1));
  p.decode_matrix_dim = 6;
  p.slice_size = 64 << 10;
  p.faults.kills.push_back({victim, 0.002});
  Engine engine(pc.placed.cluster, p);
  const auto result = engine.execute(plan, c.planned.outputs, c.stripe);
  ASSERT_TRUE(result.abort.has_value());
  const auto every = all_ops(plan);
  const auto values = rpr::repair::execute_on_data(plan, every, c.stripe);
  bool scaled_salvaged = false;
  for (const auto& [id, value] : result.abort->completed) {
    EXPECT_EQ(value, values[id]) << "op " << id;
    scaled_salvaged |=
        plan.ops[id].kind == OpKind::kRead && plan.ops[id].coeff > 1;
  }
  EXPECT_TRUE(scaled_salvaged);
}

/// Single-block reads (read -> send, the block-read plan): with coefficient
/// 1 the output is a view of the caller's stripe; with a coefficient it is
/// a scaled view. Either way it must come out as the materialized value.
template <typename Engine, typename Params>
void expect_block_read_output_materialized() {
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const ReuseCase c = reuse_case("read", pc, Scheme::kRpr, 0, 300001, 305);
  Engine engine(pc.placed.cluster, view_params<Params>(pc, 64 << 10));
  const NodeId src = pc.placed.placement.node_of(1);
  for (const NodeId dest : {c.problem.replacements[0], src}) {
    for (const std::uint8_t coeff : {std::uint8_t{1}, std::uint8_t{0x53}}) {
      rpr::repair::RepairPlan read;
      read.block_size = 300001;
      const OpId out[] = {read.send(read.read(src, 1, coeff), src, dest)};
      const auto expected = rpr::repair::execute_on_data(read, out, c.stripe);
      const auto got = engine.execute(read, out, c.stripe);
      ASSERT_FALSE(got.abort.has_value());
      EXPECT_EQ(got.outputs, expected)
          << "coeff " << int{coeff} << (dest == src ? ", local" : ", remote");
    }
  }
  EXPECT_EQ(c.stripe[1].size(), 300001u);  // the stripe is left untouched
}

/// Two outputs that view one owner (two local moves of one combine, one of
/// them scaled through a one-input combine), and the same output twice:
/// the first moves the buffer out, the others are materialized from it.
template <typename Engine, typename Params>
void expect_shared_owner_outputs() {
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const ReuseCase c = reuse_case("shared", pc, Scheme::kRpr, 0, 300001, 307);
  const NodeId n = pc.placed.placement.node_of(1);
  rpr::repair::RepairPlan plan;
  plan.block_size = 300001;
  const OpId a = plan.read(n, 1, 1);
  const OpId b = plan.read(n, 1, 9);
  const OpId sum = plan.combine(n, {a, b});
  const OpId scaled = plan.combine_scaled(n, {sum}, {0x1d});
  const OpId outs[] = {plan.send(sum, n, n), plan.send(sum, n, n),
                       plan.send(scaled, n, n), sum};
  const auto expected = rpr::repair::execute_on_data(plan, outs, c.stripe);
  Engine engine(pc.placed.cluster, view_params<Params>(pc, 64 << 10));
  for (int run = 0; run < 2; ++run) {
    const auto got = engine.execute(plan, outs, c.stripe);
    ASSERT_FALSE(got.abort.has_value());
    EXPECT_EQ(got.outputs, expected) << "run " << run;
  }
}

/// A warm repair on a reused engine allocates exactly one fresh value
/// buffer per output it returned last time (the moved-out buffer never
/// comes back to the pool); every other value buffer is a pool hit. The
/// block size is unique to this test, so the first run resets the pool.
template <typename Engine, typename Params>
void expect_warm_repair_fresh_count(const char* prefix) {
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const std::size_t block = (1 << 20) + 3 * 4096 + 11;
  const ReuseCase c = reuse_case("rpr data loss", pc, Scheme::kRpr, 0, block,
                                 309);
  rpr::obs::MetricsRegistry registry;
  Params p = view_params<Params>(pc, 64 << 10);
  p.metrics = &registry;
  Engine engine(pc.placed.cluster, p);
  const std::string name = std::string(prefix) + ".value_buffers.fresh";
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  for (int run = 0; run < 3; ++run) {
    const auto result =
        engine.execute(c.planned.plan, c.planned.outputs, c.stripe);
    ASSERT_EQ(result.outputs, c.expected);
    const auto* fresh = registry.find_counter(name);
    const auto* fresh_bytes = registry.find_counter(name + "_bytes");
    ASSERT_NE(fresh, nullptr);
    ASSERT_NE(fresh_bytes, nullptr);
    if (run == 0) {
      EXPECT_GT(fresh->value(), c.planned.outputs.size());  // cold
    } else {
      EXPECT_EQ(fresh->value() - count, c.planned.outputs.size())
          << "warm run " << run;
      EXPECT_EQ(fresh_bytes->value() - bytes,
                c.planned.outputs.size() * block);
    }
    count = fresh->value();
    bytes = fresh_bytes->value();
  }
}

}  // namespace

TEST(SlicedTestbed, ScaledViewsByteExactOnParityLoss) {
  expect_scaled_views_byte_exact<Testbed, TestbedParams>();
}

TEST(SlicedTcp, ScaledViewsByteExactOnParityLoss) {
  expect_scaled_views_byte_exact<rpr::net::TcpRuntime,
                                 rpr::net::TcpRuntimeParams>();
}

TEST(SlicedTestbed, MatrixPathFoldsScaledReads) {
  expect_matrix_path_folds_scales<Testbed, TestbedParams>();
}

TEST(SlicedTcp, MatrixPathFoldsScaledReads) {
  expect_matrix_path_folds_scales<rpr::net::TcpRuntime,
                                  rpr::net::TcpRuntimeParams>();
}

TEST(SlicedTestbed, AbortSalvageMaterializesEveryView) {
  expect_salvage_materialized<Testbed>(TestbedParams{});
}

TEST(SlicedTcp, AbortSalvageMaterializesEveryView) {
  rpr::net::TcpRuntimeParams p;
  p.retry.op_deadline_s = 5.0;  // dead peers error out fast
  expect_salvage_materialized<rpr::net::TcpRuntime>(p);
}

TEST(SlicedTestbed, BlockReadOutputIsMaterializedFromItsView) {
  expect_block_read_output_materialized<Testbed, TestbedParams>();
}

TEST(SlicedTcp, BlockReadOutputIsMaterializedFromItsView) {
  expect_block_read_output_materialized<rpr::net::TcpRuntime,
                                        rpr::net::TcpRuntimeParams>();
}

TEST(SlicedTestbed, OutputsSharingAnOwnerAreEachByteExact) {
  expect_shared_owner_outputs<Testbed, TestbedParams>();
}

TEST(SlicedTcp, OutputsSharingAnOwnerAreEachByteExact) {
  expect_shared_owner_outputs<rpr::net::TcpRuntime,
                              rpr::net::TcpRuntimeParams>();
}

TEST(SlicedTestbed, WarmRepairAllocatesOnlyTheMovedOutputsBuffer) {
  expect_warm_repair_fresh_count<Testbed, TestbedParams>("testbed");
}

TEST(SlicedTcp, WarmRepairAllocatesOnlyTheMovedOutputsBuffer) {
  expect_warm_repair_fresh_count<rpr::net::TcpRuntime,
                                 rpr::net::TcpRuntimeParams>("tcp");
}

TEST(SlicedTcp, TeardownFollowsTheLastOpWithinTwoMilliseconds) {
  // Acceptors and idle frame loops are woken the moment a node's owed ops
  // resolve, not on their next 10 ms poll: the gap from the last op span's
  // end to the join (the end of wall_time) stays small.
  const PlacedCode pc({6, 3}, rpr::topology::PlacementPolicy::kRpr);
  const ReuseCase c =
      reuse_case("rpr data loss", pc, Scheme::kRpr, 0, 1 << 20, 311);
  rpr::obs::Recorder recorder;
  auto p = view_params<rpr::net::TcpRuntimeParams>(pc, 64 << 10);
  p.recorder = &recorder;
  rpr::net::TcpRuntime rt(pc.placed.cluster, p);
  std::vector<double> gaps_ms;
  for (int run = 0; run < 8; ++run) {
    const std::size_t first = recorder.spans().size();
    const auto result =
        rt.execute(c.planned.plan, c.planned.outputs, c.stripe);
    ASSERT_EQ(result.outputs, c.expected);
    if (run == 0) continue;  // warm-up
    std::int64_t last_end = 0;
    for (std::size_t i = first; i < recorder.spans().size(); ++i) {
      const auto& s = recorder.spans()[i];
      last_end = std::max(last_end, s.start_ns + s.dur_ns);
    }
    gaps_ms.push_back(
        static_cast<double>(result.wall_time.count() - last_end) / 1e6);
  }
  std::sort(gaps_ms.begin(), gaps_ms.end());
  const double median = gaps_ms[gaps_ms.size() / 2];
  EXPECT_LT(median, 2.0) << "median teardown gap " << median << " ms";
}
