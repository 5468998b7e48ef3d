// Slice-pipelining sweep: whole-block vs sliced repair wall time on the two
// real-byte engines (threaded testbed, TCP loopback), plus the chained
// cross-rack schedule on the testbed and the discrete-event simulator.
//
// Part 1 — star schedules: one RPR single-failure repair of a 64 MiB block
// over a (12,4) stripe runs at slice sizes {whole-block, 16 KiB, 64 KiB,
// 256 KiB}; each row reports the best-of-N wall time and its speedup over
// whole-block mode on the same engine. The TCP loopback paces each
// connection independently and wins ~1.8x; the testbed enforces exclusive
// rack TX/RX ports, and a port-bound star cannot be pipelined below the
// recovery rack's RX busy time, so slicing only trims the inner collection
// phase (~1.05x).
//
// Part 2 — chained schedules: the same repair re-planned as a relay chain
// (Scheme::kRprChained) on an RS(14,10) stripe spread one-block-per-rack,
// where the star's port bound actually bites (14 contributing racks). The
// chained whole-block row documents the store-and-forward serialization
// (chains are a slice-mode scheme); the sliced rows collapse toward the
// pipeline-depth bound. Chained rows report speedup against the *star*
// whole-block baseline — the schedule the system ran before this scheme —
// and the sweep hard-fails unless the best chained testbed row is >= 1.5x
// that baseline with byte-identical rebuilds and identical cross-rack
// traffic.
//
// Part 3 — pacing off: the same RPR (12,4) star at 16 MiB blocks, 1 MiB
// slices and 1000 Gb/s links, so the wall time is the engines' software
// cost (GF work, copies, sockets, value buffers). Each engine runs one
// warm-up and then N timed repairs and N timed single-block reads (the
// first data block outside the recovery rack, shipped to the replacement
// node); rows report the best of N and repair ÷ read, ECPipe's yardstick
// (Li et al., "Repair Pipelining for Erasure-Coded Storage"), whose ideal
// is 1.
//
// BENCH_pipeline.json at the repo root is a checked-in capture of this
// binary's JSON output (first argument, default "BENCH_pipeline.json";
// "-" skips the file).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "net/tcp_runtime.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "runtime/testbed.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

namespace {

constexpr std::uint64_t kBlock = 64ull << 20;
constexpr double kTimeScale = 4.0;  // keeps paced 0.1 Gb/s cross affordable
constexpr int kReps = 2;            // best-of, absorbs scheduler noise

// The chained fixture trades block size for time scale so the serialized
// whole-block chain row stays affordable.
constexpr std::uint64_t kChainBlock = 32ull << 20;
constexpr double kChainTimeScale = 8.0;

// The pacing-off fixture: a real repair's software cost, no link model.
constexpr std::uint64_t kFastBlock = 16ull << 20;
constexpr std::size_t kFastSlice = 1 << 20;
constexpr double kFastGbps = 1000.0;
constexpr int kFastReps = 7;

struct Run {
  std::string engine;
  std::size_t slice_size;
  double wall_s;
  std::uint64_t cross_bytes;
  std::uint64_t inner_bytes;
  double speedup = 0.0;
  double read_s = 0.0;  // pacing-off rows: best single-block read
};

struct Fixture {
  rpr::rs::RSCode code;
  rpr::topology::PlacedStripe placed;
  std::uint64_t block_size;
  std::vector<rpr::rs::Block> stripe;
  rpr::repair::RepairProblem problem;

  Fixture(rpr::rs::CodeConfig cfg, rpr::topology::PlacementPolicy policy,
          std::uint64_t block)
      : code(cfg),
        placed(rpr::topology::make_placed_stripe(cfg, policy)),
        block_size(block) {
    stripe.resize(code.config().total());
    rpr::util::Xoshiro256 rng(0x51705);
    for (std::size_t b = 0; b < code.config().n; ++b) {
      stripe[b].resize(block_size);
      for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
    }
    code.encode_stripe(stripe);

    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = block_size;
    problem.failed = {0};
    problem.choose_default_replacements();
  }

  [[nodiscard]] rpr::repair::PlannedRepair plan(
      rpr::repair::Scheme scheme) const {
    return rpr::repair::make_planner(scheme)->plan(problem);
  }

  /// The paper's simulator bandwidths (§5.1): 1 Gb/s inner, 0.1 Gb/s cross.
  [[nodiscard]] rpr::runtime::RegionNet net() const {
    return rpr::runtime::RegionNet::uniform(
        placed.cluster.racks(), rpr::util::Bandwidth::gbps(1),
        rpr::util::Bandwidth::gbps(0.1));
  }

  template <typename Engine>
  Run measure(const char* name, const rpr::repair::PlannedRepair& planned,
              Engine&& make, std::size_t slice) const {
    Run run{name, slice, 1e30, 0, 0};
    for (int rep = 0; rep < kReps; ++rep) {
      auto engine = make(slice);
      const auto result =
          engine.execute(planned.plan, planned.outputs, stripe);
      if (result.outputs[0] != stripe[0]) {
        std::fprintf(stderr, "%s reconstruction mismatch (slice %zu)!\n",
                     name, slice);
        std::exit(1);
      }
      const double s = static_cast<double>(result.wall_time.count()) / 1e9;
      if (s < run.wall_s) run.wall_s = s;
      run.cross_bytes = result.cross_rack_bytes;
      run.inner_bytes = result.inner_rack_bytes;
    }
    return run;
  }

  /// Pacing-off row: after one untimed warm-up of each, the best of
  /// kFastReps repairs of `planned` and of kFastReps single-block reads.
  template <typename Engine>
  Run measure_unpaced(const char* name,
                      const rpr::repair::PlannedRepair& planned,
                      Engine& engine) const {
    const rpr::topology::NodeId dest = problem.replacements[0];
    const auto dest_rack = placed.cluster.rack_of(dest);
    std::size_t read_block = 0;
    while (placed.placement.rack_of(read_block) == dest_rack) ++read_block;
    rpr::repair::RepairPlan read;
    read.block_size = block_size;
    const rpr::topology::NodeId src = placed.placement.node_of(read_block);
    const rpr::repair::OpId read_out[] = {
        read.send(read.read(src, read_block, 1), src, dest)};

    Run run{name, kFastSlice, 1e30, 0, 0};
    run.read_s = 1e30;
    for (int rep = 0; rep <= kFastReps; ++rep) {
      const auto result =
          engine.execute(planned.plan, planned.outputs, stripe);
      const auto got = engine.execute(read, read_out, stripe);
      if (result.outputs[0] != stripe[0] ||
          got.outputs[0] != stripe[read_block]) {
        std::fprintf(stderr, "%s pacing-off mismatch!\n", name);
        std::exit(1);
      }
      if (rep == 0) continue;  // warm-up
      run.wall_s = std::min(
          run.wall_s, static_cast<double>(result.wall_time.count()) / 1e9);
      run.read_s = std::min(
          run.read_s, static_cast<double>(got.wall_time.count()) / 1e9);
      run.cross_bytes = result.cross_rack_bytes;
      run.inner_bytes = result.inner_rack_bytes;
    }
    return run;
  }

  /// Discrete-event makespan of `planned` at `slice` (exact, no reps).
  Run simulate(const char* name, const rpr::repair::PlannedRepair& planned,
               std::size_t slice) const {
    rpr::topology::NetworkParams p = rpr::topology::NetworkParams::simics_like();
    p.slice_size = slice;
    const auto sim =
        rpr::repair::simulate(planned.plan, placed.cluster, p);
    return Run{name, slice, rpr::util::to_sec(sim.total_repair_time),
               sim.cross_rack_bytes, sim.inner_rack_bytes};
  }
};

std::string slice_name(std::size_t slice) {
  if (slice == 0) return "whole";
  return std::to_string(slice >> 10) + "K";
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";

  std::vector<Run> runs;

  // -------- Part 1: RPR star, (12,4), rpr placement (historical rows).
  Fixture star_f({12, 4}, rpr::topology::PlacementPolicy::kRpr, kBlock);
  const auto star_plan = star_f.plan(rpr::repair::Scheme::kRpr);

  const std::vector<std::size_t> slices = {0, 16 << 10, 64 << 10, 256 << 10};
  for (const std::size_t slice : slices) {
    runs.push_back(star_f.measure(
        "testbed", star_plan,
        [&](std::size_t s) {
          rpr::runtime::TestbedParams p;
          p.net = star_f.net();
          p.time_scale = kTimeScale;
          p.decode_matrix_dim = 12;
          p.slice_size = s;
          return rpr::runtime::Testbed(star_f.placed.cluster, p);
        },
        slice));
  }
  for (const std::size_t slice : slices) {
    runs.push_back(star_f.measure(
        "tcp", star_plan,
        [&](std::size_t s) {
          rpr::net::TcpRuntimeParams p;
          p.net = star_f.net();
          p.time_scale = kTimeScale;
          p.decode_matrix_dim = 12;
          p.slice_size = s;
          return rpr::net::TcpRuntime(star_f.placed.cluster, p);
        },
        slice));
  }

  // -------- Part 2: chained relay schedule, RS(14,10), one block per rack.
  Fixture chain_f({14, 10}, rpr::topology::PlacementPolicy::kFlat,
                  kChainBlock);
  const auto star14 = chain_f.plan(rpr::repair::Scheme::kRpr);
  const auto chained14 = chain_f.plan(rpr::repair::Scheme::kRprChained);

  const auto chain_testbed = [&](std::size_t s) {
    rpr::runtime::TestbedParams p;
    p.net = chain_f.net();
    p.time_scale = kChainTimeScale;
    p.decode_matrix_dim = 14;
    p.slice_size = s;
    return rpr::runtime::Testbed(chain_f.placed.cluster, p);
  };
  const std::vector<std::size_t> chain_slices = {0, 64 << 10, 256 << 10,
                                                 1 << 20};
  runs.push_back(
      chain_f.measure("testbed-star14", star14, chain_testbed, 0));
  const double star14_whole = runs.back().wall_s;
  const std::uint64_t star14_cross = runs.back().cross_bytes;
  for (const std::size_t slice : chain_slices) {
    runs.push_back(
        chain_f.measure("testbed-chained14", chained14, chain_testbed, slice));
    if (runs.back().cross_bytes != star14_cross) {
      std::fprintf(stderr,
                   "chained cross-rack traffic %llu differs from the star's "
                   "%llu — the chain must move identical bytes!\n",
                   static_cast<unsigned long long>(runs.back().cross_bytes),
                   static_cast<unsigned long long>(star14_cross));
      return 1;
    }
  }

  runs.push_back(chain_f.simulate("sim-star14", star14, 0));
  const double sim_star14_whole = runs.back().wall_s;
  for (const std::size_t slice : chain_slices) {
    runs.push_back(chain_f.simulate("sim-chained14", chained14, slice));
  }

  // -------- Part 3: pacing off, RPR (12,4) star at 16 MiB blocks.
  Fixture fast_f({12, 4}, rpr::topology::PlacementPolicy::kRpr, kFastBlock);
  const auto fast_plan = fast_f.plan(rpr::repair::Scheme::kRpr);
  const auto fast_net = rpr::runtime::RegionNet::uniform(
      fast_f.placed.cluster.racks(), rpr::util::Bandwidth::gbps(kFastGbps),
      rpr::util::Bandwidth::gbps(kFastGbps));
  {
    rpr::runtime::TestbedParams p;
    p.net = fast_net;
    p.decode_matrix_dim = 12;
    p.slice_size = kFastSlice;
    rpr::runtime::Testbed bed(fast_f.placed.cluster, p);
    runs.push_back(fast_f.measure_unpaced("testbed-nopace", fast_plan, bed));
  }
  {
    rpr::net::TcpRuntimeParams p;
    p.net = fast_net;
    p.decode_matrix_dim = 12;
    p.slice_size = kFastSlice;
    rpr::net::TcpRuntime tcp(fast_f.placed.cluster, p);
    runs.push_back(fast_f.measure_unpaced("tcp-nopace", fast_plan, tcp));
  }

  // Speedups: star engines against their own whole-block row; chained rows
  // against the whole-block *star* on the same engine (the pre-chained
  // schedule — a chain run whole-block is strictly worse, and the row
  // documents that too).
  const auto whole_of = [&](const char* engine) {
    for (const Run& r : runs) {
      if (r.slice_size == 0 && r.engine == engine) return r.wall_s;
    }
    return 0.0;
  };
  for (Run& r : runs) {
    double base = whole_of(r.engine.c_str());
    if (r.engine == "testbed-chained14") base = star14_whole;
    if (r.engine == "sim-chained14") base = sim_star14_whole;
    r.speedup = base / r.wall_s;  // 0 for the pacing-off rows (no baseline)
  }

  std::printf(
      "Slice-pipelined repair — star: RPR (12,4), 64 MiB block; chained: "
      "RS(14,10)\nflat placement, 32 MiB block. 1 Gb/s inner / 0.1 Gb/s "
      "cross, best of %d\n(chained rows: speedup vs the whole-block star on "
      "the same engine)\n*-nopace: (12,4) star, 16 MiB block, 1000 Gb/s "
      "links, best of %d\n\n",
      kReps, kFastReps);
  rpr::util::TextTable t({"engine", "slice", "wall (s)", "speedup",
                          "read (s)", "repair/read"});
  for (const Run& r : runs) {
    const bool unpaced = r.read_s > 0.0;
    t.add_row({r.engine, slice_name(r.slice_size),
               rpr::util::fmt(r.wall_s, 3),
               unpaced ? "-" : rpr::util::fmt(r.speedup, 2),
               unpaced ? rpr::util::fmt(r.read_s, 4) : "-",
               unpaced ? rpr::util::fmt(r.wall_s / r.read_s, 2) : "-"});
  }
  std::printf("%s\n", t.render().c_str());

  double tcp64 = 0.0;
  double chained_best = 0.0;
  double sim_chained_best = 0.0;
  for (const Run& r : runs) {
    if (r.slice_size == (64u << 10) && r.engine == "tcp") tcp64 = r.speedup;
    if (r.engine == "testbed-chained14" && r.slice_size != 0) {
      chained_best = std::max(chained_best, r.speedup);
    }
    if (r.engine == "sim-chained14" && r.slice_size != 0) {
      sim_chained_best = std::max(sim_chained_best, r.speedup);
    }
  }
  std::printf(
      "headline: tcp @64K slices %.2fx whole-block (floor 1.40x); chained "
      "testbed %.2fx / sim %.2fx vs whole-block star (floor 1.50x)\n",
      tcp64, chained_best, sim_chained_best);

  if (std::strcmp(json_path, "-") != 0) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    char date[64];
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%S+00:00",
                  std::gmtime(&now));
    std::fprintf(out,
                 "{\n  \"context\": {\n"
                 "    \"date\": \"%s\",\n"
                 "    \"executable\": \"./build/bench/pipeline_sweep\",\n"
                 "    \"star\": \"(12,4) rpr placement, %llu MiB block\",\n"
                 "    \"chained\": \"(14,10) flat placement, %llu MiB "
                 "block\",\n"
                 "    \"inner_gbps\": 1.0,\n"
                 "    \"cross_gbps\": 0.1,\n"
                 "    \"time_scale\": %.1f,\n"
                 "    \"chained_time_scale\": %.1f,\n"
                 "    \"reps\": %d,\n"
                 "    \"nopace\": \"(12,4) rpr placement, %llu MiB block, "
                 "%.0f Gb/s links\",\n"
                 "    \"nopace_reps\": %d\n  },\n  \"benchmarks\": [\n",
                 date, static_cast<unsigned long long>(kBlock >> 20),
                 static_cast<unsigned long long>(kChainBlock >> 20),
                 kTimeScale, kChainTimeScale, kReps,
                 static_cast<unsigned long long>(kFastBlock >> 20), kFastGbps,
                 kFastReps);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Run& r = runs[i];
      char ratio[160];
      if (r.read_s > 0.0) {
        std::snprintf(ratio, sizeof ratio,
                      "      \"read_s\": %.6f,\n"
                      "      \"repair_over_read\": %.4f,\n",
                      r.read_s, r.wall_s / r.read_s);
      } else {
        std::snprintf(ratio, sizeof ratio,
                      "      \"speedup_vs_whole\": %.4f,\n", r.speedup);
      }
      std::fprintf(out,
                   "    {\n"
                   "      \"name\": \"pipeline/%s/slice:%zu\",\n"
                   "      \"engine\": \"%s\",\n"
                   "      \"slice_size\": %zu,\n"
                   "      \"wall_s\": %.6f,\n"
                   "%s"
                   "      \"cross_rack_bytes\": %llu,\n"
                   "      \"inner_rack_bytes\": %llu\n    }%s\n",
                   r.engine.c_str(), r.slice_size, r.engine.c_str(),
                   r.slice_size, r.wall_s, ratio,
                   static_cast<unsigned long long>(r.cross_bytes),
                   static_cast<unsigned long long>(r.inner_bytes),
                   i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  const bool ok = tcp64 >= 1.4 && chained_best >= 1.5 &&
                  sim_chained_best >= 1.5;
  return ok ? 0 : 2;
}
