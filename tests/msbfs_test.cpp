// Differential suite for the bit-packed multi-source primitives: a
// batched run's per-slot results must be bit-identical to running each
// source individually, across GPU counts, schedules, and wire formats
// (the serving layer's correctness rests entirely on this).
#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "primitives/bfs.hpp"
#include "primitives/multi_source.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace mgg {
namespace {

const graph::Graph& bfs_graph() {
  static const graph::Graph g = test::small_rmat();
  return g;
}

const graph::Graph& sssp_graph() {
  static const graph::Graph g = test::small_weighted_rmat();
  return g;
}

std::vector<VertexT> pick_sources(const graph::Graph& g, std::size_t n,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<VertexT> srcs;
  srcs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    srcs.push_back(static_cast<VertexT>(rng.next_below(g.num_vertices)));
  }
  return srcs;
}

/// Individual-run goldens, computed once per source at 1 vGPU and
/// reused across every cell (results are mode-invariant, pinned by the
/// primitive suites).
const std::vector<VertexT>& bfs_golden(VertexT src) {
  static std::map<VertexT, std::vector<VertexT>> cache;
  auto it = cache.find(src);
  if (it == cache.end()) {
    auto machine = test::test_machine(1);
    it = cache
             .emplace(src, prim::run_bfs(bfs_graph(), src, machine,
                                         test::config_for(1))
                               .labels)
             .first;
  }
  return it->second;
}

const std::vector<ValueT>& sssp_golden(VertexT src) {
  static std::map<VertexT, std::vector<ValueT>> cache;
  auto it = cache.find(src);
  if (it == cache.end()) {
    auto machine = test::test_machine(1);
    it = cache
             .emplace(src, prim::run_sssp(sssp_graph(), src, machine,
                                          test::config_for(1))
                               .dist)
             .first;
  }
  return it->second;
}

struct Cell {
  int gpus;
  bool pipeline;
  bool auto_wire;
};

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const int gpus : {1, 2, 4, 8}) {
    for (const bool pipeline : {false, true}) {
      for (const bool auto_wire : {false, true}) {
        cells.push_back({gpus, pipeline, auto_wire});
      }
    }
  }
  return cells;
}

core::Config cell_config(const Cell& cell) {
  core::Config cfg = test::config_for(cell.gpus);
  cfg.sync_mode = cell.pipeline ? core::SyncMode::kEventPipeline
                                : core::SyncMode::kBspBarrier;
  cfg.wire_format =
      cell.auto_wire ? core::WireFormat::kAuto : core::WireFormat::kRawIds;
  return cfg;
}

std::string cell_name(const Cell& cell) {
  return std::to_string(cell.gpus) + "gpu/" +
         (cell.pipeline ? "pipeline" : "bsp") + "/" +
         (cell.auto_wire ? "auto" : "raw");
}

void expect_bfs_matches(const prim::MsBfsResult& result,
                        std::span<const VertexT> srcs,
                        const std::string& where) {
  const std::size_t nv = bfs_graph().num_vertices;
  ASSERT_EQ(result.width, static_cast<int>(srcs.size())) << where;
  for (int slot = 0; slot < result.width; ++slot) {
    const auto& golden = bfs_golden(srcs[slot]);
    const auto got = result.slot(slot, nv);
    ASSERT_TRUE(std::equal(golden.begin(), golden.end(), got.begin()))
        << where << " slot " << slot << " source " << srcs[slot];
  }
}

void expect_sssp_matches(const prim::MsSsspResult& result,
                         std::span<const VertexT> srcs,
                         const std::string& where) {
  const std::size_t nv = sssp_graph().num_vertices;
  ASSERT_EQ(result.width, static_cast<int>(srcs.size())) << where;
  for (int slot = 0; slot < result.width; ++slot) {
    const auto& golden = sssp_golden(srcs[slot]);
    const auto got = result.slot(slot, nv);
    // Bit-identical, not approximately equal: batched relaxations reach
    // the same least fixpoint of the same float path sums.
    ASSERT_TRUE(std::equal(golden.begin(), golden.end(), got.begin()))
        << where << " slot " << slot << " source " << srcs[slot];
  }
}

TEST(MsBfs, FullBatchDifferentialAcrossCells) {
  const auto srcs = pick_sources(bfs_graph(), prim::kMaxBatchWidth, 42);
  for (const Cell& cell : all_cells()) {
    auto machine = test::test_machine(cell.gpus);
    const auto result =
        prim::run_msbfs(bfs_graph(), srcs, machine, cell_config(cell));
    expect_bfs_matches(result, srcs, cell_name(cell));
  }
}

TEST(MsBfs, PartialBatches) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{63}}) {
    const auto srcs = pick_sources(bfs_graph(), width, 1000 + width);
    for (const bool auto_wire : {false, true}) {
      Cell cell{4, false, auto_wire};
      auto machine = test::test_machine(4);
      const auto result =
          prim::run_msbfs(bfs_graph(), srcs, machine, cell_config(cell));
      expect_bfs_matches(result, srcs,
                         "width=" + std::to_string(width) + "/" +
                             cell_name(cell));
    }
  }
}

TEST(MsBfs, DuplicateSourceBatches) {
  // Slots sharing a source must shadow each other bit-for-bit.
  const auto base = pick_sources(bfs_graph(), 5, 77);
  std::vector<VertexT> srcs = {base[0], base[1], base[0], base[2],
                               base[1], base[0], base[3], base[4]};
  auto machine = test::test_machine(4);
  const auto result =
      prim::run_msbfs(bfs_graph(), srcs, machine, test::config_for(4));
  expect_bfs_matches(result, srcs, "duplicates");
}

TEST(MsBfs, SsspFullBatchDifferentialAcrossCells) {
  const auto srcs = pick_sources(sssp_graph(), prim::kMaxBatchWidth, 43);
  for (const Cell& cell : all_cells()) {
    auto machine = test::test_machine(cell.gpus);
    const auto result =
        prim::run_msssp(sssp_graph(), srcs, machine, cell_config(cell));
    expect_sssp_matches(result, srcs, cell_name(cell));
  }
}

TEST(MsBfs, SsspPartialAndDuplicateBatches) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{7},
                                  std::size_t{63}}) {
    const auto srcs = pick_sources(sssp_graph(), width, 2000 + width);
    auto machine = test::test_machine(4);
    const auto result =
        prim::run_msssp(sssp_graph(), srcs, machine, test::config_for(4));
    expect_sssp_matches(result, srcs, "width=" + std::to_string(width));
  }
  const auto base = pick_sources(sssp_graph(), 3, 78);
  std::vector<VertexT> srcs = {base[0], base[1], base[0], base[2], base[1]};
  auto machine = test::test_machine(4);
  const auto result =
      prim::run_msssp(sssp_graph(), srcs, machine, test::config_for(4));
  expect_sssp_matches(result, srcs, "sssp duplicates");
}

TEST(MsBfs, OneHopDuplicationBatches) {
  // Duplicate-1-hop: sources seed their 1-hop proxies (found by binary
  // search over each GPU's sorted proxy tail) and pushes carry only
  // border vertices, so both the reset placement and the selective
  // route path differ from duplicate-all.
  for (const int gpus : {2, 4}) {
    for (const std::size_t width :
         {std::size_t{prim::kMaxBatchWidth}, std::size_t{7}}) {
      for (const bool auto_wire : {false, true}) {
        core::Config cfg = cell_config({gpus, false, auto_wire});
        cfg.duplication = part::Duplication::kOneHop;
        const std::string where =
            "1hop/width=" + std::to_string(width) + "/" +
            cell_name({gpus, false, auto_wire});
        auto machine = test::test_machine(gpus);
        const auto bfs_srcs = pick_sources(bfs_graph(), width, 3000 + width);
        expect_bfs_matches(prim::run_msbfs(bfs_graph(), bfs_srcs, machine, cfg),
                           bfs_srcs, where);
        const auto sssp_srcs =
            pick_sources(sssp_graph(), width, 4000 + width);
        expect_sssp_matches(
            prim::run_msssp(sssp_graph(), sssp_srcs, machine, cfg), sssp_srcs,
            where);
      }
    }
  }
}

void expect_same_run(const vgpu::RunStats& want, const vgpu::RunStats& got,
                     const std::string& where) {
  EXPECT_EQ(want.iterations, got.iterations) << where;
  EXPECT_EQ(want.total_edges, got.total_edges) << where;
  EXPECT_EQ(want.total_comm_items, got.total_comm_items) << where;
  EXPECT_EQ(want.total_comm_bytes, got.total_comm_bytes) << where;
  EXPECT_EQ(want.modeled_compute_s, got.modeled_compute_s) << where;
  EXPECT_EQ(want.modeled_comm_s, got.modeled_comm_s) << where;
}

TEST(MsBfs, PartialBatchCostsMatchNarrowRun) {
  // A k-source batch on a width-64 Problem pays for its k occupied
  // slots only: answers and every W/H counter and modeled time equal a
  // width-k run's (value associates ship k distances, not 64).
  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::size_t{63}}) {
    for (const bool pipeline : {false, true}) {
      const Cell cell{4, pipeline, pipeline};
      const core::Config cfg = cell_config(cell);
      const std::string where =
          "k=" + std::to_string(k) + "/" + cell_name(cell);
      {
        const auto srcs = pick_sources(bfs_graph(), k, 5000 + k);
        auto machine = test::test_machine(4);
        const auto narrow = prim::run_msbfs(bfs_graph(), srcs, machine, cfg);
        prim::MsBfsProblem problem(prim::kMaxBatchWidth);
        problem.init(bfs_graph(), machine, cfg);
        prim::MsBfsEnactor enactor(problem);
        enactor.reset(srcs);
        expect_same_run(narrow.stats, enactor.enact(), "bfs " + where);
        const auto& pg = problem.partitioned();
        for (int slot = 0; slot < static_cast<int>(k); ++slot) {
          const auto want = narrow.slot(slot, pg.global_vertices());
          for (VertexT v = 0; v < pg.global_vertices(); ++v) {
            ASSERT_EQ(want[v], problem.depth_at(pg.owner_of(v), slot,
                                                pg.host_local_of(v)))
                << "bfs " << where << " slot " << slot << " vertex " << v;
          }
        }
      }
      {
        const auto srcs = pick_sources(sssp_graph(), k, 6000 + k);
        auto machine = test::test_machine(4);
        const auto narrow = prim::run_msssp(sssp_graph(), srcs, machine, cfg);
        prim::MsSsspProblem problem(prim::kMaxBatchWidth);
        problem.init(sssp_graph(), machine, cfg);
        prim::MsSsspEnactor enactor(problem);
        enactor.reset(srcs);
        expect_same_run(narrow.stats, enactor.enact(), "sssp " + where);
        const auto& pg = problem.partitioned();
        for (int slot = 0; slot < static_cast<int>(k); ++slot) {
          const auto want = narrow.slot(slot, pg.global_vertices());
          for (VertexT v = 0; v < pg.global_vertices(); ++v) {
            ASSERT_EQ(want[v], problem.dist_at(pg.owner_of(v), slot,
                                               pg.host_local_of(v)))
                << "sssp " << where << " slot " << slot << " vertex " << v;
          }
        }
      }
    }
  }
}

TEST(MsBfs, FullBatchCountersArePinned) {
  // Full 64-slot batches: S, W and H (items and bytes) pinned to their
  // recorded values, so a change to the slot layout or the relaxation
  // kernel that shifts any improved mask shows up here even when the
  // answers still converge to the same fixpoint.
  struct Golden {
    int gpus;
    bool auto_wire;
    std::uint64_t bfs[4];   // iterations, edges, comm items, comm bytes
    std::uint64_t sssp[4];
  };
  const Golden goldens[] = {
      {2, false, {5, 7967, 556, 6672}, {10, 16021, 1212, 324816}},
      {2, true, {5, 7967, 556, 5138}, {10, 16021, 1212, 321507}},
      {4, false, {5, 7967, 1381, 16572}, {10, 16635, 3023, 810164}},
      {4, true, {5, 7967, 1381, 12896}, {10, 16635, 3023, 802195}},
  };
  const auto bfs_srcs = pick_sources(bfs_graph(), prim::kMaxBatchWidth, 42);
  const auto sssp_srcs = pick_sources(sssp_graph(), prim::kMaxBatchWidth, 43);
  for (const Golden& gold : goldens) {
    const Cell cell{gold.gpus, false, gold.auto_wire};
    auto machine = test::test_machine(gold.gpus);
    const auto b =
        prim::run_msbfs(bfs_graph(), bfs_srcs, machine, cell_config(cell));
    const auto s =
        prim::run_msssp(sssp_graph(), sssp_srcs, machine, cell_config(cell));
    const std::uint64_t got_bfs[4] = {b.stats.iterations, b.stats.total_edges,
                                      b.stats.total_comm_items,
                                      b.stats.total_comm_bytes};
    const std::uint64_t got_sssp[4] = {s.stats.iterations,
                                       s.stats.total_edges,
                                       s.stats.total_comm_items,
                                       s.stats.total_comm_bytes};
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(gold.bfs[i], got_bfs[i]) << cell_name(cell) << " bfs #" << i;
      EXPECT_EQ(gold.sssp[i], got_sssp[i])
          << cell_name(cell) << " sssp #" << i;
    }
  }
}

TEST(MsBfs, BatchedRunAmortizesWorkAndComm) {
  // The point of the batch: one 64-source traversal must model far
  // less W+H than 64 individual traversals (the bench gates >= 3x on
  // the larger graphs; the tiny test graph still shows a clear win).
  const auto srcs = pick_sources(bfs_graph(), prim::kMaxBatchWidth, 44);
  auto machine = test::test_machine(4);
  const auto cfg = test::config_for(4);
  const auto batched = prim::run_msbfs(bfs_graph(), srcs, machine, cfg);
  double individual = 0;
  for (const VertexT src : srcs) {
    const auto r = prim::run_bfs(bfs_graph(), src, machine, cfg);
    individual += r.stats.modeled_compute_s + r.stats.modeled_comm_s;
  }
  const double batch_cost =
      batched.stats.modeled_compute_s + batched.stats.modeled_comm_s;
  ASSERT_GT(batch_cost, 0.0);
  EXPECT_GT(individual / batch_cost, 2.0);
}

TEST(MsBfs, RejectsInvalidBatches) {
  EXPECT_THROW(prim::MsBfsProblem(0), Error);
  EXPECT_THROW(prim::MsBfsProblem(prim::kMaxBatchWidth + 1), Error);
  auto machine = test::test_machine(1);
  prim::MsBfsProblem problem(4);
  problem.init(bfs_graph(), machine, test::config_for(1));
  prim::MsBfsEnactor enactor(problem);
  EXPECT_THROW(enactor.reset(std::vector<VertexT>{}), Error);
  const std::vector<VertexT> too_many(5, 0);
  EXPECT_THROW(enactor.reset(too_many), Error);
  const std::vector<VertexT> out_of_range = {
      static_cast<VertexT>(bfs_graph().num_vertices)};
  EXPECT_THROW(enactor.reset(out_of_range), Error);
  // Slots past the current batch's occupancy carry no answer.
  enactor.reset(std::vector<VertexT>{0, 1});
  EXPECT_NO_THROW(problem.depth_at(0, 1, 0));
  EXPECT_THROW(problem.depth_at(0, 2, 0), Error);
  EXPECT_THROW(problem.depth_at(0, -1, 0), Error);
}

}  // namespace
}  // namespace mgg
