// End-to-end tests for the multi-GPU BFS primitive against the CPU
// oracle, across GPU counts, duplication strategies, communication
// strategies, allocation schemes, and partitioners.
#include <gtest/gtest.h>

#include "baselines/cpu_reference.hpp"
#include "primitives/bfs.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

using test::config_for;
using test::first_connected_vertex;
using test::test_machine;

void expect_bfs_matches_cpu(const graph::Graph& g, VertexT src,
                            const core::Config& cfg) {
  auto machine = test_machine(cfg.num_gpus);
  const auto result = prim::run_bfs(g, src, machine, cfg);
  const auto expected = baselines::cpu_bfs(g, src);
  ASSERT_EQ(result.labels.size(), expected.size());
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    EXPECT_EQ(result.labels[v], expected[v]) << "vertex " << v;
  }
}

TEST(Bfs, SingleGpuMatchesCpu) {
  const auto g = test::small_rmat();
  expect_bfs_matches_cpu(g, first_connected_vertex(g), config_for(1));
}

TEST(Bfs, ChainGraphDepths) {
  const auto g = graph::build_undirected(graph::make_chain(64));
  auto machine = test_machine(2);
  auto cfg = config_for(2);
  const auto result = prim::run_bfs(g, 0, machine, cfg);
  for (VertexT v = 0; v < 64; ++v) {
    EXPECT_EQ(result.labels[v], v);
  }
  // A chain from vertex 0 takes one BFS level per vertex.
  EXPECT_GE(result.stats.iterations, 63u);
}

TEST(Bfs, PredecessorsFormValidTree) {
  const auto g = test::small_rmat();
  const VertexT src = first_connected_vertex(g);
  auto cfg = config_for(3);
  cfg.mark_predecessors = true;
  auto machine = test_machine(3);
  const auto result = prim::run_bfs(g, src, machine, cfg);
  const auto depth = baselines::cpu_bfs(g, src);
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (v == src || depth[v] == kInvalidVertex) continue;
    const VertexT p = result.preds[v];
    ASSERT_NE(p, kInvalidVertex) << "reached vertex lacks a predecessor";
    EXPECT_EQ(depth[p] + 1, depth[v]) << "pred not one level above";
    const auto nb = g.neighbors(p);
    EXPECT_TRUE(std::binary_search(nb.begin(), nb.end(), v))
        << "pred edge missing";
  }
}

struct BfsParam {
  int gpus;
  const char* partitioner;
  part::Duplication dup;
  core::CommStrategy comm;
  vgpu::AllocationScheme scheme;
};

// Without this, gtest prints the struct's raw bytes (the partitioner
// pointer and padding), so test names would change from run to run.
void PrintTo(const BfsParam& p, std::ostream* os) {
  *os << "gpus" << p.gpus << '/' << p.partitioner << '/'
      << part::to_string(p.dup) << '/' << core::to_string(p.comm) << '/'
      << vgpu::to_string(p.scheme);
}

class BfsSweep : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsSweep, MatchesCpu) {
  const BfsParam p = GetParam();
  auto cfg = config_for(p.gpus);
  cfg.partitioner = p.partitioner;
  cfg.duplication = p.dup;
  cfg.comm = p.comm;
  cfg.scheme = p.scheme;
  const auto g = test::small_rmat();
  expect_bfs_matches_cpu(g, first_connected_vertex(g), cfg);
}

INSTANTIATE_TEST_SUITE_P(
    GpuCounts, BfsSweep,
    ::testing::Values(
        BfsParam{1, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{3, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{6, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion}));

INSTANTIATE_TEST_SUITE_P(
    Strategies, BfsSweep,
    ::testing::Values(
        BfsParam{4, "random", part::Duplication::kOneHop,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "random", part::Duplication::kAll,
                 core::CommStrategy::kBroadcast,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{3, "random", part::Duplication::kOneHop,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kJustEnough}));

INSTANTIATE_TEST_SUITE_P(
    Schemes, BfsSweep,
    ::testing::Values(
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kJustEnough},
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kFixedPrealloc},
        BfsParam{2, "random", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kMax}));

INSTANTIATE_TEST_SUITE_P(
    Partitioners, BfsSweep,
    ::testing::Values(
        BfsParam{4, "biasrandom", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "metis", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion},
        BfsParam{4, "chunk", part::Duplication::kAll,
                 core::CommStrategy::kSelective,
                 vgpu::AllocationScheme::kPreallocFusion}));

TEST(Bfs, RoadGridHighDiameter) {
  const auto g = test::small_grid();
  expect_bfs_matches_cpu(g, 0, config_for(2));
}

TEST(Bfs, DisconnectedComponentsStayUnreached) {
  // Two disjoint cliques; BFS from one must not reach the other.
  graph::GraphCoo coo;
  coo.num_vertices = 8;
  for (VertexT u = 0; u < 4; ++u)
    for (VertexT v = u + 1; v < 4; ++v) coo.add_edge(u, v);
  for (VertexT u = 4; u < 8; ++u)
    for (VertexT v = u + 1; v < 8; ++v) coo.add_edge(u, v);
  const auto g = graph::build_undirected(std::move(coo));
  auto machine = test_machine(2);
  const auto result = prim::run_bfs(g, 0, machine, config_for(2));
  for (VertexT v = 4; v < 8; ++v) {
    EXPECT_EQ(result.labels[v], kInvalidVertex);
  }
}

TEST(Bfs, StatsArepopulated) {
  const auto g = test::small_rmat();
  auto machine = test_machine(4);
  const auto result =
      prim::run_bfs(g, first_connected_vertex(g), machine, config_for(4));
  EXPECT_GT(result.stats.iterations, 0u);
  EXPECT_GT(result.stats.total_edges, 0u);
  EXPECT_GT(result.stats.total_comm_items, 0u);  // 4 GPUs must talk
  EXPECT_GT(result.stats.modeled_total_s(), 0.0);
}

}  // namespace
}  // namespace mgg
