// Unit tests for partitioners and the PartitionedGraph builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "partition/partitioned_graph.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace mgg {
namespace {

using part::Duplication;
using part::PartitionedGraph;

constexpr const char* kPartitioners[] = {"random", "biasrandom", "metis",
                                         "chunk"};

void expect_valid_assignment(const std::vector<int>& a, int parts) {
  for (const int p : a) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, parts);
  }
}

class PartitionerSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PartitionerSweep, ProducesValidDeterministicAssignment) {
  const auto g = test::small_rmat();
  const auto partitioner = part::make_partitioner(GetParam());
  const auto a = partitioner->assign(g, 4, 7);
  EXPECT_EQ(a.size(), g.num_vertices);
  expect_valid_assignment(a, 4);
  // Deterministic in seed.
  EXPECT_EQ(a, partitioner->assign(g, 4, 7));
}

TEST_P(PartitionerSweep, SinglePartIsTrivial) {
  const auto g = test::small_rmat(6, 4);
  const auto a = part::make_partitioner(GetParam())->assign(g, 1, 7);
  for (const int p : a) EXPECT_EQ(p, 0);
}

INSTANTIATE_TEST_SUITE_P(All, PartitionerSweep,
                         ::testing::Values("random", "biasrandom", "metis",
                                           "chunk"));

TEST(Partitioner, UnknownNameThrows) {
  EXPECT_THROW(part::make_partitioner("kahip"), Error);
}

TEST(Partitioner, RandomIsBalanced) {
  const auto g = test::small_rmat(10, 8);
  const auto a = part::RandomPartitioner().assign(g, 4, 3);
  const auto m = part::measure_partition(g, a, 4);
  EXPECT_LT(m.vertex_imbalance, 1.1);
}

TEST(Partitioner, MetisCutsFewerEdgesOnStructuredGraphs) {
  // On a grid, a locality-aware partitioner must beat random edge cut.
  const auto g = test::small_grid(30, 30);
  const auto random = part::RandomPartitioner().assign(g, 4, 3);
  const auto metis = part::MetisLikePartitioner().assign(g, 4, 3);
  const auto m_random = part::measure_partition(g, random, 4);
  const auto m_metis = part::measure_partition(g, metis, 4);
  EXPECT_LT(m_metis.edge_cut, m_random.edge_cut / 2);
}

TEST(Partitioner, ChunkKeepsContiguity) {
  const auto g = test::small_rmat(8, 4);
  const auto a = part::ChunkPartitioner().assign(g, 3, 0);
  for (std::size_t v = 1; v < a.size(); ++v) {
    EXPECT_GE(a[v], a[v - 1]) << "chunk assignment must be monotone";
  }
}

TEST(Partitioner, BorderCountsDistinctVertices) {
  // Star: center on part 0, leaves on part 1. Part 0's border is the
  // leaf set; part 1's border is just the center (counted once,
  // despite many cut edges — the paper's key |B_i| vs edge-cut point).
  graph::GraphCoo coo;
  coo.num_vertices = 9;
  for (VertexT v = 1; v < 9; ++v) coo.add_edge(0, v);
  const auto g = graph::build_undirected(std::move(coo));
  std::vector<int> a(9, 1);
  a[0] = 0;
  const auto m = part::measure_partition(g, a, 2);
  EXPECT_EQ(m.edge_cut, 16u);      // 8 edges, both directions
  EXPECT_EQ(m.border_out[0], 8u);  // center borders all leaves
  EXPECT_EQ(m.border_out[1], 1u);  // leaves border only the center
}

class DuplicationSweep : public ::testing::TestWithParam<Duplication> {};

TEST_P(DuplicationSweep, SubgraphsPreserveEveryEdge) {
  const auto g = test::small_rmat();
  const auto a = part::RandomPartitioner().assign(g, 3, 5);
  const auto pg = PartitionedGraph::build(g, a, 3, GetParam());

  SizeT total_edges = 0;
  for (int p = 0; p < 3; ++p) total_edges += pg.sub(p).csr.num_edges;
  EXPECT_EQ(total_edges, g.num_edges);

  // Every original edge appears in the owner's subgraph with correctly
  // mapped endpoints.
  for (VertexT u = 0; u < g.num_vertices; ++u) {
    const int owner = pg.owner_of(u);
    const auto& sub = pg.sub(owner);
    // Find u's local id.
    VertexT lu = kInvalidVertex;
    for (VertexT lv = 0; lv < sub.num_total(); ++lv) {
      if (sub.local_to_global[lv] == u) {
        lu = lv;
        break;
      }
    }
    ASSERT_NE(lu, kInvalidVertex);
    ASSERT_EQ(sub.csr.degree(lu), g.degree(u));
    std::multiset<VertexT> expected(g.neighbors(u).begin(),
                                    g.neighbors(u).end());
    std::multiset<VertexT> actual;
    for (const VertexT lv : sub.csr.neighbors(lu)) {
      actual.insert(sub.local_to_global[lv]);
    }
    EXPECT_EQ(actual, expected) << "vertex " << u;
  }
}

TEST_P(DuplicationSweep, ProxiesHaveNoOutEdges) {
  const auto g = test::small_rmat(7, 4);
  const auto a = part::RandomPartitioner().assign(g, 4, 5);
  const auto pg = PartitionedGraph::build(g, a, 4, GetParam());
  for (int p = 0; p < 4; ++p) {
    const auto& sub = pg.sub(p);
    for (VertexT lv = 0; lv < sub.num_total(); ++lv) {
      if (!sub.is_hosted(lv)) {
        EXPECT_EQ(sub.csr.degree(lv), 0u);
      }
    }
  }
}

TEST_P(DuplicationSweep, HostLocalIdsRoundTrip) {
  const auto g = test::small_rmat(7, 4);
  const auto a = part::RandomPartitioner().assign(g, 3, 9);
  const auto pg = PartitionedGraph::build(g, a, 3, GetParam());
  for (int p = 0; p < 3; ++p) {
    const auto& sub = pg.sub(p);
    for (VertexT lv = 0; lv < sub.num_total(); ++lv) {
      const VertexT gv = sub.local_to_global[lv];
      const int owner = sub.owner[lv];
      EXPECT_EQ(owner, pg.owner_of(gv));
      // The advertised host-local ID maps back to the same global
      // vertex on the owner.
      const VertexT host_lv = sub.host_local_id[lv];
      EXPECT_EQ(pg.sub(owner).local_to_global[host_lv], gv);
      EXPECT_EQ(pg.host_local_of(gv), host_lv);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Both, DuplicationSweep,
                         ::testing::Values(Duplication::kOneHop,
                                           Duplication::kAll));

TEST(PartitionedGraph, DuplicateAllUsesGlobalIds) {
  const auto g = test::small_rmat(6, 4);
  const auto a = part::RandomPartitioner().assign(g, 2, 1);
  const auto pg = PartitionedGraph::build(g, a, 2, Duplication::kAll);
  for (int p = 0; p < 2; ++p) {
    const auto& sub = pg.sub(p);
    EXPECT_EQ(sub.num_total(), g.num_vertices);
    for (VertexT v = 0; v < sub.num_total(); ++v) {
      EXPECT_EQ(sub.local_to_global[v], v);
      EXPECT_EQ(sub.host_local_id[v], v);
    }
  }
}

TEST(PartitionedGraph, OneHopHostedAreContiguousFirst) {
  const auto g = test::small_rmat(6, 4);
  const auto a = part::RandomPartitioner().assign(g, 3, 1);
  const auto pg = PartitionedGraph::build(g, a, 3, Duplication::kOneHop);
  for (int p = 0; p < 3; ++p) {
    const auto& sub = pg.sub(p);
    for (VertexT lv = 0; lv < sub.num_total(); ++lv) {
      EXPECT_EQ(sub.is_hosted(lv), lv < sub.num_local);
    }
    // One-hop keeps far fewer vertices than duplicate-all would.
    EXPECT_LE(sub.num_total(), g.num_vertices);
  }
}

TEST(PartitionedGraph, BorderMatchesMeasuredMetrics) {
  const auto g = test::small_rmat(7, 4);
  for (const char* name : kPartitioners) {
    for (const Duplication dup : {Duplication::kAll, Duplication::kOneHop}) {
      for (const int parts : {2, 3, 4, 8}) {
        SCOPED_TRACE(std::string(name) + " " + part::to_string(dup) + " " +
                     std::to_string(parts) + " parts");
        const auto a = part::make_partitioner(name)->assign(g, parts, 2);
        const auto pg = PartitionedGraph::build(g, a, parts, dup);
        const auto m = part::measure_partition(g, a, parts);
        for (int p = 0; p < parts; ++p) {
          EXPECT_EQ(pg.border_total(p), m.border_out[p]);
          if (dup == Duplication::kOneHop) {
            // One-hop proxies on p are exactly its outgoing border.
            EXPECT_EQ(pg.sub(p).num_total() - pg.sub(p).num_local,
                      m.border_out[p]);
          }
        }
      }
    }
  }
}

/// FNV-1a over every PartitionedGraph field: the assignment, the
/// convertion table, each sub's CSR and tables, and the border matrix.
std::uint64_t digest(const PartitionedGraph& pg) {
  test::Digest d;
  d.pod(pg.num_parts());
  d.pod(static_cast<int>(pg.duplication()));
  d.pod(pg.global_vertices());
  d.pod(pg.global_edges());
  d.vec(pg.assignment());
  for (VertexT v = 0; v < pg.global_vertices(); ++v) {
    d.pod(pg.host_local_of(v));
  }
  for (int p = 0; p < pg.num_parts(); ++p) {
    const auto& sub = pg.sub(p);
    d.pod(sub.gpu_id);
    d.pod(sub.num_local);
    d.pod(sub.csr.num_vertices);
    d.pod(sub.csr.num_edges);
    d.vec(sub.csr.row_offsets);
    d.vec(sub.csr.col_indices);
    d.vec(sub.csr.edge_values);
    d.vec(sub.local_to_global);
    d.vec(sub.owner);
    d.vec(sub.host_local_id);
    for (int q = 0; q < pg.num_parts(); ++q) d.pod(pg.border(p, q));
  }
  return d.value();
}

/// Field-by-field equality of two builds.
void expect_same_tables(const PartitionedGraph& a, const PartitionedGraph& b) {
  ASSERT_EQ(a.num_parts(), b.num_parts());
  EXPECT_EQ(a.duplication(), b.duplication());
  EXPECT_EQ(a.global_vertices(), b.global_vertices());
  EXPECT_EQ(a.global_edges(), b.global_edges());
  EXPECT_EQ(a.assignment(), b.assignment());
  for (VertexT v = 0; v < a.global_vertices(); ++v) {
    ASSERT_EQ(a.host_local_of(v), b.host_local_of(v)) << "vertex " << v;
  }
  for (int p = 0; p < a.num_parts(); ++p) {
    const auto& sa = a.sub(p);
    const auto& sb = b.sub(p);
    EXPECT_EQ(sa.gpu_id, sb.gpu_id);
    EXPECT_EQ(sa.num_local, sb.num_local);
    EXPECT_TRUE(sa.csr == sb.csr) << "part " << p;
    EXPECT_EQ(sa.local_to_global, sb.local_to_global) << "part " << p;
    EXPECT_EQ(sa.owner, sb.owner) << "part " << p;
    EXPECT_EQ(sa.host_local_id, sb.host_local_id) << "part " << p;
    for (int q = 0; q < a.num_parts(); ++q) {
      EXPECT_EQ(a.border(p, q), b.border(p, q)) << "part " << p;
    }
  }
}

TEST(PartitionedGraph, BuildIsPinnedAndWidthInvariant) {
  // Digests recorded from the former serial builder:
  // [partitioner][duplication: all, 1-hop][parts: 1, 2, 3, 4, 8].
  constexpr int kParts[] = {1, 2, 3, 4, 8};
  constexpr std::uint64_t kGolden[4][2][5] = {
      // random
      {{0xc23668c2c6d354a0ull, 0x5762513ae5a9aaf0ull, 0x7db462e09e03b43ull,
        0xca64e662300782d3ull, 0x1e4faff12a191a5cull},
       {0x3416d4b3b31f5da1ull, 0x120ac4cd3134035bull, 0x6c9458bc2a11482cull,
        0xa7f9cf7e0daafc8cull, 0x9f9bc71a0eac40bfull}},
      // biasrandom
      {{0xc23668c2c6d354a0ull, 0x3b170f795cb64722ull, 0x810c7c2d2527e87full,
        0x30cfaafafeccd24dull, 0xc18980c1434b43e0ull},
       {0x3416d4b3b31f5da1ull, 0xdb94d02c7e42bb71ull, 0xc37fce08976de05cull,
        0x8f83d8fed9931358ull, 0x42580a495cd97582ull}},
      // metis
      {{0xc23668c2c6d354a0ull, 0x3b495d3b8557d1e0ull, 0xe18c895d0e264751ull,
        0x8cc6503bbc66b965ull, 0xce70cfc79484649aull},
       {0x3416d4b3b31f5da1ull, 0x75553eac82fa58d8ull, 0x829bc4c02740f9full,
        0x379487f18818d08eull, 0xa3c3bb259093371cull}},
      // chunk
      {{0xc23668c2c6d354a0ull, 0xd335e9925d078415ull, 0x7400596397912bc6ull,
        0xc4a9d042941d147full, 0xe934f10463a6cb73ull},
       {0x3416d4b3b31f5da1ull, 0x972cd20f6387e373ull, 0x5b14f0ab7df84d9aull,
        0x16f0add45dc1f443ull, 0xc29d6627ae0fc14aull}},
  };
  const auto g = test::small_weighted_rmat();
  for (int i = 0; i < 4; ++i) {
    for (int d = 0; d < 2; ++d) {
      const Duplication dup = d == 0 ? Duplication::kAll : Duplication::kOneHop;
      for (int k = 0; k < 5; ++k) {
        const int parts = kParts[k];
        SCOPED_TRACE(std::string(kPartitioners[i]) + " " +
                     part::to_string(dup) + " " + std::to_string(parts) +
                     " parts");
        const auto a = part::make_partitioner(kPartitioners[i])
                           ->assign(g, parts, 11);
        std::optional<PartitionedGraph> serial;
        for (const int w : {1, 2, 4, 8}) {
          const test::PoolWidth width(w);
          const auto pg = PartitionedGraph::build(g, a, parts, dup);
          if (!serial) {
            EXPECT_EQ(digest(pg), kGolden[i][d][k])
                << std::hex << "0x" << digest(pg);
            serial = pg;
          } else {
            expect_same_tables(pg, *serial);
          }
        }
      }
    }
  }
}

TEST(PartitionedGraph, BuildsMorePartsThanPoolChunks) {
  // More parts than one pool job has chunks: parallel_for folds them
  // into kMaxChunks ranges on the pool's fixed helpers.
  constexpr int kManyParts = 80;
  static_assert(kManyParts > util::ThreadPool::kMaxChunks);
  const auto g = test::small_weighted_rmat(7, 4);
  const auto a = part::RandomPartitioner().assign(g, kManyParts, 5);
  for (const Duplication dup : {Duplication::kAll, Duplication::kOneHop}) {
    SCOPED_TRACE(part::to_string(dup));
    std::optional<PartitionedGraph> serial;
    {
      const test::PoolWidth width(1);
      serial = PartitionedGraph::build(g, a, kManyParts, dup);
    }
    const test::PoolWidth width(4);
    const auto pg = PartitionedGraph::build(g, a, kManyParts, dup);
    expect_same_tables(pg, *serial);

    // Every edge is kept, under its host, in order.
    SizeT edges = 0;
    VertexT hosted = 0;
    for (int p = 0; p < kManyParts; ++p) {
      const auto& sub = pg.sub(p);
      edges += sub.csr.num_edges;
      for (VertexT lv = 0; lv < sub.num_total(); ++lv) {
        if (!sub.is_hosted(lv)) continue;
        ++hosted;
        const VertexT gv = sub.local_to_global[lv];
        std::vector<VertexT> mapped;
        for (const VertexT u : sub.csr.neighbors(lv)) {
          mapped.push_back(sub.local_to_global[u]);
        }
        const auto expected = g.neighbors(gv);
        EXPECT_TRUE(std::equal(mapped.begin(), mapped.end(),
                               expected.begin(), expected.end()))
            << "vertex " << gv;
        if (mapped.empty()) continue;
        const auto values = sub.csr.neighbor_values(lv);
        const auto expected_values = g.neighbor_values(gv);
        EXPECT_TRUE(std::equal(values.begin(), values.end(),
                               expected_values.begin(),
                               expected_values.end()))
            << "vertex " << gv;
      }
    }
    EXPECT_EQ(edges, g.num_edges);
    EXPECT_EQ(hosted, g.num_vertices);
  }
}

TEST(PartitionedGraph, RejectsBadInput) {
  const auto g = test::small_rmat(6, 4);
  std::vector<int> wrong_size(10, 0);
  EXPECT_THROW(PartitionedGraph::build(g, wrong_size, 2, Duplication::kAll),
               Error);
  std::vector<int> out_of_range(g.num_vertices, 5);
  EXPECT_THROW(
      PartitionedGraph::build(g, out_of_range, 2, Duplication::kAll),
      Error);
}

}  // namespace
}  // namespace mgg
