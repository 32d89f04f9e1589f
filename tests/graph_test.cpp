// Unit tests for the graph substrate: COO cleanup, CSR construction,
// transpose, generators, and property measurement.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <utility>

#include "baselines/cpu_reference.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace mgg {
namespace {

using graph::Coo;
using graph::Csr;
using graph::GraphCoo;

TEST(Coo, RemoveSelfLoops) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 0);
  coo.add_edge(0, 1);
  coo.add_edge(2, 2);
  coo.remove_self_loops();
  EXPECT_EQ(coo.num_edges(), 1u);
  EXPECT_EQ(coo.src[0], 0u);
  EXPECT_EQ(coo.dst[0], 1u);
}

TEST(Coo, RemoveDuplicatesKeepsFirstValue) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 5.0f);
  coo.add_edge(0, 1, 9.0f);
  coo.add_edge(1, 2, 3.0f);
  coo.remove_duplicates();
  ASSERT_EQ(coo.num_edges(), 2u);
  EXPECT_FLOAT_EQ(coo.values[0], 5.0f);
}

TEST(Coo, SymmetrizePreservesWeights) {
  GraphCoo coo;
  coo.num_vertices = 2;
  coo.add_edge(0, 1, 7.0f);
  coo.symmetrize();
  ASSERT_EQ(coo.num_edges(), 2u);
  EXPECT_EQ(coo.src[1], 1u);
  EXPECT_EQ(coo.dst[1], 0u);
  EXPECT_FLOAT_EQ(coo.values[1], 7.0f);
}

TEST(Coo, ValidateCatchesOutOfRange) {
  GraphCoo coo;
  coo.num_vertices = 2;
  coo.add_edge(0, 5);
  EXPECT_THROW(coo.validate(), Error);
}

TEST(Csr, FromCooBasicStructure) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(1, 0);
  coo.add_edge(0, 2);
  coo.add_edge(0, 1);
  coo.add_edge(3, 2);
  const auto g = graph::Graph::from_coo(coo);
  EXPECT_EQ(g.num_vertices, 4u);
  EXPECT_EQ(g.num_edges, 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  // Neighbor lists are sorted.
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, TransposeReversesEdges) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 2.0f);
  coo.add_edge(0, 2, 3.0f);
  const auto g = graph::Graph::from_coo(coo);
  const auto t = g.transpose();
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.degree(1), 1u);
  EXPECT_EQ(t.neighbors(1)[0], 0u);
  EXPECT_FLOAT_EQ(t.neighbor_values(2)[0], 3.0f);
  // Double transpose is the identity.
  EXPECT_TRUE(t.transpose() == g);
}

TEST(Csr, SixtyFourBitInstantiation) {
  graph::Coo64 coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1);
  coo.add_edge(1, 2);
  const auto g = graph::Csr64::from_coo(coo);
  EXPECT_EQ(g.num_vertices, 3u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(sizeof(g.col_indices[0]), 8u);
}

TEST(Csr, SixtyFourBitBfsEndToEnd) {
  // Build a 64-bit ID graph structurally identical to a 32-bit one and
  // check the generic BFS agrees (Table V's ID-width support).
  graph::Coo64 coo64;
  graph::GraphCoo coo32;
  coo64.num_vertices = 64;
  coo32.num_vertices = 64;
  util::Rng rng(5);
  for (int e = 0; e < 300; ++e) {
    const auto u = rng.next_below(64);
    const auto v = rng.next_below(64);
    coo64.add_edge(u, v);
    coo32.add_edge(static_cast<VertexT>(u), static_cast<VertexT>(v));
  }
  coo64.to_undirected_clean();
  coo32.to_undirected_clean();
  const auto g64 = graph::Csr64::from_coo(coo64);
  const auto g32 = graph::Graph::from_coo(coo32);
  const auto d64 = baselines::cpu_bfs_generic(g64, std::uint64_t{0});
  const auto d32 = baselines::cpu_bfs_generic(g32, VertexT{0});
  ASSERT_EQ(d64.size(), d32.size());
  for (std::size_t v = 0; v < d64.size(); ++v) {
    if (d32[v] == kInvalidVertex) {
      EXPECT_EQ(d64[v], invalid_vertex_v<std::uint64_t>);
    } else {
      EXPECT_EQ(d64[v], d32[v]);
    }
  }
}

TEST(Csr, StorageBytesAccountsAllArrays) {
  const auto g = test::small_weighted_rmat(6, 4);
  const std::size_t expected = (g.num_vertices + 1) * sizeof(SizeT) +
                               g.num_edges * sizeof(VertexT) +
                               g.num_edges * sizeof(ValueT);
  EXPECT_EQ(g.storage_bytes(), expected);
}

TEST(Generators, RmatDeterministicAndSized) {
  const auto a = graph::make_rmat(8, 8, graph::RmatParams::gtgraph(), 5);
  const auto b = graph::make_rmat(8, 8, graph::RmatParams::gtgraph(), 5);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.num_vertices, 256u);
  EXPECT_EQ(a.num_edges(), 2048u);
  const auto c = graph::make_rmat(8, 8, graph::RmatParams::gtgraph(), 6);
  EXPECT_NE(a.src, c.src);
}

TEST(Generators, RmatIsSkewed) {
  // R-MAT with GTgraph parameters concentrates edges on low vertex IDs.
  const auto g = test::small_rmat(10, 8);
  SizeT low_half = 0;
  for (VertexT v = 0; v < g.num_vertices / 2; ++v) low_half += g.degree(v);
  EXPECT_GT(low_half, g.num_edges / 2);
  // And the max degree is far above the average (power law).
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
}

TEST(Generators, RmatRejectsBadParams) {
  EXPECT_THROW(graph::make_rmat(0, 8), Error);
  EXPECT_THROW(
      graph::make_rmat(8, 8, graph::RmatParams{0.5, 0.5, 0.5, 0.5}),
      Error);
}

TEST(Generators, ChainShape) {
  const auto coo = graph::make_chain(10);
  EXPECT_EQ(coo.num_edges(), 9u);
  const auto g = graph::build_undirected(coo);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 2u);
  EXPECT_EQ(graph::bfs_eccentricity(g, 0), 9u);
}

TEST(Generators, RoadGridHighDiameterLowDegree) {
  const auto g = test::small_grid(20, 20);
  EXPECT_LE(g.max_degree(), 4u);
  EXPECT_GE(graph::estimate_diameter(g, 8), 20.0);
  EXPECT_TRUE(g.has_values());
}

TEST(Generators, SocialPowerLawLowDiameter) {
  const auto g = graph::build_undirected(graph::make_social(4000, 8));
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
  EXPECT_LE(graph::estimate_diameter(g, 8), 8.0);
  EXPECT_EQ(graph::count_components(g), 1u);
}

TEST(Generators, WebDeeperThanSocial) {
  const auto social =
      graph::build_undirected(graph::make_social(8000, 10));
  const auto web =
      graph::build_undirected(graph::make_web(120, 64, 10));
  EXPECT_GT(graph::estimate_diameter(web, 8),
            graph::estimate_diameter(social, 8));
}

TEST(Generators, SmallWorldStructure) {
  // beta = 0: a pure ring lattice — degree exactly 2k, huge diameter.
  const auto lattice = graph::build_undirected(
      graph::make_small_world(400, 3, 0.0, 9));
  const auto lattice_stats = graph::degree_stats(lattice);
  EXPECT_EQ(lattice_stats.min_degree, 6u);
  EXPECT_EQ(lattice_stats.max_degree, 6u);
  const double lattice_diameter = graph::estimate_diameter(lattice, 6);

  // beta = 0.1: same edge budget, but shortcuts collapse the diameter
  // (the small-world effect).
  const auto small_world = graph::build_undirected(
      graph::make_small_world(400, 3, 0.1, 9));
  EXPECT_LT(graph::estimate_diameter(small_world, 6),
            lattice_diameter / 2);
  EXPECT_EQ(graph::count_components(small_world), 1u);
}

TEST(Generators, SmallWorldRejectsBadParams) {
  EXPECT_THROW(graph::make_small_world(10, 5, 0.1), Error);
  EXPECT_THROW(graph::make_small_world(100, 2, 1.5), Error);
}

TEST(Generators, KroneckerMatchesRmatFamily) {
  // The noise-free Kronecker generator produces the same family as
  // R-MAT: skewed degrees concentrated on low vertex IDs.
  const auto g = graph::build_undirected(
      graph::make_kronecker(10, 8, graph::RmatParams::gtgraph(), 4));
  EXPECT_EQ(g.num_vertices, 1024u);
  SizeT low_half = 0;
  for (VertexT v = 0; v < g.num_vertices / 2; ++v) low_half += g.degree(v);
  EXPECT_GT(low_half, g.num_edges / 2);
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
  // Deterministic in seed.
  const auto h = graph::build_undirected(
      graph::make_kronecker(10, 8, graph::RmatParams::gtgraph(), 4));
  EXPECT_TRUE(g == h);
}

TEST(Generators, WeightsInRange) {
  auto coo = graph::make_chain(100);
  graph::assign_random_weights(coo, 0, 64, 3);
  for (const ValueT w : coo.values) {
    EXPECT_GE(w, 0.0f);
    EXPECT_LE(w, 64.0f);
  }
}

TEST(Generators, RawOutputIsPinned) {
  // Golden digests (test::digest) of every generator's raw edge list at
  // test size, recorded from the serial generators.
  auto rmat = graph::make_rmat(10, 8, graph::RmatParams::gtgraph(), 3);
  graph::assign_random_weights(rmat, 0, 64, 11);
  const std::pair<const char*, GraphCoo> cases[] = {
      {"rmat-gtgraph", std::move(rmat)},
      {"rmat-merrill",
       graph::make_rmat(10, 8, graph::RmatParams::merrill(), 3)},
      {"kronecker",
       graph::make_kronecker(10, 8, graph::RmatParams::gtgraph(), 4)},
      {"social", graph::make_social(2000, 6, 5)},
      {"web", graph::make_web(40, 32, 6, 0.15, 6)},
      {"road", graph::make_road_grid(30, 20, 0.05, 7)},
      {"small-world", graph::make_small_world(500, 3, 0.1, 8)},
      {"uniform", graph::make_uniform_random(1000, 5000, 9)},
  };
  constexpr std::uint64_t kGolden[] = {
      0x11feb4613f09f3afull, 0xab7ff150bb5cc203ull, 0x000ef15c3a43ffb1ull,
      0xa395602b8024a83bull, 0x5a51d3e87c88837eull, 0x22b5204ad302866dull,
      0x151104c0e45e991bull, 0xe607039ef3a809b7ull};
  static_assert(std::size(kGolden) == std::size(cases));
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(test::digest(cases[i].second), kGolden[i])
        << cases[i].first << ": 0x" << std::hex
        << test::digest(cases[i].second);
  }
}

TEST(Coo, SixtyFourBitCleanIsPinned) {
  // 64-bit IDs whose high and low halves both vary, with duplicates that
  // carry distinct weights and a few self loops, so the clean has to
  // order on every key bit and keep each first occurrence's weight.
  graph::Coo64 coo;
  coo.num_vertices = std::uint64_t{1} << 40;
  util::Rng rng(21);
  const auto draw = [&rng] {
    const std::uint64_t high = rng.next_below(16) << 36;
    return high | rng.next_below(8);
  };
  for (int e = 0; e < 3000; ++e) {
    const std::uint64_t u = draw();
    const std::uint64_t v = e % 50 == 0 ? u : draw();
    coo.add_edge(u, v, static_cast<float>(e));
  }
  coo.to_undirected_clean();
  EXPECT_EQ(test::digest(coo), 0x3c3ea0f225492f37ull)
      << "0x" << std::hex << test::digest(coo);
}

TEST(Generators, ParallelBuildIsWidthInvariant) {
  // Generate -> clean -> CSR for rmat (weighted) and kronecker at scale
  // 14, which spans several chunks of each stage, at every pool width.
  // Each build must equal the width-1 build and the digest recorded
  // from the serial build.
  const auto build = [](bool rmat) {
    auto coo = rmat ? graph::make_rmat(14, 16, graph::RmatParams::gtgraph(), 1)
                    : graph::make_kronecker(14, 16,
                                            graph::RmatParams::gtgraph(), 2);
    if (rmat) graph::assign_random_weights(coo, 0, 64, 3);
    return graph::build_undirected(std::move(coo));
  };
  constexpr std::uint64_t kGolden[] = {0x1b12d9db90a0be6cull,
                                       0xe42323a6fbe5e78dull};
  for (const bool rmat : {true, false}) {
    SCOPED_TRACE(rmat ? "rmat" : "kronecker");
    std::optional<graph::Graph> serial;
    for (const int w : {1, 2, 4, 8}) {
      const test::PoolWidth width(w);
      const auto g = build(rmat);
      if (!serial) {
        EXPECT_EQ(test::digest(g), kGolden[rmat ? 0 : 1])
            << "0x" << std::hex << test::digest(g);
        serial = g;
      } else {
        EXPECT_TRUE(g == *serial) << "width " << w;
      }
    }
  }
}

TEST(Properties, DegreeStats) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 1);
  coo.add_edge(0, 2);
  coo.add_edge(0, 3);
  const auto g = graph::Graph::from_coo(coo);
  const auto stats = graph::degree_stats(g);
  EXPECT_EQ(stats.max_degree, 3u);
  EXPECT_EQ(stats.min_degree, 0u);
  EXPECT_EQ(stats.isolated_vertices, 3u);  // 1,2,3 have no out-edges
}

TEST(Properties, SymmetryDetection) {
  const auto undirected = test::small_rmat(6, 4);
  EXPECT_TRUE(graph::is_symmetric(undirected));
  GraphCoo coo;
  coo.num_vertices = 2;
  coo.add_edge(0, 1);
  EXPECT_FALSE(graph::is_symmetric(graph::Graph::from_coo(coo)));
}

TEST(Properties, ComponentCount) {
  GraphCoo coo;
  coo.num_vertices = 5;
  coo.add_edge(0, 1);
  coo.add_edge(2, 3);
  const auto g = graph::build_undirected(std::move(coo));
  EXPECT_EQ(graph::count_components(g), 3u);  // {0,1} {2,3} {4}
}

}  // namespace
}  // namespace mgg
