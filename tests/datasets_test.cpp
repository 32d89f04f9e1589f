// Tests for the dataset registry: every analog generates, preserves
// its family's structural signature, and is deterministic.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "graph/datasets.hpp"
#include "graph/properties.hpp"
#include "test_support.hpp"

namespace mgg {
namespace {

TEST(Datasets, RegistryCoversTableII) {
  const auto suite = graph::table2_suite();
  EXPECT_EQ(suite.size(), 16u);  // 5 soc + 5 web + 6 rmat
  for (const char* name :
       {"soc-orkut", "uk-2002", "rmat_n22_128", "hollywood-2009"}) {
    EXPECT_NO_THROW(graph::find_dataset(name));
  }
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(graph::find_dataset("does-not-exist"), Error);
  EXPECT_THROW(graph::build_dataset("does-not-exist"), Error);
}

TEST(Datasets, DeterministicPerSeed) {
  const auto a = graph::build_dataset("hollywood-2009", 1);
  const auto b = graph::build_dataset("hollywood-2009", 1);
  EXPECT_TRUE(a.graph == b.graph);
  const auto c = graph::build_dataset("hollywood-2009", 2);
  EXPECT_FALSE(a.graph == c.graph);
}

TEST(Datasets, AllBuildAndAreWeighted) {
  // Golden digests (test::digest: vertex count, row offsets, columns and
  // weight bits) of every analog built here at the default seed,
  // recorded from the serial graph build. The parallel build must
  // reproduce each graph byte for byte.
  const std::map<std::string, std::uint64_t> golden = {
      {"soc-LiveJournal1", 0xda15bad3e4f6772eull},
      {"hollywood-2009", 0x1903d145fec51ef9ull},
      {"soc-orkut", 0x26aa9cd5df7a68b7ull},
      {"soc-sinaweibo", 0xe87acafa8dc2508cull},
      {"soc-twitter-2010", 0x3465b4bae925dce2ull},
      {"indochina-2004", 0x6b65cd2b218a3a0bull},
      {"uk-2002", 0xfd1e01bf6c034b61ull},
      {"arabic-2005", 0xfad6385de0754d33ull},
      {"uk-2005", 0xc0bb82bb58c11a79ull},
      {"webbase-2001", 0xa9309d4458056a4full},
      {"rmat_n20_512", 0x828d8de85cfcc2c4ull},
      {"rmat_n21_256", 0x79bdf035e5d4bbb6ull},
      {"rmat_n22_128", 0x46bc262ed8865176ull},
      {"rmat_n23_64", 0x86eb35c37887614cull},
      {"rmat_n24_32", 0xd57b33e53d34aa0dull},
      {"rmat_n25_16", 0x2bdaa41c690d4fd3ull},
      {"kron_n24_32", 0x7e2723746f9a5c75ull},
      {"kron_n23_16", 0x4e859f189f7edfbcull},
      {"kron_n25_16", 0x988f7fad86780f35ull},
      {"kron_n25_32", 0x675f22f09ccdca2aull},
      {"kron_n23_32", 0x36f5b203ba0021e7ull},
      {"rmat_2Mv_128Me", 0x9f7a83c6ab256db2ull},
      {"coPapersCiteseer", 0xe5f737510c87aba8ull},
      {"com-orkut", 0xc5d15527c54309b5ull},
      {"com-Friendster", 0xe58adcfea5057ecbull},
      {"twitter-mpi", 0xa4f8f6e20b7f3345ull},
      {"twitter-rv", 0xbc110ff4e87616c2ull},
      {"sk-2005", 0x4afd60faab47d776ull},
      {"road-grid", 0x50e5663109dcca18ull},
  };
  for (const auto& spec : graph::dataset_registry()) {
    // Keep test time bounded: skip the largest analogs here (they are
    // exercised by the benches).
    if (spec.paper_edges > 2e9) continue;
    const auto ds = graph::build_dataset(spec.name);
    const auto it = golden.find(spec.name);
    ASSERT_NE(it, golden.end()) << spec.name;
    EXPECT_EQ(test::digest(ds.graph), it->second)
        << "{\"" << spec.name << "\", 0x" << std::hex
        << test::digest(ds.graph) << "ull},";
    EXPECT_GT(ds.graph.num_vertices, 0u) << spec.name;
    EXPECT_GT(ds.graph.num_edges, 0u) << spec.name;
    EXPECT_TRUE(ds.graph.has_values()) << spec.name;
    if (spec.undirected) {
      EXPECT_TRUE(graph::is_symmetric(ds.graph)) << spec.name;
    }
  }
}

TEST(Datasets, FamilySignatures) {
  // soc: low diameter; web: deeper; rmat: dense and shallow.
  const auto soc = graph::build_dataset("soc-orkut");
  const auto web = graph::build_dataset("uk-2002");
  const auto rmat = graph::build_dataset("rmat_n20_512");
  const double d_soc = graph::estimate_diameter(soc.graph, 6);
  const double d_web = graph::estimate_diameter(web.graph, 6);
  EXPECT_LT(d_soc, d_web);
  EXPECT_GT(rmat.graph.average_degree(), soc.graph.average_degree());
}

TEST(Datasets, EdgeFactorTracksPaper) {
  // The analog's |E|/|V| should be within 3x of the paper's ratio —
  // that ratio drives the scalability conclusions (Fig. 6).
  for (const char* name : {"soc-orkut", "uk-2002", "rmat_n22_128",
                           "soc-LiveJournal1", "indochina-2004"}) {
    const auto ds = graph::build_dataset(name);
    const double paper_ratio =
        ds.spec.paper_edges / ds.spec.paper_vertices;
    const double analog_ratio = ds.graph.average_degree();
    EXPECT_GT(analog_ratio, paper_ratio / 3) << name;
    EXPECT_LT(analog_ratio, paper_ratio * 6) << name;
  }
}

TEST(Datasets, FamilyListing) {
  const auto soc = graph::datasets_in_family("soc");
  EXPECT_EQ(soc.size(), 5u);
  const auto all = graph::datasets_in_family();
  EXPECT_GT(all.size(), 20u);
}

}  // namespace
}  // namespace mgg
