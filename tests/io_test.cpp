// Unit tests for MatrixMarket and edge-list I/O.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace mgg {
namespace {

using graph::GraphCoo;

TEST(MatrixMarket, ParsesGeneralPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "4 4 3\n"
      "1 2\n"
      "2 3\n"
      "4 1\n");
  const auto coo = graph::read_matrix_market(in);
  EXPECT_EQ(coo.num_vertices, 4u);
  ASSERT_EQ(coo.num_edges(), 3u);
  EXPECT_EQ(coo.src[0], 0u);  // converted to 0-based
  EXPECT_EQ(coo.dst[0], 1u);
  EXPECT_FALSE(coo.has_values());
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 9.0\n");
  const auto coo = graph::read_matrix_market(in);
  // Off-diagonal entry mirrored; diagonal not duplicated.
  EXPECT_EQ(coo.num_edges(), 3u);
  EXPECT_FLOAT_EQ(coo.values[0], 5.0f);
  EXPECT_FLOAT_EQ(coo.values[1], 5.0f);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::istringstream no_banner("1 2 3\n");
  EXPECT_THROW(graph::read_matrix_market(no_banner), Error);
  std::istringstream bad_index(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "5 1\n");
  EXPECT_THROW(graph::read_matrix_market(bad_index), Error);
  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 3\n"
      "1 2\n");
  EXPECT_THROW(graph::read_matrix_market(truncated), Error);
}

TEST(MatrixMarket, RoundTrip) {
  GraphCoo coo;
  coo.num_vertices = 5;
  coo.add_edge(0, 1, 2.5f);
  coo.add_edge(3, 4, 7.0f);
  std::ostringstream out;
  graph::write_matrix_market(out, coo);
  std::istringstream in(out.str());
  const auto parsed = graph::read_matrix_market(in);
  EXPECT_EQ(parsed.num_vertices, 5u);
  ASSERT_EQ(parsed.num_edges(), 2u);
  EXPECT_EQ(parsed.src[1], 3u);
  EXPECT_FLOAT_EQ(parsed.values[1], 7.0f);
}

TEST(EdgeList, ParsesCommentsAndWeights) {
  std::istringstream in(
      "# comment\n"
      "0 1 3.5\n"
      "% other comment style\n"
      "2 0 1.0\n");
  const auto coo = graph::read_edge_list(in);
  EXPECT_EQ(coo.num_vertices, 3u);
  ASSERT_EQ(coo.num_edges(), 2u);
  EXPECT_TRUE(coo.has_values());
  EXPECT_FLOAT_EQ(coo.values[0], 3.5f);
}

TEST(EdgeList, RejectsMixedWeighting) {
  std::istringstream in(
      "0 1 3.5\n"
      "2 0\n");
  EXPECT_THROW(graph::read_edge_list(in), Error);
}

TEST(EdgeList, RoundTrip) {
  GraphCoo coo;
  coo.num_vertices = 4;
  coo.add_edge(0, 3);
  coo.add_edge(2, 1);
  std::ostringstream out;
  graph::write_edge_list(out, coo);
  std::istringstream in(out.str());
  const auto parsed = graph::read_edge_list(in);
  EXPECT_EQ(parsed.num_vertices, 4u);
  EXPECT_EQ(parsed.src, coo.src);
  EXPECT_EQ(parsed.dst, coo.dst);
}

TEST(MatrixMarket, RandomRoundTripProperty) {
  // Property: any generated COO survives an mtx write/read cycle
  // bit-exactly (after the same deterministic ordering).
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto coo = graph::make_rmat(6, 4, graph::RmatParams::gtgraph(), seed);
    graph::assign_random_weights(coo, 1, 9, seed);
    coo.to_directed_clean();
    std::ostringstream out;
    graph::write_matrix_market(out, coo);
    std::istringstream in(out.str());
    auto parsed = graph::read_matrix_market(in);
    parsed.to_directed_clean();  // same canonical ordering
    EXPECT_EQ(parsed.src, coo.src) << "seed " << seed;
    EXPECT_EQ(parsed.dst, coo.dst) << "seed " << seed;
    EXPECT_EQ(parsed.values, coo.values) << "seed " << seed;
  }
}

TEST(EdgeList, FileRoundTrip) {
  GraphCoo coo;
  coo.num_vertices = 3;
  coo.add_edge(0, 1, 4.0f);
  const std::string path = "/tmp/mgg_io_test.el";
  graph::save_edge_list(path, coo);
  const auto loaded = graph::load_edge_list(path);
  EXPECT_EQ(loaded.num_edges(), 1u);
  EXPECT_FLOAT_EQ(loaded.values[0], 4.0f);
  EXPECT_THROW(graph::load_edge_list("/nonexistent/file"), Error);
}

/// Seeded mutation sweep over a text loader, which reads untrusted
/// bytes: each round flips bytes, truncates, extends with random
/// tokens, or splices a vertex ID near 2^32 - 1 over a number of a
/// valid file. The mutated file must either load, validate, clean and
/// build a CSR, or be rejected with an mgg::Error whose status names a
/// bad input (io_error or unsupported); any other exception, or a
/// sanitizer report, fails.
void fuzz_loader(const std::string& seed_text,
                 const std::function<GraphCoo(std::istream&)>& read) {
  // Endpoints at the top of the 32-bit ID range: a COO over ~2^32
  // vertices parses and cleans, but its CSR row offsets alone would
  // take 16 GiB, so CSRs are built only below this vertex count.
  constexpr VertexT kCsrVertexCap = 1u << 20;
  constexpr const char* kSplices[] = {
      "4294967294", "4294967295", "4294967296", "4294967297",
      "18446744073709551615", "9223372036854775807", "-1", "0"};
  constexpr char kAlphabet[] = "0123456789 \n-.e%#";
  std::mt19937_64 rng(0xF022);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string text = seed_text;
    for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k) {
      switch (rng() % 4) {
        case 0:
          text[rng() % text.size()] =
              rng() % 2 ? kAlphabet[rng() % (sizeof kAlphabet - 1)]
                        : static_cast<char>(rng());
          break;
        case 1:
          text.resize(rng() % text.size() + 1);
          break;
        case 2:
          for (int t = 1 + static_cast<int>(rng() % 4); t > 0; --t) {
            text += std::to_string(rng() % 4096) + (rng() % 3 ? " " : "\n");
          }
          break;
        default: {
          // Overwrite one number with a splice value.
          const auto digit = [&text](std::size_t i) {
            return i < text.size() && text[i] >= '0' && text[i] <= '9';
          };
          std::size_t at = rng() % text.size();
          while (at < text.size() && !digit(at)) ++at;
          std::size_t end = at;
          while (digit(end)) ++end;
          text.replace(at, end - at, kSplices[rng() % std::size(kSplices)]);
          break;
        }
      }
    }
    std::istringstream in(text);
    GraphCoo coo;
    try {
      coo = read(in);
    } catch (const Error& e) {
      ASSERT_TRUE(e.status() == Status::kIoError ||
                  e.status() == Status::kUnsupported)
          << "round " << round << ": " << e.what();
      ++rejected;
      continue;
    }
    // A loaded graph is a valid one: nothing below may throw.
    coo.validate();
    const std::size_t raw_edges = coo.src.size();
    coo.to_undirected_clean();
    EXPECT_LE(coo.src.size(), 2 * raw_edges) << "round " << round;
    if (coo.num_vertices <= kCsrVertexCap) {
      const auto g = graph::Graph::from_coo(coo);
      EXPECT_EQ(g.num_edges, coo.num_edges()) << "round " << round;
    }
    ++loaded;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

/// A small weighted rmat edge list, written by `write`.
std::string seed_file(void (*write)(std::ostream&, const GraphCoo&),
                      bool weighted) {
  auto coo = graph::make_rmat(5, 3, graph::RmatParams::gtgraph(), 17);
  if (weighted) graph::assign_random_weights(coo, 1, 9, 17);
  std::ostringstream out;
  write(out, coo);
  return out.str();
}

TEST(MatrixMarket, SurvivesMutatedInput) {
  for (const bool weighted : {true, false}) {
    SCOPED_TRACE(weighted ? "real" : "pattern");
    fuzz_loader(seed_file(graph::write_matrix_market, weighted),
                [](std::istream& in) { return graph::read_matrix_market(in); });
  }
  // The symmetric form expands entries on load.
  std::string symmetric = seed_file(graph::write_matrix_market, true);
  symmetric.replace(symmetric.find("general"), 7, "symmetric");
  fuzz_loader(symmetric,
              [](std::istream& in) { return graph::read_matrix_market(in); });
}

TEST(EdgeList, SurvivesMutatedInput) {
  for (const bool weighted : {true, false}) {
    SCOPED_TRACE(weighted ? "weighted" : "unweighted");
    fuzz_loader(seed_file(graph::write_edge_list, weighted),
                [](std::istream& in) { return graph::read_edge_list(in); });
  }
}

}  // namespace
}  // namespace mgg
