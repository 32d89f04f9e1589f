// Coordinate-format (edge list) graph container.
//
// COO is the interchange format: generators and file loaders produce
// COO; the framework consumes CSR built via Csr::from_coo(). The
// cleanup passes here implement the paper's §VII-A preprocessing:
// "all graphs we use are converted to undirected graphs; self-loops
// and duplicated edges are removed."
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "graph/types.hpp"
#include "util/error.hpp"
#include "util/parallel_algo.hpp"
#include "util/thread_pool.hpp"

namespace mgg::graph {

template <typename V = VertexT, typename S = SizeT, typename W = ValueT>
struct Coo {
  using VertexType = V;
  using SizeType = S;
  using ValueType = W;

  V num_vertices = 0;
  std::vector<V> src;
  std::vector<V> dst;
  std::vector<W> values;  ///< empty when the graph is unweighted

  S num_edges() const noexcept { return static_cast<S>(src.size()); }
  bool has_values() const noexcept { return !values.empty(); }

  void reserve(std::size_t edges) {
    src.reserve(edges);
    dst.reserve(edges);
  }

  void add_edge(V u, V v) {
    src.push_back(u);
    dst.push_back(v);
  }

  void add_edge(V u, V v, W w) {
    src.push_back(u);
    dst.push_back(v);
    values.push_back(w);
  }

  /// Drop edges with src == dst.
  void remove_self_loops() {
    std::size_t keep = 0;
    for (std::size_t e = 0; e < src.size(); ++e) {
      if (src[e] == dst[e]) continue;
      src[keep] = src[e];
      dst[keep] = dst[e];
      if (has_values()) values[keep] = values[e];
      ++keep;
    }
    src.resize(keep);
    dst.resize(keep);
    if (has_values()) values.resize(keep);
  }

  /// Add the reverse of every edge (making the graph undirected).
  /// Combine with remove_duplicates() to get a clean symmetric graph.
  void symmetrize() {
    const std::size_t n = src.size();
    src.reserve(2 * n);
    dst.reserve(2 * n);
    if (has_values()) values.reserve(2 * n);
    for (std::size_t e = 0; e < n; ++e) {
      src.push_back(dst[e]);
      dst.push_back(src[e]);
      if (has_values()) values.push_back(values[e]);
    }
  }

  /// Sort edges by (src, dst) and remove duplicates, keeping the first
  /// occurrence's value (deterministic given a deterministic input order).
  /// A stable radix sort of packed (src, dst) keys carries each edge's
  /// index, so the first of equal edges stays first; a stable compaction
  /// then keeps the head of each run and gathers its value. Both run on
  /// the shared pool with the same output at every width.
  void remove_duplicates() {
    // Packed keys: (src, dst) order is key order.
    using Key = std::conditional_t<sizeof(V) <= 4, std::uint64_t,
                                   __uint128_t>;
    constexpr int kHalf = static_cast<int>(sizeof(Key)) * 4;
    util::ThreadPool* pool = &util::ThreadPool::shared();
    const std::size_t n = src.size();
    util::PodVector<Key> keys(n);
    util::PodVector<S> order(n);
    util::parallel_for(pool, n, util::kScanGrain,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t e = begin; e < end; ++e) {
                           keys[e] = Key{src[e]} << kHalf | Key{dst[e]};
                           order[e] = static_cast<S>(e);
                         }
                       });
    util::radix_sort_pairs(keys, order, pool);

    std::vector<W> kept_values(values.size());
    const auto run_head = [&](std::size_t i) {
      return i == 0 || keys[i] != keys[i - 1];
    };
    const std::size_t kept = util::parallel_compact(
        pool, n, run_head, [&](std::size_t i, std::size_t rank) {
          src[rank] = static_cast<V>(keys[i] >> kHalf);
          dst[rank] = static_cast<V>(keys[i]);
          if (!kept_values.empty()) kept_values[rank] = values[order[i]];
        });
    src.resize(kept);
    dst.resize(kept);
    if (has_values()) kept_values.resize(kept);
    values = std::move(kept_values);
  }

  /// Full cleanup pipeline from §VII-A: drop self loops, make the graph
  /// undirected, and deduplicate.
  void to_undirected_clean() {
    remove_self_loops();
    symmetrize();
    remove_duplicates();
  }

  /// Directed cleanup: drop self loops and duplicates only.
  void to_directed_clean() {
    remove_self_loops();
    remove_duplicates();
  }

  /// Validate all endpoints are < num_vertices.
  void validate() const {
    for (std::size_t e = 0; e < src.size(); ++e) {
      MGG_REQUIRE(src[e] < num_vertices && dst[e] < num_vertices,
                  "edge endpoint out of range");
    }
    if (has_values()) {
      MGG_REQUIRE(values.size() == src.size(),
                  "value array length mismatches edge count");
    }
  }
};

using Coo32 = Coo<std::uint32_t, std::uint32_t, float>;
using Coo64 = Coo<std::uint64_t, std::uint64_t, float>;

/// The default edge-list type used by generators and loaders.
using GraphCoo = Coo<VertexT, SizeT, ValueT>;

}  // namespace mgg::graph
