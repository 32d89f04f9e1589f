// Shared fixtures/helpers for the MGG test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/machine.hpp"

namespace mgg::test {

/// Small deterministic graphs reused across suites.
inline graph::Graph small_rmat(int scale = 8, double edge_factor = 8,
                               std::uint64_t seed = 7) {
  return graph::build_undirected(
      graph::make_rmat(scale, edge_factor, graph::RmatParams::gtgraph(),
                       seed));
}

inline graph::Graph small_weighted_rmat(int scale = 8, double edge_factor = 8,
                                        std::uint64_t seed = 7) {
  auto coo = graph::make_rmat(scale, edge_factor,
                              graph::RmatParams::gtgraph(), seed);
  graph::assign_random_weights(coo, 1, 64, seed ^ 0x99);
  return graph::build_undirected(std::move(coo));
}

inline graph::Graph small_grid(VertexT w = 24, VertexT h = 24,
                               std::uint64_t seed = 3) {
  return graph::build_undirected(graph::make_road_grid(w, h, 0.05, seed));
}

/// A machine with plenty of devices for tests.
inline vgpu::Machine test_machine(int gpus = 4) {
  return vgpu::Machine::create("k40", gpus);
}

/// Config helper: `gpus` GPUs, everything else defaulted.
inline core::Config config_for(int gpus) {
  core::Config cfg;
  cfg.num_gpus = gpus;
  return cfg;
}

/// First vertex with nonzero degree (a safe traversal source).
inline VertexT first_connected_vertex(const graph::Graph& g) {
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (g.degree(v) > 0) return v;
  }
  return 0;
}

/// Sets the shared pool's width for a scope and restores it after.
class PoolWidth {
 public:
  explicit PoolWidth(int w) : before_(util::ThreadPool::shared().workers()) {
    util::ThreadPool::shared().set_workers(w);
  }
  ~PoolWidth() { util::ThreadPool::shared().set_workers(before_); }
  PoolWidth(const PoolWidth&) = delete;
  PoolWidth& operator=(const PoolWidth&) = delete;

 private:
  int before_;
};

/// FNV-1a accumulator for pinning byte-exact outputs as golden digests.
class Digest {
 public:
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of a CSR: vertex count, offsets, columns and the weight bits.
template <typename V, typename S, typename W>
std::uint64_t digest(const graph::Csr<V, S, W>& g) {
  Digest d;
  d.pod(g.num_vertices);
  d.vec(g.row_offsets);
  d.vec(g.col_indices);
  d.vec(g.edge_values);
  return d.value();
}

/// Digest of an edge list in its stored order.
template <typename V, typename S, typename W>
std::uint64_t digest(const graph::Coo<V, S, W>& coo) {
  Digest d;
  d.pod(coo.num_vertices);
  d.vec(coo.src);
  d.vec(coo.dst);
  d.vec(coo.values);
  return d.value();
}

}  // namespace mgg::test
