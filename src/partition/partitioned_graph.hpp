// PartitionedGraph: the distributed graph representation (§III-C).
//
// The framework partitions with an edge-cut model: each vertex is
// assigned to one host GPU together with its outgoing edges. Remote
// neighbors are duplicated locally as *proxy* vertices (no out-edges)
// so per-GPU computation touches only local data. Two duplication
// strategies are supported, exactly as in the paper:
//
//   duplicate-1-hop — proxies only for the immediate remote neighbors
//     of the hosted vertices; vertices are renumbered with continuous
//     local IDs (hosted first, proxies after). Less memory, but
//     communication needs ID conversion.
//   duplicate-all — every GPU's vertex set is forced to the full V
//     (local ID == global ID, no conversion); only edges are
//     distributed, so remote vertices simply have zero out-degree.
//
// The tables produced here are the paper's partition_tables (vertex ->
// host GPU) and convertion_tables (vertex -> local ID on its host).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace mgg::part {

enum class Duplication {
  kOneHop,
  kAll,
};

std::string to_string(Duplication d);

/// One GPU's slice of the graph.
struct SubGraph {
  int gpu_id = 0;
  graph::Graph csr;       ///< |V_i| vertices; proxies have no out-edges
  VertexT num_local = 0;  ///< |L_i|: vertices hosted on this GPU

  /// Per local vertex: its global ID (size |V_i|).
  std::vector<VertexT> local_to_global;
  /// Per local vertex: the GPU hosting it (== gpu_id for hosted).
  std::vector<int> owner;
  /// Per local vertex: its local ID *on its host GPU* — what the
  /// communication layer sends so the receiver can index directly.
  std::vector<VertexT> host_local_id;

  VertexT num_total() const noexcept { return csr.num_vertices; }
  bool is_hosted(VertexT local_v) const { return owner[local_v] == gpu_id; }
};

class PartitionedGraph {
 public:
  /// Partition `g` across `num_parts` GPUs with the given assignment
  /// (from a Partitioner) and duplication strategy. Each part is built
  /// by its own task on util::ThreadPool::shared() (at the pool's
  /// current width), in one fused pass over its hosted rows: copy the
  /// edges as contiguous ranges, count the border row, and (1-hop)
  /// mark the proxies, whose columns are then remapped to local IDs.
  /// Tasks write only part-indexed state, so the tables are identical
  /// at every pool width. One part copies `g` whole under identity
  /// tables.
  static PartitionedGraph build(const graph::Graph& g,
                                std::vector<int> assignment, int num_parts,
                                Duplication duplication);

  int num_parts() const noexcept { return static_cast<int>(subs_.size()); }
  Duplication duplication() const noexcept { return duplication_; }
  VertexT global_vertices() const noexcept { return global_vertices_; }
  SizeT global_edges() const noexcept { return global_edges_; }

  const SubGraph& sub(int i) const { return subs_[i]; }
  SubGraph& sub(int i) { return subs_[i]; }

  /// partition_table: host GPU of a global vertex.
  int owner_of(VertexT global_v) const { return assignment_[global_v]; }
  /// convertion_table: local ID of a global vertex on its host GPU.
  VertexT host_local_of(VertexT global_v) const {
    return global_to_host_local_[global_v];
  }
  const std::vector<int>& assignment() const noexcept { return assignment_; }

  /// |B_{i,j}|: distinct vertices hosted by j that border part i.
  std::size_t border(int i, int j) const { return border_counts_[i][j]; }
  /// |B_i| = sum_j |B_{i,j}| (duplicates across peers counted, as in
  /// the paper's definition).
  std::size_t border_total(int i) const;

 private:
  Duplication duplication_ = Duplication::kAll;
  VertexT global_vertices_ = 0;
  SizeT global_edges_ = 0;
  std::vector<int> assignment_;
  std::vector<VertexT> global_to_host_local_;
  std::vector<SubGraph> subs_;
  std::vector<std::vector<std::size_t>> border_counts_;
};

}  // namespace mgg::part
