#include "partition/partitioned_graph.hpp"

#include <algorithm>
#include <numeric>

#include "partition/border_scan.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mgg::part {

using graph::Graph;

std::string to_string(Duplication d) {
  switch (d) {
    case Duplication::kOneHop: return "duplicate-1-hop";
    case Duplication::kAll: return "duplicate-all";
  }
  return "unknown";
}

std::size_t PartitionedGraph::border_total(int i) const {
  return std::accumulate(border_counts_[i].begin(), border_counts_[i].end(),
                         std::size_t{0});
}

namespace {

/// V_i = V under identity numbering (local ID == global ID).
void set_identity_tables(const std::vector<int>& assignment,
                         SubGraph& sub) {
  sub.local_to_global.resize(assignment.size());
  std::iota(sub.local_to_global.begin(), sub.local_to_global.end(),
            VertexT{0});
  sub.owner = assignment;
  sub.host_local_id = sub.local_to_global;
}

}  // namespace

PartitionedGraph PartitionedGraph::build(const Graph& g,
                                         std::vector<int> assignment,
                                         int num_parts,
                                         Duplication duplication) {
  MGG_REQUIRE(num_parts >= 1, "num_parts must be positive");
  MGG_REQUIRE(assignment.size() == g.num_vertices,
              "assignment size mismatches graph");
  const VertexT n = g.num_vertices;
  std::vector<VertexT> hosted_begin(static_cast<std::size_t>(num_parts) + 1,
                                    0);
  for (const int a : assignment) {
    MGG_REQUIRE(a >= 0 && a < num_parts, "assignment value out of range");
    ++hosted_begin[a + 1];
  }
  std::partial_sum(hosted_begin.begin(), hosted_begin.end(),
                   hosted_begin.begin());

  PartitionedGraph pg;
  pg.duplication_ = duplication;
  pg.global_vertices_ = n;
  pg.global_edges_ = g.num_edges;
  pg.assignment_ = std::move(assignment);
  pg.subs_.resize(num_parts);
  pg.border_counts_.assign(num_parts, std::vector<std::size_t>(num_parts, 0));
  for (int p = 0; p < num_parts; ++p) {
    pg.subs_[p].gpu_id = p;
    pg.subs_[p].num_local = hosted_begin[p + 1] - hosted_begin[p];
  }

  if (num_parts == 1) {
    // One part hosts everything: under either duplication the sub-CSR
    // is g itself and every table is the identity.
    SubGraph& sub = pg.subs_[0];
    sub.csr = g;
    set_identity_tables(pg.assignment_, sub);
    pg.global_to_host_local_ = sub.local_to_global;
    return pg;
  }

  // Bucket vertices by host (a counting sort: ascending global id within
  // each part) and fill the convertion_table: a vertex's rank in its
  // host's hosted list under duplicate-1-hop, its global id under
  // duplicate-all.
  std::vector<VertexT> hosted(n);
  pg.global_to_host_local_.resize(n);
  {
    std::vector<VertexT> cursor(hosted_begin.begin(), hosted_begin.end() - 1);
    for (VertexT v = 0; v < n; ++v) {
      const int p = pg.assignment_[v];
      pg.global_to_host_local_[v] =
          duplication == Duplication::kOneHop ? cursor[p] - hosted_begin[p]
                                              : v;
      hosted[cursor[p]++] = v;
    }
  }

  // One task per part on the shared pool; each writes only part-indexed
  // state (its SubGraph and border row), so the tables are identical at
  // every pool width.
  util::parallel_for(
      &util::ThreadPool::shared(), static_cast<std::size_t>(num_parts), 1,
      [&](std::size_t first, std::size_t last, std::size_t) {
        std::vector<int> mark(n, -1);
        std::vector<VertexT> to_local;
        if (duplication == Duplication::kOneHop) to_local.resize(n);
        for (std::size_t i = first; i < last; ++i) {
          const int p = static_cast<int>(i);
          SubGraph& sub = pg.subs_[p];
          Graph& csr = sub.csr;
          const std::span<const VertexT> part_hosted(
              hosted.data() + hosted_begin[p], sub.num_local);
          if (duplication == Duplication::kAll) {
            // V_i = V; only the edge lists shrink to the hosted rows.
            set_identity_tables(pg.assignment_, sub);
            csr.num_vertices = n;
            csr.row_offsets.resize(static_cast<std::size_t>(n) + 1);
            csr.row_offsets[0] = 0;
            for (VertexT v = 0; v < n; ++v) {
              csr.row_offsets[v + 1] =
                  csr.row_offsets[v] +
                  (pg.assignment_[v] == p ? g.degree(v) : SizeT{0});
            }
          } else {
            // Hosted vertices first; the proxies' rows are added below.
            csr.row_offsets.reserve(part_hosted.size() + 1);
            csr.row_offsets.push_back(0);
            for (const VertexT v : part_hosted) {
              csr.row_offsets.push_back(csr.row_offsets.back() +
                                        g.degree(v));
            }
          }
          csr.num_edges = csr.row_offsets.back();

          // The fused pass: copy each hosted row as a contiguous range
          // and count it into the border row.
          csr.col_indices.reserve(csr.num_edges);
          if (g.has_values()) csr.edge_values.reserve(csr.num_edges);
          for (const VertexT v : part_hosted) {
            const auto [begin, end] = g.edge_range(v);
            csr.col_indices.insert(csr.col_indices.end(),
                                   g.col_indices.begin() + begin,
                                   g.col_indices.begin() + end);
            if (g.has_values()) {
              csr.edge_values.insert(csr.edge_values.end(),
                                     g.edge_values.begin() + begin,
                                     g.edge_values.begin() + end);
            }
            scan_border_row(g.neighbors(v), p, pg.assignment_, mark,
                            pg.border_counts_[p]);
          }
          if (duplication == Duplication::kAll) continue;

          // duplicate-1-hop: one proxy (no out-edges) per marked border
          // vertex, numbered after the hosted ones in vertex order, so
          // both groups stay ascending without a sort.
          const VertexT total =
              sub.num_local + static_cast<VertexT>(pg.border_total(p));
          sub.local_to_global.reserve(total);
          sub.local_to_global.assign(part_hosted.begin(), part_hosted.end());
          for (VertexT u = 0; u < n; ++u) {
            if (mark[u] == p) sub.local_to_global.push_back(u);
          }
          csr.num_vertices = total;
          csr.row_offsets.resize(static_cast<std::size_t>(total) + 1,
                                 csr.num_edges);
          sub.owner.resize(total);
          sub.host_local_id.resize(total);
          for (VertexT lv = 0; lv < total; ++lv) {
            const VertexT gv = sub.local_to_global[lv];
            sub.owner[lv] = pg.assignment_[gv];
            sub.host_local_id[lv] = pg.global_to_host_local_[gv];
            to_local[gv] = lv;  // only this part's entries are read
          }
          for (VertexT& u : csr.col_indices) u = to_local[u];
        }
      });
  return pg;
}

}  // namespace mgg::part
