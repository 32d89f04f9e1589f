#include "partition/partitioner.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "partition/border_scan.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace mgg::part {

using graph::Graph;
using util::Rng;

std::vector<int> RandomPartitioner::assign(const Graph& g, int num_parts,
                                           std::uint64_t seed) const {
  MGG_REQUIRE(num_parts >= 1, "num_parts must be positive");
  Rng rng(seed);
  std::vector<int> assignment(g.num_vertices);
  for (auto& part : assignment) {
    part = static_cast<int>(rng.next_below(num_parts));
  }
  return assignment;
}

std::vector<int> BiasedRandomPartitioner::assign(const Graph& g,
                                                 int num_parts,
                                                 std::uint64_t seed) const {
  MGG_REQUIRE(num_parts >= 1, "num_parts must be positive");
  Rng rng(seed);
  std::vector<int> assignment(g.num_vertices, -1);

  // Visit vertices in a random order so early assignments don't follow
  // vertex-id locality.
  std::vector<VertexT> order(g.num_vertices);
  std::iota(order.begin(), order.end(), VertexT{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  const std::size_t cap = static_cast<std::size_t>(
      (static_cast<double>(g.num_vertices) / num_parts) * (1.0 + slack_) + 1);
  std::vector<std::size_t> load(num_parts, 0);
  std::vector<std::size_t> affinity(num_parts, 0);

  for (const VertexT v : order) {
    std::fill(affinity.begin(), affinity.end(), 0);
    for (const VertexT u : g.neighbors(v)) {
      if (assignment[u] >= 0) ++affinity[assignment[u]];
    }
    // Pick the part with the most already-placed neighbors among parts
    // that still have room; fall back to the least-loaded part.
    int best = -1;
    std::size_t best_affinity = 0;
    for (int p = 0; p < num_parts; ++p) {
      if (load[p] >= cap) continue;
      if (best == -1 || affinity[p] > best_affinity) {
        best = p;
        best_affinity = affinity[p];
      }
    }
    if (best == -1 || best_affinity == 0) {
      // No neighbor signal: place randomly among the least-loaded parts
      // to preserve the random partitioner's balance.
      const std::size_t min_load = *std::min_element(load.begin(), load.end());
      int candidates[64];
      int count = 0;
      for (int p = 0; p < num_parts && count < 64; ++p) {
        if (load[p] == min_load) candidates[count++] = p;
      }
      best = candidates[rng.next_below(static_cast<std::uint64_t>(count))];
    }
    assignment[v] = best;
    ++load[best];
  }
  return assignment;
}

std::vector<int> MetisLikePartitioner::assign(const Graph& g, int num_parts,
                                              std::uint64_t seed) const {
  MGG_REQUIRE(num_parts >= 1, "num_parts must be positive");
  Rng rng(seed);
  std::vector<int> assignment(g.num_vertices, -1);
  if (num_parts == 1) {
    std::fill(assignment.begin(), assignment.end(), 0);
    return assignment;
  }

  // Phase 1: BFS region growing from random seeds, each region capped
  // at ceil(|V| / parts) vertices — the classic greedy-graph-growing
  // initial partitioning used by multilevel partitioners.
  const std::size_t target =
      (static_cast<std::size_t>(g.num_vertices) + num_parts - 1) / num_parts;
  std::deque<VertexT> queue;
  std::size_t assigned = 0;
  for (int p = 0; p < num_parts; ++p) {
    std::size_t size = 0;
    while (size < target && assigned < g.num_vertices) {
      if (queue.empty()) {
        // Pick an unassigned restart seed.
        VertexT s;
        do {
          s = static_cast<VertexT>(rng.next_below(g.num_vertices));
        } while (assignment[s] >= 0);
        queue.push_back(s);
      }
      const VertexT v = queue.front();
      queue.pop_front();
      if (assignment[v] >= 0) continue;
      assignment[v] = p;
      ++size;
      ++assigned;
      for (const VertexT u : g.neighbors(v)) {
        if (assignment[u] < 0) queue.push_back(u);
      }
    }
    queue.clear();
  }
  // Any stragglers (possible when regions fill early) go to the last part.
  for (auto& a : assignment) {
    if (a < 0) a = num_parts - 1;
  }

  // Phase 2: boundary refinement — move a boundary vertex to the part
  // holding the majority of its neighbors when that strictly reduces
  // the cut and respects a 10% balance cap. A lightweight FM-style pass.
  const std::size_t cap = static_cast<std::size_t>(target * 1.10) + 1;
  std::vector<std::size_t> load(num_parts, 0);
  for (const int a : assignment) ++load[a];

  std::vector<std::size_t> gain(num_parts, 0);
  for (int pass = 0; pass < passes_; ++pass) {
    std::size_t moves = 0;
    for (VertexT v = 0; v < g.num_vertices; ++v) {
      std::fill(gain.begin(), gain.end(), 0);
      for (const VertexT u : g.neighbors(v)) ++gain[assignment[u]];
      const int current = assignment[v];
      int best = current;
      for (int p = 0; p < num_parts; ++p) {
        if (p == current || load[p] >= cap) continue;
        if (gain[p] > gain[best]) best = p;
      }
      if (best != current && gain[best] > gain[current]) {
        assignment[v] = best;
        --load[current];
        ++load[best];
        ++moves;
      }
    }
    if (moves == 0) break;
  }
  return assignment;
}

std::vector<int> ChunkPartitioner::assign(const Graph& g, int num_parts,
                                          std::uint64_t /*seed*/) const {
  MGG_REQUIRE(num_parts >= 1, "num_parts must be positive");
  std::vector<int> assignment(g.num_vertices, num_parts - 1);
  // Split the vertex range so each chunk carries ~|E|/parts out-edges.
  const double edges_per_part =
      static_cast<double>(g.num_edges) / static_cast<double>(num_parts);
  int part = 0;
  double budget = edges_per_part;
  double used = 0;
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (used >= budget && part + 1 < num_parts) {
      ++part;
      budget += edges_per_part;
    }
    assignment[v] = part;
    used += static_cast<double>(g.degree(v));
  }
  return assignment;
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  if (name == "random") return std::make_unique<RandomPartitioner>();
  if (name == "biasrandom" || name == "biased") {
    return std::make_unique<BiasedRandomPartitioner>();
  }
  if (name == "metis") return std::make_unique<MetisLikePartitioner>();
  if (name == "chunk") return std::make_unique<ChunkPartitioner>();
  throw Error(Status::kNotFound, "unknown partitioner '" + name + "'");
}

PartitionMetrics measure_partition(const Graph& g,
                                   const std::vector<int>& assignment,
                                   int num_parts) {
  MGG_REQUIRE(assignment.size() == g.num_vertices,
              "assignment size mismatches graph");
  PartitionMetrics m;
  m.part_vertices.assign(num_parts, 0);
  m.part_edges.assign(num_parts, 0);
  m.border_out.assign(num_parts, 0);

  for (VertexT v = 0; v < g.num_vertices; ++v) {
    const int pv = assignment[v];
    ++m.part_vertices[pv];
    m.part_edges[pv] += g.degree(v);
    for (const VertexT u : g.neighbors(v)) {
      if (assignment[u] != pv) ++m.edge_cut;
    }
  }
  // The paper's |B_i|, counted exactly as PartitionedGraph::build does:
  // many cut edges to one remote vertex count once.
  std::vector<int> mark(g.num_vertices, -1);
  std::vector<std::size_t> border_row(num_parts);
  for (int p = 0; p < num_parts; ++p) {
    std::fill(border_row.begin(), border_row.end(), 0);
    for (VertexT v = 0; v < g.num_vertices; ++v) {
      if (assignment[v] == p) {
        scan_border_row(g.neighbors(v), p, assignment, mark, border_row);
      }
    }
    m.border_out[p] = std::accumulate(border_row.begin(), border_row.end(),
                                      std::size_t{0});
  }

  const auto imbalance = [&](const std::vector<std::size_t>& loads) {
    const double total = static_cast<double>(
        std::accumulate(loads.begin(), loads.end(), std::size_t{0}));
    if (total == 0) return 1.0;
    const double mean = total / static_cast<double>(loads.size());
    const double max = static_cast<double>(
        *std::max_element(loads.begin(), loads.end()));
    return max / mean;
  };
  m.vertex_imbalance = imbalance(m.part_vertices);
  m.edge_imbalance = imbalance(m.part_edges);
  return m;
}

}  // namespace mgg::part
