// Partition borders: the one count of |B_{i,j}| (§V-C), shared by
// PartitionedGraph::build and measure_partition.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace mgg::part {

/// Counts one row hosted by part p into the border row B_{p,.}: each
/// neighbor u hosted by another part q adds one to border_row[q] the
/// first time any of p's rows meets it. `mark` is a |V|-sized marker,
/// -1-filled once and stamped with the part, so one marker serves
/// several parts in turn (each part's rows scanned together) with no
/// clear in between; after p's rows, mark[u] == p exactly for p's
/// border vertices.
inline void scan_border_row(std::span<const VertexT> neighbors, int p,
                            const std::vector<int>& assignment,
                            std::vector<int>& mark,
                            std::vector<std::size_t>& border_row) {
  for (const VertexT u : neighbors) {
    const int q = assignment[u];
    if (q != p && mark[u] != p) {
      mark[u] = p;
      ++border_row[q];
    }
  }
}

}  // namespace mgg::part
