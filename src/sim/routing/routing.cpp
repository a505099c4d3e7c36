#include "sim/routing/routing.hpp"

#include <algorithm>
#include <stdexcept>

namespace slimfly::sim {

/* SF_HOT */ void DistanceOracle::sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                         InlinePath& out) const {
  int want = 0;
  walk_minimal_path(
      g, u, v, rng, out,
      [this, v, &want](int x) {
        want = dist(x, v) - 1;
        return want == 0;
      },
      [this, v, &want](int w) { return dist(w, v) == want; });
}

DistanceTable::DistanceTable(const Graph& g) : n_(g.num_vertices()) {
  table_.resize(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  std::vector<int> dist;
  for (int s = 0; s < n_; ++s) {
    const int ecc = bfs_distances(g, s, dist);
    if (ecc < 0) throw std::invalid_argument("DistanceTable: graph disconnected");
    if (ecc >= 255) throw std::logic_error("DistanceTable: diameter too large");
    diameter_ = std::max(diameter_, ecc);
    std::transform(dist.begin(), dist.end(),
                   table_.begin() + static_cast<std::ptrdiff_t>(s) * n_,
                   [](int d) { return static_cast<std::uint8_t>(d); });
  }
}

/* SF_HOT */ void DistanceTable::sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                        InlinePath& out) const {
  // Graphs are undirected (topo/graph.hpp), so dist(x, v) == dist(v, x):
  // reading row v keeps every lookup of this walk inside one contiguous,
  // cache-resident row instead of striding a column of the n x n table.
  const std::uint8_t* row_v =
      &table_[static_cast<std::size_t>(v) * static_cast<std::size_t>(n_)];
  int want = 0;
  walk_minimal_path(
      g, u, v, rng, out,
      [row_v, &want](int x) {
        want = row_v[x] - 1;
        return want == 0;
      },
      [row_v, &want](int w) { return row_v[w] == want; });
}

}  // namespace slimfly::sim
