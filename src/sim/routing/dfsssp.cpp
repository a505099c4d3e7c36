#include "sim/routing/dfsssp.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace slimfly::sim {

namespace {

/// One VC layer: a channel dependency graph with batched, revertible edge
/// insertion and a Kahn's-algorithm cycle check.
class Layer {
 public:
  explicit Layer(int channels) : adjacency_(static_cast<std::size_t>(channels)) {}

  /// Tries to add the dependency batch; reverts and returns false if the
  /// layer would become cyclic.
  bool try_add(const std::vector<std::pair<int, int>>& deps) {
    std::vector<int> touched;
    for (const auto& [from, to] : deps) {
      adjacency_[static_cast<std::size_t>(from)].push_back(to);
      touched.push_back(from);
    }
    if (acyclic()) return true;
    for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
      adjacency_[static_cast<std::size_t>(*it)].pop_back();
    }
    return false;
  }

 private:
  bool acyclic() const {
    int n = static_cast<int>(adjacency_.size());
    // Kahn's algorithm over the dependency graph.
    std::vector<int> indegree(static_cast<std::size_t>(n), 0);
    for (const auto& list : adjacency_) {
      for (int to : list) ++indegree[static_cast<std::size_t>(to)];
    }
    std::vector<int> stack;
    for (int c = 0; c < n; ++c) {
      if (indegree[static_cast<std::size_t>(c)] == 0) stack.push_back(c);
    }
    int visited = 0;
    while (!stack.empty()) {
      int c = stack.back();
      stack.pop_back();
      ++visited;
      for (int to : adjacency_[static_cast<std::size_t>(c)]) {
        if (--indegree[static_cast<std::size_t>(to)] == 0) stack.push_back(to);
      }
    }
    return visited == n;
  }

  std::vector<std::vector<int>> adjacency_;
};

}  // namespace

DfssspResult dfsssp_vc_count(const Graph& g, int max_layers, std::uint64_t seed) {
  int n = g.num_vertices();
  if (n < 2) return {1, 0};

  // Directed channel ids in CSR order.
  std::vector<int> offset(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    offset[static_cast<std::size_t>(v) + 1] =
        offset[static_cast<std::size_t>(v)] + g.degree(v);
  }
  int channels = offset[static_cast<std::size_t>(n)];
  auto channel_id = [&](int u, int v) {
    return offset[static_cast<std::size_t>(u)] + g.neighbor_index(u, v);
  };

  // Destinations in seeded random order; for each, the BFS in-tree routes
  // of all sources define the dependency batch.
  std::vector<int> destinations(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) destinations[static_cast<std::size_t>(v)] = v;
  Rng rng(seed);
  std::shuffle(destinations.begin(), destinations.end(), rng);

  std::vector<Layer> layers;
  layers.emplace_back(channels);
  DfssspResult result;

  std::vector<int> next_hop(static_cast<std::size_t>(n));
  std::vector<int> dist;
  for (int d : destinations) {
    // next_hop[v] = lowest-id neighbour of v closer to d.
    if (bfs_distances(g, d, dist) < 0) {
      throw std::invalid_argument("dfsssp_vc_count: graph disconnected");
    }
    for (int v = 0; v < n; ++v) {
      if (v == d) continue;
      for (int w : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(w)] ==
            dist[static_cast<std::size_t>(v)] - 1) {
          next_hop[static_cast<std::size_t>(v)] = w;
          break;  // neighbours sorted => deterministic lowest-id choice
        }
      }
    }

    // Dependency batch: all routes toward d follow the BFS in-tree, so the
    // unique dependencies are the consecutive channel pairs along the tree —
    // one per non-final router.
    std::vector<std::pair<int, int>> deps;
    for (int v = 0; v < n; ++v) {
      if (v == d) continue;
      int u2 = next_hop[static_cast<std::size_t>(v)];
      if (u2 != d) {
        deps.emplace_back(channel_id(v, u2),
                          channel_id(u2, next_hop[static_cast<std::size_t>(u2)]));
      }
      ++result.routes;
    }

    bool placed = false;
    for (auto& layer : layers) {
      if (layer.try_add(deps)) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (static_cast<int>(layers.size()) >= max_layers) {
        result.vcs_used = 0;  // exceeded budget
        return result;
      }
      layers.emplace_back(channels);
      if (!layers.back().try_add(deps)) {
        throw std::logic_error("dfsssp_vc_count: single-destination routes cyclic");
      }
    }
  }
  result.vcs_used = static_cast<int>(layers.size());
  return result;
}

}  // namespace slimfly::sim
