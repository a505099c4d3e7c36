#include "analysis/metrics.hpp"

#include <algorithm>
#include <queue>

namespace slimfly::analysis {

int eccentricity(const Graph& g, int source) {
  std::vector<int> dist;
  return bfs_distances(g, source, dist);
}

int diameter(const Graph& g) {
  std::vector<int> dist;
  int diam = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int e = bfs_distances(g, v, dist);
    if (e < 0) return -1;
    diam = std::max(diam, e);
  }
  return diam;
}

double average_distance(const Graph& g) {
  std::vector<int> dist;
  std::int64_t total = 0;
  std::int64_t pairs = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (bfs_distances(g, v, dist) < 0) return -1.0;
    for (int w = 0; w < g.num_vertices(); ++w) {
      if (w == v) continue;
      total += dist[static_cast<std::size_t>(w)];
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(pairs);
}

double average_endpoint_distance(const Topology& topo) {
  const Graph& g = topo.graph();
  int p = topo.concentration();
  int ep_routers = topo.num_endpoint_routers();
  long long n = topo.num_endpoints();
  // Sum over ordered endpoint pairs: pairs on the same router contribute 0;
  // pairs on routers (r, s) contribute p * p * dist(r, s).
  std::vector<int> dist;
  double total = 0.0;
  for (int r = 0; r < ep_routers; ++r) {
    bfs_distances(g, r, dist);
    for (int s = 0; s < ep_routers; ++s) {
      if (s == r) continue;
      total += static_cast<double>(p) * p * dist[static_cast<std::size_t>(s)];
    }
  }
  double ordered_pairs = static_cast<double>(n) * static_cast<double>(n - 1);
  return total / ordered_pairs;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return largest_component(g) == g.num_vertices();
}

int largest_component(const Graph& g) {
  int n = g.num_vertices();
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  int best = 0;
  for (int s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    int size = 0;
    std::queue<int> queue;
    queue.push(s);
    seen[static_cast<std::size_t>(s)] = true;
    while (!queue.empty()) {
      int v = queue.front();
      queue.pop();
      ++size;
      for (int w : g.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          queue.push(w);
        }
      }
    }
    best = std::max(best, size);
  }
  return best;
}

std::vector<std::int64_t> distance_histogram(const Graph& g) {
  std::vector<int> dist;
  std::vector<std::int64_t> histogram;
  for (int v = 0; v < g.num_vertices(); ++v) {
    bfs_distances(g, v, dist);
    for (int w = 0; w < g.num_vertices(); ++w) {
      int d = dist[static_cast<std::size_t>(w)];
      if (d < 0) continue;
      if (static_cast<std::size_t>(d) >= histogram.size()) {
        histogram.resize(static_cast<std::size_t>(d) + 1, 0);
      }
      ++histogram[static_cast<std::size_t>(d)];
    }
  }
  return histogram;
}

}  // namespace slimfly::analysis
