#include "topo/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace slimfly {

Graph::Graph(int num_vertices) {
  if (num_vertices < 0) throw std::invalid_argument("Graph: negative size");
  adjacency_.resize(static_cast<std::size_t>(num_vertices));
}

int Graph::check(int v) const {
  if (v < 0 || v >= num_vertices()) {
    throw std::out_of_range("Graph: vertex out of range");
  }
  return v;
}

void Graph::add_edge(int u, int v) {
  check(u);
  check(v);
  if (u == v) throw std::invalid_argument("Graph: self-loop rejected");
  adjacency_[static_cast<std::size_t>(u)].push_back(v);
  adjacency_[static_cast<std::size_t>(v)].push_back(u);
  finalized_ = false;
}

void Graph::finalize() {
  num_edges_ = 0;
  for (auto& list : adjacency_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    num_edges_ += static_cast<std::int64_t>(list.size());
  }
  num_edges_ /= 2;
  finalized_ = true;
}

/* SF_HOT */ int Graph::neighbor_index(int u, int v) const {
  if (!finalized_) throw std::logic_error("Graph::neighbor_index before finalize");
  const auto& list = adjacency_[static_cast<std::size_t>(check(u))];
  check(v);
  if (list.empty()) return -1;
  // Branch-free search for the last entry <= v: the loop count depends only
  // on the degree and the step compiles to a conditional move, so the
  // per-packet lookups in the minimal-path walk pay no mispredictions.
  const int* base = list.data();
  for (std::size_t n = list.size(); n > 1; n -= n / 2) {
    base = base[n / 2] <= v ? base + n / 2 : base;
  }
  return *base == v ? static_cast<int>(base - list.data()) : -1;
}

std::vector<std::pair<int, int>> Graph::edges() const {
  if (!finalized_) throw std::logic_error("Graph::edges before finalize");
  std::vector<std::pair<int, int>> result;
  result.reserve(static_cast<std::size_t>(num_edges_));
  for (int u = 0; u < num_vertices(); ++u) {
    for (int v : adjacency_[static_cast<std::size_t>(u)]) {
      if (u < v) result.emplace_back(u, v);
    }
  }
  return result;
}

int Graph::max_degree() const {
  int best = 0;
  for (const auto& list : adjacency_) {
    best = std::max(best, static_cast<int>(list.size()));
  }
  return best;
}

bool Graph::is_regular() const {
  if (adjacency_.empty()) return true;
  std::size_t d = adjacency_.front().size();
  for (const auto& list : adjacency_) {
    if (list.size() != d) return false;
  }
  return true;
}

int bfs_distances(const Graph& g, int source, std::vector<int>& dist) {
  const int n = g.num_vertices();
  if (source < 0 || source >= n) {
    throw std::out_of_range("bfs_distances: source out of range");
  }
  dist.assign(static_cast<std::size_t>(n), -1);
  // Vertices in visiting order; distances along it are nondecreasing, so
  // the last one visited sits at the eccentricity.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  dist[static_cast<std::size_t>(source)] = 0;
  order.push_back(source);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int v = order[head];
    const int next = dist[static_cast<std::size_t>(v)] + 1;
    for (int w : g.neighbors(v)) {
      int& d = dist[static_cast<std::size_t>(w)];
      if (d < 0) {
        d = next;
        order.push_back(w);
      }
    }
  }
  if (order.size() != static_cast<std::size_t>(n)) return -1;
  return dist[static_cast<std::size_t>(order.back())];
}

}  // namespace slimfly
