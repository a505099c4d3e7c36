#pragma once
// Undirected simple graph used for all router-level topologies.
//
// Construction is two-phase: add_edge() collects edges, finalize() freezes
// the graph into sorted adjacency lists (enabling O(log d) has_edge and
// cache-friendly BFS). All analysis and simulation code operates on
// finalized graphs. bfs_distances() below is the one hop-distance BFS
// every layer shares.

#include <cstdint>
#include <utility>
#include <vector>

namespace slimfly {

class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_vertices);

  /// Adds the undirected edge {u, v}. Self-loops are rejected; duplicate
  /// edges are silently deduplicated at finalize() time.
  void add_edge(int u, int v);

  /// Sorts adjacency lists and removes duplicate edges. Idempotent.
  void finalize();

  int num_vertices() const { return static_cast<int>(adjacency_.size()); }
  /// Number of undirected edges (valid after finalize()).
  std::int64_t num_edges() const { return num_edges_; }

  int degree(int v) const {
    return static_cast<int>(adjacency_[static_cast<std::size_t>(check(v))].size());
  }
  const std::vector<int>& neighbors(int v) const {
    return adjacency_[static_cast<std::size_t>(check(v))];
  }

  /// Position of v in u's sorted adjacency list, or -1 when u and v are not
  /// adjacent. The simulator numbers a router's network ports in adjacency
  /// order, so this is also u's output port toward v. O(log degree(u));
  /// requires finalize().
  int neighbor_index(int u, int v) const;
  bool has_edge(int u, int v) const { return neighbor_index(u, v) >= 0; }

  /// All edges as (u, v) pairs with u < v; requires finalize().
  std::vector<std::pair<int, int>> edges() const;

  /// Maximum vertex degree (0 for empty graph).
  int max_degree() const;
  /// True iff every vertex has the same degree.
  bool is_regular() const;

  bool finalized() const { return finalized_; }

 private:
  int check(int v) const;

  std::vector<std::vector<int>> adjacency_;
  std::int64_t num_edges_ = 0;
  bool finalized_ = false;
};

/// Breadth-first hop distances from `source`: fills `dist` (resized to
/// num_vertices()) with the hop count to every vertex, -1 where unreached.
/// This is the one shortest-path BFS: the distance oracles, the graph
/// metrics and DFSSSP all read their distances from it. Passing the same
/// vector for every source of an all-pairs sweep reuses its storage.
/// Returns the eccentricity of `source` (its largest distance), or -1 when
/// some vertex is unreached.
int bfs_distances(const Graph& g, int source, std::vector<int>& dist);

}  // namespace slimfly
