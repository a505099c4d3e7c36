#pragma once
// Distance metrics on router graphs: diameter, average distance (paper
// Sections III-A and III-B, Figure 1, Table II), all read from the shared
// BFS kernel bfs_distances() (topo/graph.hpp).

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"
#include "topo/topology.hpp"

namespace slimfly::analysis {

/// Exact diameter via all-pairs BFS; -1 if the graph is disconnected.
int diameter(const Graph& g);

/// Eccentricity of one vertex; -1 if it cannot reach every vertex.
int eccentricity(const Graph& g, int source);

/// Average router-to-router hop distance over all ordered vertex pairs
/// (excluding self pairs); -1.0 if disconnected.
double average_distance(const Graph& g);

/// Average network hops between distinct endpoints under uniform traffic
/// and minimal routing (Figure 1): endpoint pairs on the same router count
/// as 0 hops. Only endpoint-bearing routers are weighted.
double average_endpoint_distance(const Topology& topo);

/// True iff the graph is connected (n == 0 counts as connected).
bool is_connected(const Graph& g);

/// Largest connected component size.
int largest_component(const Graph& g);

/// Number of vertex pairs at each distance from `source`'s BFS (helper for
/// channel-load reasoning and tests).
std::vector<std::int64_t> distance_histogram(const Graph& g);

}  // namespace slimfly::analysis
