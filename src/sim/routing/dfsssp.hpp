#pragma once
// DFSSSP-style virtual-channel assignment (paper Section IV-D; Domke,
// Hoefler, Nagel IPDPS'11): given deterministic shortest-path routes for
// every ordered router pair, assign each route to a VC layer such that the
// channel dependency graph of every layer is acyclic (Dally-Seitz
// criterion). The number of layers used is the number of VCs a generic
// deadlock-free deployment (e.g. OFED) needs. The paper reports 3 for all
// Slim Flies (with DFSSSP's own balanced routes, not the BFS-tree routes
// used here) and 8-15 for DLN random topologies.

#include <cstdint>

#include "topo/graph.hpp"

namespace slimfly::sim {

struct DfssspResult {
  int vcs_used = 0;      ///< layers needed; 0 when max_layers was exceeded
  std::int64_t routes = 0;
};

/// Computes the VC count for deterministic single-shortest-path routing on
/// g (one BFS-tree path per ordered pair, lowest-id next hop). Layering is
/// per destination, not per route: destinations are visited in a seeded
/// random order, and all routes toward one destination (its whole BFS
/// in-tree) go into the first layer whose channel dependency graph stays
/// acyclic with the whole batch added, or into a new layer. This batch
/// layering needs more layers than route-by-route placement of the same
/// routes would: 3, 4, 5 and 5 for Slim Fly q = 5, 7, 9 and 11, where
/// route-by-route greedy placement needs 2 for each.
DfssspResult dfsssp_vc_count(const Graph& g, int max_layers = 32,
                             std::uint64_t seed = 1);

}  // namespace slimfly::sim
