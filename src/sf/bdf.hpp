#pragma once
// Diameter-3 constructions of Bermond, Delorme and Farhi (paper Section
// II-C1): the projective-plane polarity graph P_u, the * product, property
// P*, and the BDF graph P_u * G.
//
// The full-scale BDF sweep of Figure 5b only needs the closed-form model
// (bdf_model) — exactly what the paper plots. The actual graph machinery is
// implemented and verified for small u, demonstrating the construction end
// to end: diameter 3, degree k' = 3(u+1)/2.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "topo/graph.hpp"
#include "topo/topology.hpp"

namespace slimfly::sf {

/// Closed-form size of a BDF graph for odd prime power u (Section II-C):
/// k' = 3(u+1)/2, Nr = (u+1)(u^2+u+1) = 8/27 k'^3 - 4/9 k'^2 + 2/3 k'.
struct BdfModel {
  int u = 0;
  int k_net = 0;
  long long num_routers = 0;
};
BdfModel bdf_model(int u);

/// Polarity (Erdos–Renyi) graph of PG(2, u): vertices are projective points
/// over GF(u); M ~ M' iff <M, M'> = 0 under the standard bilinear form.
/// u^2+u+1 vertices, degree u or u+1, diameter 2 (Section II-C1b).
Graph polarity_graph(int u);

/// Arc orientation of G1 plus one bijection f per arc, as required by the
/// * product (Section II-C1a).
struct StarArcs {
  std::vector<std::pair<int, int>> arcs;  ///< one orientation per G1 edge
  /// f[a] maps V2 -> V2 for arc a (one-to-one).
  std::vector<std::vector<int>> bijections;
};

/// The * product G1 * G2. Vertices are pairs (a1, a2) numbered
/// a1 * |V2| + a2. (a1,a2) ~ (b1,b2) iff a1 == b1 and {a2,b2} in E2, or
/// (a1,b1) is an arc with b2 = f_(a1,b1)(a2).
Graph star_product(const Graph& g1, const Graph& g2, const StarArcs& arcs);

/// Property P* (Section II-C1c): diameter(G) <= 2 and an involution f with
/// V = {v} ∪ {f(v)} ∪ f(N(v)) ∪ N(f(v)) for every v.
bool has_pstar_property(const Graph& g, const std::vector<int>& involution);

/// Searches for a P* pair (graph on n vertices with degree `degree`,
/// involution) by scanning circulant graphs, the prism family, and seeded
/// random regular graphs. Returns nullopt if the bounded search fails.
struct PStarGraph {
  Graph graph;
  std::vector<int> involution;
};
std::optional<PStarGraph> find_pstar_graph(int n, int degree, int max_tries = 20000);

/// Full BDF topology for small odd prime powers u (graph machinery above);
/// throws std::runtime_error when no P* companion graph is found.
class SlimFlyBDF : public Topology {
 public:
  /// concentration 0 selects ceil(k'/2) as for the diameter-2 networks.
  explicit SlimFlyBDF(int u, int concentration = 0);

  std::string name() const override;
  std::string symbol() const override { return "SF-BDF"; }

  int u() const { return u_; }
  int k_net() const { return 3 * (u_ + 1) / 2; }

 private:
  static Graph build(int u);
  int u_;
};

}  // namespace slimfly::sf
