#pragma once
// Per-family distance/next-hop oracles (docs/ARCHITECTURE.md §"Distance
// oracles"): answer the DistanceOracle queries without materializing the
// O(N^2) dense table.
//
// Every oracle here returns EXACT BFS hop distances — certified
// exhaustively against DistanceTable (rows from bfs_distances,
// topo/graph.hpp) in tests/oracle_test.cpp — and samples minimal paths
// through the one walk, walk_minimal_path (sim/routing/routing.hpp), so
// swapping one in never changes simulation results, only memory:
//
//   family          | oracle               | state held
//   ----------------+----------------------+---------------------------------
//   slimfly         | SlimFlyOracle        | GF(q) tables + generator masks,
//                   |                      | O(q^2) ~ O(N) bytes
//   torus           | TorusOracle          | the dims vector
//   hypercube       | HypercubeOracle      | n
//   flatbutterfly   | FlatButterflyOracle  | (n_dims, extent)
//   fattree         | FatTreeOracle        | (p, pods)
//   dragonfly       | DragonflyOracle      | per-router global-neighbor
//                   |                      | lists, O(N*h)
//   augmented       | Diameter2Oracle      | adjacency queries on the graph
//                   | (falls back below    | (verified diameter <= 2 at
//                   |  when diameter > 2)  | build)
//   dln/longhop/... | CompressedBfsOracle  | 2-bit dist-mod-3 matrix, N^2/4
//                   |                      | bytes (vs N^2 for the table)
//
// make_distance_oracle() is the selection point ExperimentEngine and
// make_routing go through; OracleMode (sim/config.hpp) picks dense vs
// family, with Auto keeping the dense table below a small-N threshold
// where O(N^2) is free and queries are fastest.
//
// Lifetime contract: oracles built from a Topology may retain a reference
// to it (or its graph) — the topology must outlive the oracle, the same
// contract routing algorithms already have.

#include <memory>
#include <string>
#include <vector>

#include "gf/gf.hpp"
#include "sim/config.hpp"
#include "sim/routing/routing.hpp"

namespace slimfly {
class Topology;
class Torus;
class Hypercube;
class FlattenedButterfly;
class FatTree3;
class Dragonfly;
}  // namespace slimfly

namespace slimfly::sf {
class SlimFlyMMS;
}

namespace slimfly::sim {

/// Auto mode keeps the dense DistanceTable up to this many routers
/// (N^2 = 16 MB of table — negligible); beyond it the per-family oracle
/// takes over. Exposed for tests.
inline constexpr int kDenseOracleRouterLimit = 4096;

/// MMS algebra (paper Section II-B): distance is decidable from the
/// connection equations (1)-(3) — adjacency is generator-set membership or
/// the line-point incidence y = mx + c, and every non-adjacent pair is at
/// distance exactly 2 (the paper's diameter-2 property). Self-contained:
/// copies the field tables and membership masks (O(q^2) bytes).
class SlimFlyOracle : public DistanceOracle {
 public:
  explicit SlimFlyOracle(const sf::SlimFlyMMS& topo);

  int dist(int u, int v) const override;
  int diameter() const override { return 2; }

 private:
  gf::Field field_;
  int q_;
  std::vector<std::uint8_t> in_x_;       // X membership, indexed by element
  std::vector<std::uint8_t> in_xprime_;  // X' membership
};

/// Per-dimension ring distance: sum of min(|a-b|, k-|a-b|).
class TorusOracle : public DistanceOracle {
 public:
  explicit TorusOracle(const Torus& topo);

  int dist(int u, int v) const override;
  int diameter() const override { return diameter_; }

 private:
  std::vector<int> dims_;
  int diameter_;
};

/// Hamming distance on the bit coordinates.
class HypercubeOracle : public DistanceOracle {
 public:
  explicit HypercubeOracle(const Hypercube& topo);

  int dist(int u, int v) const override;
  int diameter() const override { return n_dims_; }

 private:
  int n_dims_;
};

/// Each dimension is a clique, so distance = number of differing
/// base-extent digits.
class FlatButterflyOracle : public DistanceOracle {
 public:
  explicit FlatButterflyOracle(const FlattenedButterfly& topo);

  int dist(int u, int v) const override;
  int diameter() const override { return n_dims_; }

 private:
  int n_dims_;
  int extent_;
};

/// Level/pod rules on the three-level tree (both variants share the wiring
/// shape): the graph is bipartite (aggs vs edges+cores), so the case
/// analysis per level pair is exact.
class FatTreeOracle : public DistanceOracle {
 public:
  explicit FatTreeOracle(const FatTree3& topo);

  int dist(int u, int v) const override;
  int diameter() const override { return 4; }  // pods >= 2 always (p >= 2)

 private:
  int p_;
  int pods_;
};

/// Group rules plus per-router global-neighbor lists read off the built
/// graph (intra-group is a clique; distance > 1 is a 2-path case analysis
/// over the global links; g <= a*h+1 guarantees every group pair is
/// directly linked, capping distance at 3).
class DragonflyOracle : public DistanceOracle {
 public:
  explicit DragonflyOracle(const Dragonfly& topo);

  int dist(int u, int v) const override;
  int diameter() const override { return diameter_; }

 private:
  bool two_path_exists(int u, int v) const;
  const std::vector<int>& globals(int r) const {
    return globals_[static_cast<std::size_t>(r)];
  }

  int a_;
  int diameter_;
  std::vector<std::vector<int>> globals_;  // sorted (adjacency order)
};

/// Exact distances on any graph of diameter <= 2 straight from adjacency
/// (O(log degree) per query, no per-pair state): 0 / 1 / 2. Built via
/// try_build(), which VERIFIES the diameter-2 property with a transient
/// bitset sweep and returns nullptr when some pair is uncovered — the
/// augmented family's oracle (random augmentation usually lands at
/// diameter 2, but nothing guarantees it, and the base may be anything).
class Diameter2Oracle : public DistanceOracle {
 public:
  /// nullptr when the graph's diameter exceeds 2 (caller falls back to
  /// CompressedBfsOracle). The graph must outlive the oracle.
  static std::unique_ptr<Diameter2Oracle> try_build(const Graph& g);

  int dist(int u, int v) const override;
  int diameter() const override { return diameter_; }

 private:
  Diameter2Oracle(const Graph& g, int diameter);

  const Graph* g_;
  int diameter_;
};

/// BFS fallback for the random families (dln, longhop, unknown): stores
/// dist mod 3 in 2 bits per pair (N^2/4 bytes, 4x smaller than the dense
/// table) plus the exact diameter recorded during the build sweep.
/// Neighbors of u sit at distance d-1, d, or d+1 from v — distinct mod 3 —
/// so the exact distance is recovered by walking greedily toward v, and
/// minimal next-hop candidates are exactly the neighbors whose residue is
/// one step closer: sample_minimal_path runs the shared walk on that
/// residue test, skipping the exact distance per neighbour.
class CompressedBfsOracle : public DistanceOracle {
 public:
  /// The graph must outlive the oracle. Throws like DistanceTable on a
  /// disconnected graph.
  explicit CompressedBfsOracle(const Graph& g);

  int dist(int u, int v) const override;
  int diameter() const override { return diameter_; }

  void sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                           InlinePath& out) const override;

 private:
  int mod3(int u, int v) const {
    const std::size_t idx = static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                            static_cast<std::size_t>(v);
    const unsigned byte = packed_[idx >> 2];
    return static_cast<int>((byte >> ((idx & 3u) * 2)) & 3u);
  }

  const Graph* g_;
  int n_;
  int diameter_ = 0;
  std::vector<std::uint8_t> packed_;
};

/// Builds the per-family oracle for `topo` (algebraic / coordinate / level
/// rules per the table above; Diameter2-else-CompressedBfs for augmented;
/// CompressedBfs for everything unrecognized).
std::shared_ptr<const DistanceOracle> make_family_oracle(const Topology& topo);

/// Oracle selection (the point ExperimentEngine and make_routing funnel
/// through): Table = dense DistanceTable, Family = make_family_oracle,
/// Auto = dense up to kDenseOracleRouterLimit routers, family beyond.
std::shared_ptr<const DistanceOracle> make_distance_oracle(const Topology& topo,
                                                           OracleMode mode);

}  // namespace slimfly::sim
