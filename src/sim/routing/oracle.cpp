#include "sim/routing/oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "sf/mms.hpp"
#include "topo/augmented.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/flatbutterfly.hpp"
#include "topo/hypercube.hpp"
#include "topo/topology.hpp"
#include "topo/torus.hpp"

namespace slimfly::sim {

// ---- slimfly: MMS connection equations (paper Section II-B) ---------------

SlimFlyOracle::SlimFlyOracle(const sf::SlimFlyMMS& topo)
    : field_(topo.field()),
      q_(topo.q()),
      in_x_(static_cast<std::size_t>(q_), 0),
      in_xprime_(static_cast<std::size_t>(q_), 0) {
  for (int e : topo.generators().x) in_x_[static_cast<std::size_t>(e)] = 1;
  for (int e : topo.generators().xprime) in_xprime_[static_cast<std::size_t>(e)] = 1;
}

/* SF_HOT */ int SlimFlyOracle::dist(int u, int v) const {
  if (u == v) return 0;
  const int qq = q_ * q_;
  const int s1 = u / qq, s2 = v / qq;
  const int a1 = (u % qq) / q_, b1 = u % q_;
  const int a2 = (v % qq) / q_, b2 = v % q_;
  if (s1 == s2) {
    // Eq. (1)/(2): intra-subgraph edges exist only inside one column (same
    // x resp. m) when the y-difference lies in the generator set; any other
    // same-subgraph pair has a common neighbour (conditions A1/A2), so 2.
    if (a1 != a2) return 2;
    const int diff = field_.sub(b1, b2);
    const auto& mask = s1 == 0 ? in_x_ : in_xprime_;
    return mask[static_cast<std::size_t>(diff)] ? 1 : 2;
  }
  // Eq. (3): (0, x, y) ~ (1, m, c)  iff  y = m*x + c; non-adjacent cross
  // pairs are at distance exactly 2 (condition B / unique line-point
  // incidence), the paper's diameter-2 property.
  const int x = s1 == 0 ? a1 : a2, y = s1 == 0 ? b1 : b2;
  const int m = s1 == 0 ? a2 : a1, c = s1 == 0 ? b2 : b1;
  return y == field_.add(field_.mul(m, x), c) ? 1 : 2;
}

// ---- torus ----------------------------------------------------------------

TorusOracle::TorusOracle(const Torus& topo)
    : dims_(topo.dims()), diameter_(topo.diameter()) {}

/* SF_HOT */ int TorusOracle::dist(int u, int v) const {
  int d = 0;
  for (int extent : dims_) {
    const int a = u % extent, b = v % extent;
    u /= extent;
    v /= extent;
    const int gap = a < b ? b - a : a - b;
    d += std::min(gap, extent - gap);
  }
  return d;
}

// ---- hypercube ------------------------------------------------------------

HypercubeOracle::HypercubeOracle(const Hypercube& topo) : n_dims_(topo.n_dims()) {}

/* SF_HOT */ int HypercubeOracle::dist(int u, int v) const {
  unsigned x = static_cast<unsigned>(u) ^ static_cast<unsigned>(v);
  int d = 0;
  while (x != 0) {
    x &= x - 1;
    ++d;
  }
  return d;
}

// ---- flattened butterfly --------------------------------------------------

FlatButterflyOracle::FlatButterflyOracle(const FlattenedButterfly& topo)
    : n_dims_(topo.n_dims()), extent_(topo.extent()) {}

/* SF_HOT */ int FlatButterflyOracle::dist(int u, int v) const {
  int d = 0;
  for (int i = 0; i < n_dims_; ++i) {
    if (u % extent_ != v % extent_) ++d;
    u /= extent_;
    v /= extent_;
  }
  return d;
}

// ---- fat tree -------------------------------------------------------------

FatTreeOracle::FatTreeOracle(const FatTree3& topo)
    : p_(topo.p()), pods_(topo.pods()) {}

/* SF_HOT */ int FatTreeOracle::dist(int u, int v) const {
  if (u == v) return 0;
  const int agg_base = pods_ * p_;
  const int core_base = 2 * pods_ * p_;
  const auto level = [&](int r) { return r < agg_base ? 0 : r < core_base ? 1 : 2; };
  if (level(u) > level(v)) std::swap(u, v);
  const int lu = level(u), lv = level(v);
  // Pod for edge/agg switches; core column j for cores/aggs (core (j, l)
  // connects to agg j of every pod — fattree.cpp's numbering comment).
  const auto pod = [&](int r) { return (r - level(r) * agg_base) / p_; };
  const auto agg_j = [&](int r) { return (r - agg_base) % p_; };
  const auto core_j = [&](int r) { return (r - core_base) / p_; };
  if (lu == 0 && lv == 0) return pod(u) == pod(v) ? 2 : 4;
  if (lu == 0 && lv == 1) return pod(u) == pod(v) ? 1 : 3;
  if (lu == 0 && lv == 2) return 2;  // edge - (any agg of its pod) - core
  if (lu == 1 && lv == 1) {
    if (pod(u) == pod(v)) return 2;          // via a shared edge switch
    return agg_j(u) == agg_j(v) ? 2 : 4;     // via a shared core, else down-up
  }
  if (lu == 1 && lv == 2) return agg_j(u) == core_j(v) ? 1 : 3;
  return core_j(u) == core_j(v) ? 2 : 4;     // core-core via a shared agg
}

// ---- dragonfly ------------------------------------------------------------

DragonflyOracle::DragonflyOracle(const Dragonfly& topo)
    : a_(topo.a()), globals_(static_cast<std::size_t>(topo.num_routers())) {
  const Graph& g = topo.graph();
  const int n = g.num_vertices();
  for (int r = 0; r < n; ++r) {
    const int gr = r / a_;
    for (int w : g.neighbors(r)) {
      if (w / a_ != gr) globals_[static_cast<std::size_t>(r)].push_back(w);
    }
  }
  // Exact diameter. Complete graph (tiny dense configs) is 1; otherwise 2
  // unless some cross-group pair has no 2-path. A router with a global link
  // into group B reaches all of B in <= 2 hops, so only (u, B) pairs where
  // u has no link into B can contribute a distance-3 pair — scan those.
  bool complete = n > 1;
  for (int r = 0; complete && r < n; ++r) complete = g.degree(r) == n - 1;
  if (complete) {
    diameter_ = 1;
    return;
  }
  diameter_ = 2;
  const int groups = topo.groups();
  std::vector<std::uint8_t> reached(static_cast<std::size_t>(groups));
  for (int u = 0; u < n && diameter_ == 2; ++u) {
    std::fill(reached.begin(), reached.end(), 0);
    const int gu = u / a_;
    reached[static_cast<std::size_t>(gu)] = 1;
    for (int w : globals(u)) reached[static_cast<std::size_t>(w / a_)] = 1;
    for (int b = 0; b < groups && diameter_ == 2; ++b) {
      if (reached[static_cast<std::size_t>(b)]) continue;
      for (int v = b * a_; v < (b + 1) * a_; ++v) {
        if (dist(u, v) == 3) {
          diameter_ = 3;
          break;
        }
      }
    }
  }
}

bool DragonflyOracle::two_path_exists(int u, int v) const {
  const int gu = u / a_, gv = v / a_;
  for (int w : globals(u)) {
    if (w / a_ == gv) return true;  // global into v's group, then local
    // global-global: w's global list is sorted adjacency order.
    const auto& gw = globals(w);
    if (std::binary_search(gw.begin(), gw.end(), v)) return true;
  }
  for (int w : globals(v)) {
    if (w / a_ == gu) return true;  // local out of u's group, then global
  }
  return false;
}

/* SF_HOT */ int DragonflyOracle::dist(int u, int v) const {
  if (u == v) return 0;
  if (u / a_ == v / a_) return 1;  // intra-group clique
  const auto& gu = globals(u);
  if (std::binary_search(gu.begin(), gu.end(), v)) return 1;
  return two_path_exists(u, v) ? 2 : 3;
}

// ---- diameter-2 adjacency oracle (augmented) ------------------------------

Diameter2Oracle::Diameter2Oracle(const Graph& g, int diameter)
    : g_(&g), diameter_(diameter) {}

std::unique_ptr<Diameter2Oracle> Diameter2Oracle::try_build(const Graph& g) {
  const int n = g.num_vertices();
  if (n <= 1) return nullptr;
  bool complete = true;
  for (int r = 0; complete && r < n; ++r) complete = g.degree(r) == n - 1;
  if (complete) {
    return std::unique_ptr<Diameter2Oracle>(new Diameter2Oracle(g, 1));
  }
  // Verify every pair is covered at distance <= 2: OR each vertex's
  // neighbour rows over a transient adjacency bitset (N^2/8 bytes, freed on
  // return).
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(n) * words, 0);
  for (int u = 0; u < n; ++u) {
    std::uint64_t* row = &rows[static_cast<std::size_t>(u) * words];
    for (int w : g.neighbors(u)) {
      row[static_cast<std::size_t>(w) >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }
  std::vector<std::uint64_t> cover(words);
  for (int u = 0; u < n; ++u) {
    const std::uint64_t* row = &rows[static_cast<std::size_t>(u) * words];
    std::copy(row, row + words, cover.begin());
    cover[static_cast<std::size_t>(u) >> 6] |= std::uint64_t{1} << (u & 63);
    for (int w : g.neighbors(u)) {
      const std::uint64_t* wrow = &rows[static_cast<std::size_t>(w) * words];
      for (std::size_t i = 0; i < words; ++i) cover[i] |= wrow[i];
    }
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t want = ~std::uint64_t{0};
      if (i + 1 == words && (n & 63) != 0) want = (std::uint64_t{1} << (n & 63)) - 1;
      if (cover[i] != want) return nullptr;  // some pair is > 2 hops apart
    }
  }
  return std::unique_ptr<Diameter2Oracle>(new Diameter2Oracle(g, 2));
}

/* SF_HOT */ int Diameter2Oracle::dist(int u, int v) const {
  if (u == v) return 0;
  return g_->has_edge(u, v) ? 1 : 2;
}

// ---- compressed BFS fallback ----------------------------------------------

CompressedBfsOracle::CompressedBfsOracle(const Graph& g)
    : g_(&g), n_(g.num_vertices()) {
  packed_.assign((static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_) + 3) / 4, 0);
  std::vector<int> dist;
  for (int s = 0; s < n_; ++s) {
    const int ecc = bfs_distances(g, s, dist);
    if (ecc < 0) throw std::invalid_argument("CompressedBfsOracle: graph disconnected");
    if (ecc >= 255) throw std::logic_error("CompressedBfsOracle: diameter too large");
    diameter_ = std::max(diameter_, ecc);
    for (int v = 0; v < n_; ++v) {
      const std::size_t idx = static_cast<std::size_t>(s) * static_cast<std::size_t>(n_) +
                              static_cast<std::size_t>(v);
      packed_[idx >> 2] |= static_cast<std::uint8_t>(
          (dist[static_cast<std::size_t>(v)] % 3) << ((idx & 3u) * 2));
    }
  }
}

/* SF_HOT */ int CompressedBfsOracle::dist(int u, int v) const {
  // Neighbours of a vertex at distance d from v sit at d-1, d, or d+1 —
  // pairwise distinct mod 3 — so a greedy walk toward the residue one step
  // closer recovers the exact distance.
  int steps = 0;
  int current = u;
  while (current != v) {
    const int want = (mod3(current, v) + 2) % 3;
    int next = -1;
    for (int w : g_->neighbors(current)) {
      if (mod3(w, v) == want) {
        next = w;
        break;
      }
    }
    if (next < 0) throw std::logic_error("CompressedBfsOracle: no progress");
    current = next;
    ++steps;
  }
  return steps;
}

/* SF_HOT */ void CompressedBfsOracle::sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                              InlinePath& out) const {
  // has_edge(x, v) <=> dist == 1; the mod-3 residue one step closer selects
  // exactly the neighbours at distance d-1 (see dist() above).
  int want = 0;
  walk_minimal_path(
      g, u, v, rng, out,
      [this, &g, v, &want](int x) {
        if (g.has_edge(x, v)) return true;
        want = (mod3(x, v) + 2) % 3;
        return false;
      },
      [this, v, &want](int w) { return mod3(w, v) == want; });
}

// ---- selection ------------------------------------------------------------

std::shared_ptr<const DistanceOracle> make_family_oracle(const Topology& topo) {
  if (auto* sf = dynamic_cast<const sf::SlimFlyMMS*>(&topo)) {
    return std::make_shared<SlimFlyOracle>(*sf);
  }
  if (auto* t = dynamic_cast<const Torus*>(&topo)) {
    return std::make_shared<TorusOracle>(*t);
  }
  if (auto* h = dynamic_cast<const Hypercube*>(&topo)) {
    return std::make_shared<HypercubeOracle>(*h);
  }
  if (auto* f = dynamic_cast<const FlattenedButterfly*>(&topo)) {
    return std::make_shared<FlatButterflyOracle>(*f);
  }
  if (auto* ft = dynamic_cast<const FatTree3*>(&topo)) {
    return std::make_shared<FatTreeOracle>(*ft);
  }
  if (auto* df = dynamic_cast<const Dragonfly*>(&topo)) {
    return std::make_shared<DragonflyOracle>(*df);
  }
  if (dynamic_cast<const AugmentedTopology*>(&topo) != nullptr) {
    // Random augmentation usually lands at diameter 2 (that is its point),
    // but nothing guarantees it and the base may be anything: verify, and
    // fall through to the compressed BFS fallback when it is not.
    if (auto d2 = Diameter2Oracle::try_build(topo.graph())) {
      return std::shared_ptr<const DistanceOracle>(std::move(d2));
    }
  }
  return std::make_shared<CompressedBfsOracle>(topo.graph());
}

std::shared_ptr<const DistanceOracle> make_distance_oracle(const Topology& topo,
                                                           OracleMode mode) {
  switch (mode) {
    case OracleMode::Table:
      return std::make_shared<DistanceTable>(topo.graph());
    case OracleMode::Family:
      return make_family_oracle(topo);
    default:
      if (topo.num_routers() <= kDenseOracleRouterLimit) {
        return std::make_shared<DistanceTable>(topo.graph());
      }
      return make_family_oracle(topo);
  }
}

}  // namespace slimfly::sim
