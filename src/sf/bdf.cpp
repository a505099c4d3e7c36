#include "sf/bdf.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>

#include "analysis/metrics.hpp"
#include "gf/gf.hpp"
#include "util/numtheory.hpp"
#include "util/rng.hpp"

namespace slimfly::sf {

BdfModel bdf_model(int u) {
  auto pp = as_prime_power(u);
  if (!pp || u % 2 == 0) {
    throw std::invalid_argument("bdf_model: u must be an odd prime power");
  }
  BdfModel model;
  model.u = u;
  model.k_net = 3 * (u + 1) / 2;
  model.num_routers = static_cast<long long>(u + 1) *
                      (static_cast<long long>(u) * u + u + 1);
  return model;
}

Graph polarity_graph(int u) {
  auto pp = as_prime_power(u);
  if (!pp) throw std::invalid_argument("polarity_graph: u must be a prime power");
  gf::Field f(u);

  // Canonical projective points: (1,b,c), (0,1,c), (0,0,1).
  std::vector<std::array<int, 3>> points;
  for (int b = 0; b < u; ++b) {
    for (int c = 0; c < u; ++c) points.push_back({1, b, c});
  }
  for (int c = 0; c < u; ++c) points.push_back({0, 1, c});
  points.push_back({0, 0, 1});

  int n = static_cast<int>(points.size());
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const auto& pi = points[static_cast<std::size_t>(i)];
      const auto& pj = points[static_cast<std::size_t>(j)];
      int dot = f.add(f.add(f.mul(pi[0], pj[0]), f.mul(pi[1], pj[1])),
                      f.mul(pi[2], pj[2]));
      if (dot == 0) g.add_edge(i, j);
    }
  }
  g.finalize();
  return g;
}

Graph star_product(const Graph& g1, const Graph& g2, const StarArcs& arcs) {
  int n2 = g2.num_vertices();
  if (arcs.bijections.size() != arcs.arcs.size()) {
    throw std::invalid_argument("star_product: arcs/bijections size mismatch");
  }
  Graph g(g1.num_vertices() * n2);
  // Rule 1: same G1 vertex, G2 edge.
  for (int a1 = 0; a1 < g1.num_vertices(); ++a1) {
    for (const auto& [u, v] : g2.edges()) {
      g.add_edge(a1 * n2 + u, a1 * n2 + v);
    }
  }
  // Rule 2: per-arc bijection.
  for (std::size_t a = 0; a < arcs.arcs.size(); ++a) {
    auto [from, to] = arcs.arcs[a];
    const auto& f = arcs.bijections[a];
    if (static_cast<int>(f.size()) != n2) {
      throw std::invalid_argument("star_product: bijection arity mismatch");
    }
    for (int a2 = 0; a2 < n2; ++a2) {
      g.add_edge(from * n2 + a2, to * n2 + f[static_cast<std::size_t>(a2)]);
    }
  }
  g.finalize();
  return g;
}

bool has_pstar_property(const Graph& g, const std::vector<int>& involution) {
  int n = g.num_vertices();
  if (static_cast<int>(involution.size()) != n) return false;
  for (int v = 0; v < n; ++v) {
    int fv = involution[static_cast<std::size_t>(v)];
    if (fv < 0 || fv >= n) return false;
    if (involution[static_cast<std::size_t>(fv)] != v) return false;  // not an involution
  }
  // Diameter <= 2 check via neighbourhood cover.
  for (int v = 0; v < n; ++v) {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    seen[static_cast<std::size_t>(v)] = true;
    for (int w : g.neighbors(v)) {
      seen[static_cast<std::size_t>(w)] = true;
      for (int z : g.neighbors(w)) seen[static_cast<std::size_t>(z)] = true;
    }
    if (std::find(seen.begin(), seen.end(), false) != seen.end()) return false;
  }
  // Covering condition.
  for (int v = 0; v < n; ++v) {
    std::vector<bool> covered(static_cast<std::size_t>(n), false);
    int fv = involution[static_cast<std::size_t>(v)];
    covered[static_cast<std::size_t>(v)] = true;
    covered[static_cast<std::size_t>(fv)] = true;
    for (int w : g.neighbors(v)) {
      covered[static_cast<std::size_t>(involution[static_cast<std::size_t>(w)])] = true;
    }
    for (int w : g.neighbors(fv)) covered[static_cast<std::size_t>(w)] = true;
    if (std::find(covered.begin(), covered.end(), false) != covered.end()) return false;
  }
  return true;
}

namespace {

/// Random near-regular graph via stub matching (small n; retries internally).
Graph random_regular(int n, int degree, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<int> stubs;
    for (int v = 0; v < n; ++v) {
      for (int d = 0; d < degree; ++d) stubs.push_back(v);
    }
    std::shuffle(stubs.begin(), stubs.end(), rng);
    std::vector<std::pair<int, int>> edges;
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      int u = stubs[i], v = stubs[i + 1];
      if (u == v ||
          std::find(adj[static_cast<std::size_t>(u)].begin(),
                    adj[static_cast<std::size_t>(u)].end(),
                    v) != adj[static_cast<std::size_t>(u)].end()) {
        ok = false;
        break;
      }
      adj[static_cast<std::size_t>(u)].push_back(v);
      adj[static_cast<std::size_t>(v)].push_back(u);
      edges.emplace_back(u, v);
    }
    if (!ok) continue;
    Graph g(n);
    for (auto [u, v] : edges) g.add_edge(u, v);
    g.finalize();
    return g;
  }
  return Graph(0);  // caller treats an empty graph as failure
}

}  // namespace

std::optional<PStarGraph> find_pstar_graph(int n, int degree, int max_tries) {
  if (n < 2 || degree < 1 || degree >= n) return std::nullopt;
  Rng rng(std::uint64_t{0xbdf} * static_cast<std::uint64_t>(n) +
          static_cast<std::uint64_t>(degree));

  // Candidate involutions: the antipodal map v -> v + n/2 (n even), the
  // reflection v -> n-1-v, and random fixed-point-free involutions.
  auto try_graph = [&](const Graph& g) -> std::optional<PStarGraph> {
    if (g.num_vertices() != n) return std::nullopt;
    std::vector<std::vector<int>> candidates;
    if (n % 2 == 0) {
      std::vector<int> anti(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) anti[static_cast<std::size_t>(v)] = (v + n / 2) % n;
      candidates.push_back(std::move(anti));
    }
    std::vector<int> refl(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) refl[static_cast<std::size_t>(v)] = n - 1 - v;
    candidates.push_back(std::move(refl));
    for (int t = 0; t < 32 && n % 2 == 0; ++t) {
      std::vector<int> perm(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
      std::shuffle(perm.begin(), perm.end(), rng);
      std::vector<int> inv(static_cast<std::size_t>(n));
      for (int i = 0; i < n; i += 2) {
        inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
            perm[static_cast<std::size_t>(i + 1)];
        inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i + 1)])] =
            perm[static_cast<std::size_t>(i)];
      }
      candidates.push_back(std::move(inv));
    }
    for (auto& f : candidates) {
      if (has_pstar_property(g, f)) return PStarGraph{g, f};
    }
    return std::nullopt;
  };

  // Circulant graphs C_n(S) over all stride sets of the right size.
  if (degree % 2 == 0 || n % 2 == 0) {
    std::vector<int> strides;
    for (int s = 1; s <= n / 2; ++s) strides.push_back(s);
    // Enumerate stride subsets greedily up to a bound: prefer small sets.
    int half = degree / 2;
    bool needs_antipodal = degree % 2 == 1;  // stride n/2 contributes 1
    std::vector<int> pick(static_cast<std::size_t>(half));
    std::function<std::optional<PStarGraph>(int, int)> rec =
        [&](int start, int depth) -> std::optional<PStarGraph> {
      if (depth == half) {
        Graph g(n);
        for (int v = 0; v < n; ++v) {
          for (int d = 0; d < half; ++d) {
            g.add_edge(v, (v + pick[static_cast<std::size_t>(d)]) % n);
          }
          if (needs_antipodal && v < n / 2) g.add_edge(v, v + n / 2);
        }
        g.finalize();
        if (!g.is_regular() || g.max_degree() != degree) return std::nullopt;
        return try_graph(g);
      }
      for (int s = start; s <= (n - 1) / 2; ++s) {
        pick[static_cast<std::size_t>(depth)] = s;
        if (auto r = rec(s + 1, depth + 1)) return r;
      }
      return std::nullopt;
    };
    if (auto r = rec(1, 0)) return r;
  }

  // Random regular graphs with random involutions.
  for (int t = 0; t < max_tries; ++t) {
    Graph g = random_regular(n, degree, rng);
    if (auto r = try_graph(g)) return r;
  }
  return std::nullopt;
}

Graph SlimFlyBDF::build(int u) {
  auto model = bdf_model(u);  // validates u
  Graph p_u = polarity_graph(u);
  int n2 = u + 1;
  int deg2 = (u + 1) / 2;
  auto pstar = find_pstar_graph(n2, deg2);
  if (!pstar) {
    throw std::runtime_error("SlimFlyBDF: no P* companion graph found for u=" +
                             std::to_string(u));
  }

  // Orientation: each G1 edge becomes one arc with the P* involution as its
  // bijection; if that misses diameter 3 (the theorem's corner case, see
  // DESIGN.md), retry with randomized per-arc bijections built from the
  // involution composed with graph automorphism-ish shuffles.
  auto edges = p_u.edges();
  StarArcs arcs;
  arcs.arcs = edges;
  arcs.bijections.assign(edges.size(), pstar->involution);
  // analysis::diameter is -1 on a disconnected product: reject that too.
  auto diameter_at_most_3 = [](const Graph& h) {
    const int d = analysis::diameter(h);
    return 0 <= d && d <= 3;
  };
  Graph g = star_product(p_u, pstar->graph, arcs);
  if (diameter_at_most_3(g)) return g;

  Rng rng(std::uint64_t{0xabc0} + static_cast<std::uint64_t>(u));
  std::vector<int> identity(static_cast<std::size_t>(n2));
  for (int i = 0; i < n2; ++i) identity[static_cast<std::size_t>(i)] = i;
  for (int attempt = 0; attempt < 64; ++attempt) {
    for (auto& f : arcs.bijections) {
      f = rng.bernoulli(0.5) ? pstar->involution : identity;
    }
    g = star_product(p_u, pstar->graph, arcs);
    if (diameter_at_most_3(g)) return g;
  }
  // Last resort: fully random per-arc bijections.
  for (int attempt = 0; attempt < 256; ++attempt) {
    for (auto& f : arcs.bijections) {
      f = identity;
      std::shuffle(f.begin(), f.end(), rng);
    }
    g = star_product(p_u, pstar->graph, arcs);
    if (diameter_at_most_3(g)) return g;
  }
  throw std::runtime_error("SlimFlyBDF: could not realize diameter 3 for u=" +
                           std::to_string(u));
  (void)model;
}

SlimFlyBDF::SlimFlyBDF(int u, int concentration)
    : Topology(build(u),
               concentration == 0 ? (3 * (u + 1) / 2 + 1) / 2 : concentration,
               (u + 1) * (u * u + u + 1)),
      u_(u) {}

std::string SlimFlyBDF::name() const {
  return "Slim Fly BDF (u=" + std::to_string(u_) + ")";
}

}  // namespace slimfly::sf
