// Distance-oracle certification: every per-family oracle must agree with
// BFS (the dense DistanceTable) on every pair, report the exact diameter,
// and replicate the dense sample_minimal_path walk port-for-port and
// draw-for-draw — the properties that let the program pick the backend
// (OracleMode::Auto) on speed and memory alone, without ever changing
// simulation results.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sf/mms.hpp"
#include "sim/routing/oracle.hpp"
#include "sim/routing/routing.hpp"
#include "topo/dln.hpp"
#include "topo/hypercube.hpp"
#include "topo/registry.hpp"
#include "topo/topology.hpp"
#include "topo/torus.hpp"

namespace slimfly::sim {
namespace {

/// Small instances of every registry family (exhaustive pair checks stay
/// cheap), plus extras that hit oracle paths the example specs miss:
/// non-square torus, classic fat tree, an augmented spec whose result is
/// NOT diameter-2 (forcing the CompressedBfs fallback), and a second
/// slimfly q to cover both generator-set parities.
std::vector<std::string> certification_specs() {
  std::vector<std::string> specs = topo::example_specs();
  specs.push_back("slimfly:q=7");
  specs.push_back("torus:dims=5x3x4");
  specs.push_back("torus:dims=6");
  specs.push_back("fattree:k=4,variant=classic");
  specs.push_back("fattree:k=6");
  specs.push_back("flatbutterfly:n=3,extent=3");
  specs.push_back("dragonfly:p=2,a=3,h=1");  // sparse globals, diameter 3
  specs.push_back("augmented:base=torus:dims=4x4x3,extra=1,seed=9");
  return specs;
}

TEST(FamilyOracle, MatchesBfsExhaustivelyOnEveryFamily) {
  for (const std::string& spec : certification_specs()) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    const Graph& g = topo->graph();
    DistanceTable bfs(g);
    auto oracle = make_family_oracle(*topo);
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->diameter(), bfs.diameter());
    const int n = topo->num_routers();
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        ASSERT_EQ(oracle->dist(u, v), bfs.dist(u, v))
            << "dist(" << u << ", " << v << ")";
      }
    }
  }
}

TEST(FamilyOracle, SymmetryAndTriangleInequality) {
  // Implied by BFS equality on undirected graphs, but asserted directly so
  // a future oracle cannot pass a weakened BFS check and still violate
  // metric axioms the routing stack relies on.
  for (const std::string& spec : certification_specs()) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    auto oracle = make_family_oracle(*topo);
    const int n = topo->num_routers();
    Rng rng(0xface);
    for (int t = 0; t < 2000; ++t) {
      const int u = rng.next_int(0, n - 1);
      const int v = rng.next_int(0, n - 1);
      const int w = rng.next_int(0, n - 1);
      const int duv = oracle->dist(u, v);
      EXPECT_EQ(duv, oracle->dist(v, u));
      EXPECT_EQ(duv == 0, u == v);
      EXPECT_LE(duv, oracle->dist(u, w) + oracle->dist(w, v));
      EXPECT_LE(duv, oracle->diameter());
    }
  }
}

TEST(FamilyOracle, SpotChecksOnMediumInstances) {
  // Large enough that the exhaustive loop above would dominate test time;
  // seeded random pairs keep the medium sizes honest.
  for (const std::string& spec :
       {std::string("slimfly:q=17"), std::string("dragonfly:p=4,a=8,h=4,g=33"),
        std::string("fattree:k=12"), std::string("torus:dims=8x8x8"),
        std::string("hypercube:n=10"), std::string("dln:n=256,k=7,p=2")}) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    DistanceTable bfs(topo->graph());
    auto oracle = make_family_oracle(*topo);
    EXPECT_EQ(oracle->diameter(), bfs.diameter());
    const int n = topo->num_routers();
    Rng rng(0xbeef);
    for (int t = 0; t < 20000; ++t) {
      const int u = rng.next_int(0, n - 1);
      const int v = rng.next_int(0, n - 1);
      ASSERT_EQ(oracle->dist(u, v), bfs.dist(u, v))
          << "dist(" << u << ", " << v << ")";
    }
  }
}

TEST(FamilyOracle, SampleMinimalPathBitIdenticalToDenseTable) {
  // The sharp edge of the whole refactor: identical paths AND identical RNG
  // consumption, otherwise swapping oracles would shift every subsequent
  // draw in a simulation. Run table and oracle from equal-seeded streams,
  // compare paths, then compare the streams' next outputs. slimfly:q=19
  // (722 routers, degree 29) gives Diameter2Oracle's intersection cursor
  // long adjacency lists to scan.
  std::vector<std::string> specs = certification_specs();
  specs.push_back("slimfly:q=19");
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    const Graph& g = topo->graph();
    DistanceTable table(g);
    auto oracle = make_family_oracle(*topo);
    const int n = topo->num_routers();
    Rng pick(0x5eed);
    for (int t = 0; t < 500; ++t) {
      const int u = pick.next_int(0, n - 1);
      const int v = pick.next_int(0, n - 1);
      const std::uint64_t seed = pick.next_u32();
      Rng rng_a(seed), rng_b(seed);
      InlinePath a, b;
      table.sample_minimal_path(g, u, v, rng_a, a);
      oracle->sample_minimal_path(g, u, v, rng_b, b);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
      // The reference itself: the table's ports, followed from u, take a
      // minimal walk to v.
      ASSERT_EQ(static_cast<int>(a.size()), table.dist(u, v));
      int at = u;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_LT(a[i], g.degree(at));
        at = g.neighbors(at)[static_cast<std::size_t>(a[i])];
      }
      ASSERT_EQ(at, v);
      // Post-state: the next draws must match, proving both walks consumed
      // the stream identically.
      ASSERT_EQ(rng_a.next_u32(), rng_b.next_u32());
    }
  }
}

TEST(CompressedBfsOracle, RejectsDisconnectedGraphs) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  EXPECT_THROW(CompressedBfsOracle{g}, std::invalid_argument);
}

TEST(Diameter2Oracle, BuildsOnlyWhenDiameterIsAtMostTwo) {
  // C5: diameter 2 — try_build succeeds and answers exactly.
  Graph c5(5);
  for (int i = 0; i < 5; ++i) c5.add_edge(i, (i + 1) % 5);
  c5.finalize();
  auto oracle = Diameter2Oracle::try_build(c5);
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->diameter(), 2);
  DistanceTable bfs(c5);
  for (int u = 0; u < 5; ++u)
    for (int v = 0; v < 5; ++v) EXPECT_EQ(oracle->dist(u, v), bfs.dist(u, v));

  // P4 (path graph): diameter 3 — the verification sweep must refuse.
  Graph p4(4);
  p4.add_edge(0, 1);
  p4.add_edge(1, 2);
  p4.add_edge(2, 3);
  p4.finalize();
  EXPECT_EQ(Diameter2Oracle::try_build(p4), nullptr);

  // K4: diameter 1 stays exact too.
  Graph k4(4);
  for (int u = 0; u < 4; ++u)
    for (int v = u + 1; v < 4; ++v) k4.add_edge(u, v);
  k4.finalize();
  auto complete = Diameter2Oracle::try_build(k4);
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->diameter(), 1);
}

TEST(OracleFactory, ModeAndAutoThresholdSelection) {
  sf::SlimFlyMMS small(5);  // 50 routers, well under the dense limit
  auto table = make_distance_oracle(small, OracleMode::Table);
  EXPECT_NE(dynamic_cast<const DistanceTable*>(table.get()), nullptr);
  auto family = make_distance_oracle(small, OracleMode::Family);
  EXPECT_NE(dynamic_cast<const Diameter2Oracle*>(family.get()), nullptr);
  auto auto_small = make_distance_oracle(small, OracleMode::Auto);
  EXPECT_NE(dynamic_cast<const DistanceTable*>(auto_small.get()), nullptr);

  // 2^13 = 8192 routers > kDenseOracleRouterLimit: Auto flips to family.
  Hypercube big(13);
  ASSERT_GT(big.num_routers(), kDenseOracleRouterLimit);
  auto auto_big = make_distance_oracle(big, OracleMode::Auto);
  EXPECT_NE(dynamic_cast<const HypercubeOracle*>(auto_big.get()), nullptr);
  EXPECT_EQ(auto_big->diameter(), 13);
  EXPECT_EQ(auto_big->dist(0, (1 << 13) - 1), 13);
}

TEST(OracleFactory, FamilySelectionPerTopology) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"slimfly:q=5", "Diameter2Oracle"},
      {"augmented:q=5,extra=2", "Diameter2Oracle"},
      {"augmented:base=torus:dims=4x4x3,extra=1,seed=9", "CompressedBfsOracle"},
      {"torus:dims=4x4x4", "TorusOracle"},
      {"hypercube:n=6", "HypercubeOracle"},
      {"flatbutterfly:n=2,extent=4", "FlatButterflyOracle"},
      {"fattree:k=4", "FatTreeOracle"},
      {"dragonfly:p=2,a=4,h=2", "DragonflyOracle"},
  };
  for (const auto& [spec, expected] : cases) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    auto oracle = make_family_oracle(*topo);
    std::string got;
    if (dynamic_cast<const Diameter2Oracle*>(oracle.get())) got = "Diameter2Oracle";
    else if (dynamic_cast<const CompressedBfsOracle*>(oracle.get()))
      got = "CompressedBfsOracle";
    else if (dynamic_cast<const TorusOracle*>(oracle.get())) got = "TorusOracle";
    else if (dynamic_cast<const HypercubeOracle*>(oracle.get()))
      got = "HypercubeOracle";
    else if (dynamic_cast<const FlatButterflyOracle*>(oracle.get()))
      got = "FlatButterflyOracle";
    else if (dynamic_cast<const FatTreeOracle*>(oracle.get()))
      got = "FatTreeOracle";
    else if (dynamic_cast<const DragonflyOracle*>(oracle.get()))
      got = "DragonflyOracle";
    else
      got = "other";
    EXPECT_EQ(got, expected);
  }
  // Random families land on the compressed-BFS fallback.
  auto dln = topo::make("dln:n=36,k=6,p=2");
  EXPECT_NE(dynamic_cast<const CompressedBfsOracle*>(
                make_family_oracle(*dln).get()),
            nullptr);
}

}  // namespace
}  // namespace slimfly::sim
