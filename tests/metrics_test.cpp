#include <gtest/gtest.h>

#include <cmath>

#include "analysis/metrics.hpp"
#include "sf/mms.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus.hpp"

namespace slimfly::analysis {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

TEST(Bfs, PathDistances) {
  Graph g = path_graph(5);
  std::vector<int> d;
  EXPECT_EQ(bfs_distances(g, 0, d), 4);
  EXPECT_EQ(d, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(bfs_distances(g, 2, d), 2);  // the same storage, refilled
  EXPECT_EQ(d, (std::vector<int>{2, 1, 0, 1, 2}));
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  g.finalize();
  std::vector<int> d;
  EXPECT_EQ(bfs_distances(g, 0, d), -1);
  EXPECT_EQ(d, (std::vector<int>{0, 1, -1}));
  EXPECT_EQ(diameter(g), -1);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(largest_component(g), 2);
}

TEST(Diameter, KnownTopologies) {
  EXPECT_EQ(diameter(Hypercube(5).graph()), 5);
  EXPECT_EQ(diameter(Torus({5, 5}).graph()), 4);
  EXPECT_EQ(diameter(sf::SlimFlyMMS(7).graph()), 2);
}

TEST(AverageDistance, CompleteGraphIsOne) {
  Graph g(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) g.add_edge(i, j);
  }
  g.finalize();
  EXPECT_DOUBLE_EQ(average_distance(g), 1.0);
}

TEST(AverageDistance, HypercubeClosedForm) {
  // Average distance of an n-cube over ordered pairs: n * 2^(n-1) / (2^n - 1).
  int n = 6;
  Hypercube hc(n);
  double expected = n * std::pow(2.0, n - 1) / (std::pow(2.0, n) - 1.0);
  EXPECT_NEAR(average_distance(hc.graph()), expected, 1e-9);
}

TEST(AverageEndpointDistance, BelowDiameterForSlimFly) {
  sf::SlimFlyMMS topo(7);
  double avg = average_endpoint_distance(topo);
  EXPECT_GT(avg, 1.0);
  EXPECT_LT(avg, 2.0);  // diameter 2, many direct pairs
}

TEST(AverageEndpointDistance, SameRouterPairsCountZero) {
  // Two routers, one edge, p=2: ordered pairs: 4 same-router (0 hops,
  // excluding self) -> distance contributions only from cross pairs.
  Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  class Tiny : public Topology {
   public:
    explicit Tiny(Graph gr) : Topology(std::move(gr), 2, 2) {}
    std::string name() const override { return "tiny"; }
    std::string symbol() const override { return "T"; }
  } tiny(std::move(g));
  // 12 ordered distinct pairs; 8 cross pairs at distance 1, 4 same-router.
  EXPECT_NEAR(average_endpoint_distance(tiny), 8.0 / 12.0, 1e-9);
}

TEST(DistanceHistogram, SlimFlyMooreStructure) {
  // For a diameter-2 graph: per source 1 at distance 0, k' at distance 1,
  // rest at distance 2.
  sf::SlimFlyMMS topo(5);
  auto h = distance_histogram(topo.graph());
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], 50);
  EXPECT_EQ(h[1], 50 * 7);
  EXPECT_EQ(h[2], 50 * 42);
}

TEST(Eccentricity, CenterOfPath) {
  Graph g = path_graph(7);
  EXPECT_EQ(eccentricity(g, 3), 3);
  EXPECT_EQ(eccentricity(g, 0), 6);
}

}  // namespace
}  // namespace slimfly::analysis
