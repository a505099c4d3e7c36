// Diameter-3 machinery: polarity graphs, the * product, property P*, and
// the assembled BDF graphs for small u.

#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "sf/bdf.hpp"
#include "sf/delorme.hpp"

namespace slimfly::sf {
namespace {

TEST(BdfModel, ClosedForm) {
  // Section II-C: k' = 3(u+1)/2, Nr = (u+1)(u^2+u+1).
  auto m = bdf_model(3);
  EXPECT_EQ(m.k_net, 6);
  EXPECT_EQ(m.num_routers, 4 * 13);
  m = bdf_model(9);  // odd prime power
  EXPECT_EQ(m.k_net, 15);
  EXPECT_EQ(m.num_routers, 10 * 91);
  EXPECT_THROW(bdf_model(4), std::invalid_argument);  // even
  EXPECT_THROW(bdf_model(15), std::invalid_argument); // not a prime power
}

TEST(BdfModel, MatchesCubicFormula) {
  // Nr = 8/27 k'^3 - 4/9 k'^2 + 2/3 k' must equal (u+1)(u^2+u+1).
  for (int u : {3, 5, 7, 9, 11, 13}) {
    auto m = bdf_model(u);
    double k = m.k_net;
    double nr = 8.0 / 27.0 * k * k * k - 4.0 / 9.0 * k * k + 2.0 / 3.0 * k;
    EXPECT_NEAR(static_cast<double>(m.num_routers), nr, 0.5) << "u=" << u;
  }
}

class PolarityGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(PolarityGraphTest, ProjectivePlaneStructure) {
  int u = GetParam();
  Graph g = polarity_graph(u);
  EXPECT_EQ(g.num_vertices(), u * u + u + 1);
  // Degree u+1, except u+1 absolute points of degree u.
  int deg_u = 0, deg_u1 = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == u) ++deg_u;
    else if (g.degree(v) == u + 1) ++deg_u1;
    else FAIL() << "unexpected degree " << g.degree(v);
  }
  EXPECT_EQ(deg_u, u + 1);
  EXPECT_EQ(analysis::diameter(g), 2);
}

INSTANTIATE_TEST_SUITE_P(SmallPlanes, PolarityGraphTest,
                         ::testing::Values(2, 3, 4, 5, 7));

TEST(PStar, C4WithAntipodalInvolution) {
  Graph c4(4);
  c4.add_edge(0, 1);
  c4.add_edge(1, 2);
  c4.add_edge(2, 3);
  c4.add_edge(3, 0);
  c4.finalize();
  EXPECT_TRUE(has_pstar_property(c4, {2, 3, 0, 1}));
  EXPECT_FALSE(has_pstar_property(c4, {1, 0, 3, 2}));  // adjacent-swap fails
  EXPECT_FALSE(has_pstar_property(c4, {1, 2, 3, 0}));  // not an involution
}

TEST(PStar, SearchFindsKnownGraphs) {
  // u=3: C4 (degree 2 on 4 vertices); u=5: the prism (degree 3 on 6).
  auto g4 = find_pstar_graph(4, 2);
  ASSERT_TRUE(g4.has_value());
  EXPECT_TRUE(has_pstar_property(g4->graph, g4->involution));
  auto g6 = find_pstar_graph(6, 3);
  ASSERT_TRUE(g6.has_value());
  EXPECT_TRUE(has_pstar_property(g6->graph, g6->involution));
}

TEST(StarProduct, SizeAndDegree) {
  Graph g1(2);
  g1.add_edge(0, 1);
  g1.finalize();
  Graph g2(3);
  g2.add_edge(0, 1);
  g2.add_edge(1, 2);
  g2.finalize();
  StarArcs arcs;
  arcs.arcs = {{0, 1}};
  arcs.bijections = {{0, 1, 2}};  // identity
  Graph prod = star_product(g1, g2, arcs);
  EXPECT_EQ(prod.num_vertices(), 6);
  // Each vertex: deg_G2(a2) + 1 (one arc endpoint per G1 edge).
  EXPECT_EQ(prod.degree(0 * 3 + 0), 1 + 1);
  EXPECT_EQ(prod.degree(0 * 3 + 1), 2 + 1);
}

TEST(StarProduct, ValidatesArity) {
  Graph g1(2);
  g1.add_edge(0, 1);
  g1.finalize();
  Graph g2(2);
  g2.add_edge(0, 1);
  g2.finalize();
  StarArcs arcs;
  arcs.arcs = {{0, 1}};
  arcs.bijections = {{0}};  // wrong arity
  EXPECT_THROW(star_product(g1, g2, arcs), std::invalid_argument);
}

TEST(SlimFlyBdf, DiameterThreeForU3) {
  SlimFlyBDF topo(3);
  EXPECT_EQ(topo.num_routers(), 52);
  EXPECT_EQ(topo.k_net(), 6);
  int d = analysis::diameter(topo.graph());
  EXPECT_LE(d, 3);
  EXPECT_GE(d, 2);
  EXPECT_LE(topo.graph().max_degree(), topo.k_net());
}

TEST(SlimFlyBdf, DiameterThreeForU5) {
  SlimFlyBDF topo(5);
  EXPECT_EQ(topo.num_routers(), 6 * 31);
  EXPECT_EQ(topo.k_net(), 9);
  int d = analysis::diameter(topo.graph());
  EXPECT_LE(d, 3);
  EXPECT_GE(d, 2);
}

TEST(Delorme, ClosedForm) {
  auto m = delorme_model(2);
  EXPECT_EQ(m.k_net, 9);
  EXPECT_EQ(m.num_routers, 9LL * 25);
  EXPECT_THROW(delorme_model(6), std::invalid_argument);
}

TEST(Delorme, FamilyBounded) {
  auto family = delorme_family(100);
  for (const auto& m : family) EXPECT_LE(m.k_net, 100);
  EXPECT_GE(family.size(), 3u);  // v = 2, 3, 4, 5, 7, 8, 9 -> (v+1)^2 <= 100
}

}  // namespace
}  // namespace slimfly::sf
