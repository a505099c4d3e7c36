// The Slim Fly MMS topology itself: adjacency exactly per connection
// equations (1)-(3), order, regularity, diameter 2, the Hoffman-Singleton
// special case, unique-common-neighbour structure, and the balanced
// concentration rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "gf/gf.hpp"
#include "sf/mms.hpp"

namespace slimfly::sf {
namespace {

class MmsInvariants : public ::testing::TestWithParam<int> {};

TEST_P(MmsInvariants, OrderAndRadix) {
  int q = GetParam();
  SlimFlyMMS topo(q);
  int delta = topo.delta();
  EXPECT_EQ(topo.num_routers(), 2 * q * q);
  EXPECT_EQ(topo.k_net(), (3 * q - delta) / 2);
  EXPECT_TRUE(topo.graph().is_regular());
  EXPECT_EQ(topo.graph().max_degree(), topo.k_net());
  // Edge count: Nr * k' / 2.
  EXPECT_EQ(topo.graph().num_edges(),
            static_cast<std::int64_t>(2 * q * q) * topo.k_net() / 2);
}

TEST_P(MmsInvariants, DiameterIsTwo) {
  SlimFlyMMS topo(GetParam());
  EXPECT_EQ(analysis::diameter(topo.graph()), 2);
}

TEST_P(MmsInvariants, BalancedConcentration) {
  int q = GetParam();
  SlimFlyMMS topo(q);
  // p = ceil(k'/2) => roughly 2/3 network ports, 1/3 endpoint ports.
  EXPECT_EQ(topo.concentration(), (topo.k_net() + 1) / 2);
  EXPECT_EQ(topo.num_endpoints(), topo.concentration() * 2 * q * q);
  double network_fraction = static_cast<double>(topo.k_net()) /
                            (topo.k_net() + topo.concentration());
  EXPECT_NEAR(network_fraction, 2.0 / 3.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(SupportedQ, MmsInvariants,
                         ::testing::Values(3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19));

TEST(Mms, AdjacencyFollowsEquations) {
  // Every router pair is adjacent exactly when Eq. (1), (2) or (3) of
  // Section II-B holds, evaluated on a field of our own. q = 5 and 9 have
  // delta = +1, 7 has delta = -1, 8 has delta = 0; 8 = 2^3 and 9 = 3^2
  // exercise extension-field arithmetic.
  for (int q : {5, 7, 8, 9}) {
    SCOPED_TRACE("q=" + std::to_string(q));
    SlimFlyMMS topo(q);
    const gf::Field field(q);
    const auto in = [](const std::vector<int>& set, int e) {
      return std::find(set.begin(), set.end(), e) != set.end();
    };
    const auto equations_hold = [&](int u, int v) {
      const int s1 = topo.subgraph_of(u), s2 = topo.subgraph_of(v);
      const int a1 = topo.x_of(u), b1 = topo.y_of(u);
      const int a2 = topo.x_of(v), b2 = topo.y_of(v);
      if (s1 == 0 && s2 == 0) {  // Eq. (1): y - y' in X
        return a1 == a2 && in(topo.generators().x, field.sub(b1, b2));
      }
      if (s1 == 1 && s2 == 1) {  // Eq. (2): c - c' in X'
        return a1 == a2 && in(topo.generators().xprime, field.sub(b1, b2));
      }
      // Eq. (3): (0, x, y) ~ (1, m, c) iff y = m x + c.
      const int x = s1 == 0 ? a1 : a2, y = s1 == 0 ? b1 : b2;
      const int m = s1 == 0 ? a2 : a1, c = s1 == 0 ? b2 : b1;
      return y == field.add(field.mul(m, x), c);
    };
    const Graph& g = topo.graph();
    for (int u = 0; u < topo.num_routers(); ++u) {
      for (int v = 0; v < topo.num_routers(); ++v) {
        if (u == v) continue;
        ASSERT_EQ(g.has_edge(u, v), equations_hold(u, v)) << u << "," << v;
      }
    }
  }
}

TEST(Mms, HoffmanSingletonForQ5) {
  // q = 5 yields the Hoffman-Singleton graph: 50 vertices, 7-regular,
  // 175 edges, diameter 2, girth 5 (no triangles or 4-cycles).
  SlimFlyMMS topo(5);
  const Graph& g = topo.graph();
  EXPECT_EQ(g.num_vertices(), 50);
  EXPECT_EQ(g.num_edges(), 175);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 7);
  EXPECT_EQ(analysis::diameter(g), 2);
  // Moore graph property: any two adjacent vertices share no common
  // neighbour (girth 5), any two non-adjacent share exactly one.
  for (int u = 0; u < 50; ++u) {
    for (int v = u + 1; v < 50; ++v) {
      int common = 0;
      for (int w : g.neighbors(u)) {
        if (g.has_edge(w, v)) ++common;
      }
      if (g.has_edge(u, v)) {
        EXPECT_EQ(common, 0) << u << "," << v;
      } else {
        EXPECT_EQ(common, 1) << u << "," << v;
      }
    }
  }
}

TEST(Mms, CrossSubgraphPairsHaveUniqueCommonNeighbor) {
  // Structural property used in the diameter-2 proof: routers (0,x,y) and
  // (0,x',y') with x != x' have exactly one common neighbour, (1,m,c).
  SlimFlyMMS topo(7);
  const Graph& g = topo.graph();
  int q = 7;
  for (int x = 0; x < q; ++x) {
    for (int xp = x + 1; xp < q; ++xp) {
      for (int y = 0; y < q; ++y) {
        int u = topo.router_id(0, x, y);
        int v = topo.router_id(0, xp, (y + 3) % q);
        int common = 0;
        for (int w : g.neighbors(u)) {
          if (g.has_edge(w, v)) ++common;
        }
        EXPECT_EQ(common, 1) << "x=" << x << " x'=" << xp << " y=" << y;
      }
    }
  }
}

TEST(Mms, PaperFlagshipConfigQ19) {
  // The paper's running example: q=19 => N=10830, Nr=722, k'=29, p=15, k=44.
  SlimFlyMMS topo(19);
  EXPECT_EQ(topo.num_routers(), 722);
  EXPECT_EQ(topo.k_net(), 29);
  EXPECT_EQ(topo.concentration(), 15);
  EXPECT_EQ(topo.num_endpoints(), 10830);
  EXPECT_EQ(topo.router_radix(), 44);
}

TEST(Mms, OversubscribedConcentration) {
  SlimFlyMMS topo(19, 18);  // Section V-E study
  EXPECT_EQ(topo.concentration(), 18);
  EXPECT_EQ(topo.num_endpoints(), 12996);
}

TEST(Mms, RejectsInvalidQ) {
  EXPECT_THROW(SlimFlyMMS(2), std::invalid_argument);
  EXPECT_THROW(SlimFlyMMS(6), std::invalid_argument);
  EXPECT_THROW(SlimFlyMMS(15), std::invalid_argument);
}

TEST(Mms, RackStructure) {
  SlimFlyMMS topo(5);
  EXPECT_EQ(topo.num_racks(), 5);
  // Rack x holds subgroups (0,x,*) and (1,x,*): 2q routers.
  std::vector<int> count(5, 0);
  for (int r = 0; r < topo.num_routers(); ++r) {
    ++count[static_cast<std::size_t>(topo.rack_of_router(r))];
  }
  for (int c : count) EXPECT_EQ(c, 10);
}

TEST(Mms, RouterIdRoundTrip) {
  SlimFlyMMS topo(9);
  for (int s = 0; s < 2; ++s) {
    for (int x = 0; x < 9; ++x) {
      for (int y = 0; y < 9; ++y) {
        int r = topo.router_id(s, x, y);
        EXPECT_EQ(topo.subgraph_of(r), s);
        EXPECT_EQ(topo.x_of(r), x);
        EXPECT_EQ(topo.y_of(r), y);
      }
    }
  }
}

}  // namespace
}  // namespace slimfly::sf
