#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "sf/mms.hpp"
#include "topo/augmented.hpp"

namespace slimfly {
namespace {

TEST(Augmented, AddsRequestedPorts) {
  sf::SlimFlyMMS base(5);
  AugmentedTopology aug(base, 2);
  // Every base edge kept, about extra_ports/2 * Nr new edges.
  EXPECT_GT(aug.graph().num_edges(), base.graph().num_edges());
  std::int64_t added = aug.graph().num_edges() - base.graph().num_edges();
  EXPECT_NEAR(static_cast<double>(added), 50.0, 5.0);  // 2*50/2
  for (const auto& [u, v] : base.graph().edges()) {
    EXPECT_TRUE(aug.graph().has_edge(u, v));
  }
  EXPECT_LE(aug.graph().max_degree(), base.k_net() + 2);
}

TEST(Augmented, InheritsPackaging) {
  sf::SlimFlyMMS base(5);
  AugmentedTopology aug(base, 1);
  EXPECT_EQ(aug.num_racks(), base.num_racks());
  EXPECT_EQ(aug.concentration(), base.concentration());
  EXPECT_EQ(aug.num_endpoints(), base.num_endpoints());
  for (int r = 0; r < base.num_routers(); ++r) {
    EXPECT_EQ(aug.rack_of_router(r), base.rack_of_router(r));
  }
}

TEST(Augmented, IntraRackOnlyStaysLocal) {
  sf::SlimFlyMMS base(7);
  AugmentedTopology aug(base, 2, /*intra_rack_only=*/true);
  for (const auto& [u, v] : aug.graph().edges()) {
    if (base.graph().has_edge(u, v)) continue;  // original cable
    EXPECT_EQ(base.rack_of_router(u), base.rack_of_router(v));
  }
}

TEST(Augmented, ImprovesAverageDistance) {
  // The whole point of Section VII-A: extra random channels shorten paths.
  sf::SlimFlyMMS base(7);
  AugmentedTopology aug(base, 4);
  EXPECT_LT(analysis::average_endpoint_distance(aug),
            analysis::average_endpoint_distance(base));
  int d = analysis::diameter(aug.graph());
  EXPECT_LE(d, 2);
  EXPECT_GE(d, 2);  // not complete; -1 would mean disconnected
}

TEST(Augmented, Deterministic) {
  sf::SlimFlyMMS base(5);
  AugmentedTopology a(base, 2, false, 9);
  AugmentedTopology b(base, 2, false, 9);
  EXPECT_EQ(a.graph().edges(), b.graph().edges());
}

TEST(Augmented, RejectsZeroPorts) {
  sf::SlimFlyMMS base(5);
  EXPECT_THROW(AugmentedTopology(base, 0), std::invalid_argument);
}

}  // namespace
}  // namespace slimfly
