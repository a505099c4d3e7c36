// Cycle simulator: conservation (no packet loss), credit safety, zero-load
// latency sanity, throughput monotonicity, and deadlock freedom under
// adversarial load.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/torus.hpp"

namespace slimfly::sim {
namespace {

SimConfig quick_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 20000;
  return cfg;
}

TEST(Network, ZeroLoadLatencyMatchesPipelineModel) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  SimConfig cfg = quick_config();
  SimResult r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.01);
  EXPECT_FALSE(r.saturated);
  // Diameter 2 => at most 3 router traversals (src, via, dst) plus
  // injection/ejection; per hop latency = channel(1) + pipeline(2). At
  // 1% load queueing is negligible: latency must be a small constant.
  EXPECT_GT(r.avg_latency, 3.0);
  EXPECT_LT(r.avg_latency, 20.0);
}

TEST(Network, AllMeasuredPacketsDeliveredAtLowLoad) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  Network net(topo, *routing.algorithm, *traffic, quick_config(), 0.2);
  SimResult r = net.run();
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(net.stats().measured_delivered(), net.stats().measured_generated());
  // Injection keeps running during drain, so the network holds a bounded
  // steady-state population (~ N * load * latency), far from capacity.
  EXPECT_LT(net.flits_in_flight(), 10 * topo.num_endpoints());
}

TEST(Network, AcceptedTracksOfferedBelowSaturation) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  SimConfig cfg = quick_config();
  SimResult r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.3);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.accepted_load, 0.3, 0.05);
}

TEST(Network, LatencyIncreasesWithLoad) {
  exp::ExperimentSpec spec;
  spec.name = "monotone";
  spec.loads = {0.1, 0.5, 0.8};
  spec.config = quick_config();
  spec.truncate_at_saturation = false;
  spec.series = {{"slimfly:q=5", "MIN", "uniform", "SF-MIN"}};
  exp::ExperimentEngine engine(1);
  auto points = engine.run(spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LE(points[0].result.avg_latency, points[1].result.avg_latency);
  EXPECT_LE(points[1].result.avg_latency, points[2].result.avg_latency * 1.05);
}

TEST(Network, ValiantPathsAreLonger) {
  sf::SlimFlyMMS topo(5);
  auto min_routing = make_routing(RoutingKind::Minimal, topo);
  auto val_routing = make_routing(RoutingKind::Valiant, topo);
  auto traffic_a = make_uniform(topo.num_endpoints());
  auto traffic_b = make_uniform(topo.num_endpoints());
  SimConfig cfg = quick_config();
  SimResult rmin = simulate(topo, *min_routing.algorithm, *traffic_a, cfg, 0.05);
  SimResult rval = simulate(topo, *val_routing.algorithm, *traffic_b, cfg, 0.05);
  EXPECT_GT(rval.avg_latency, rmin.avg_latency);
}

TEST(Network, UgalRunsOnSlimFly) {
  sf::SlimFlyMMS topo(5);
  for (RoutingKind kind : {RoutingKind::UgalL, RoutingKind::UgalG}) {
    auto routing = make_routing(kind, topo);
    auto traffic = make_uniform(topo.num_endpoints());
    SimResult r = simulate(topo, *routing.algorithm, *traffic, quick_config(), 0.2);
    EXPECT_FALSE(r.saturated) << to_string(kind);
    EXPECT_GT(r.delivered, 0) << to_string(kind);
  }
}

TEST(Network, DragonflyUgalRuns) {
  auto df = Dragonfly::balanced(2);  // a=4, h=2, g=9, Nr=36, N=72
  auto routing = make_routing(RoutingKind::DragonflyUgalL, *df);
  auto traffic = make_uniform(df->num_endpoints());
  SimResult r = simulate(*df, *routing.algorithm, *traffic, quick_config(), 0.2);
  EXPECT_FALSE(r.saturated);
}

TEST(Network, FatTreeAncaRuns) {
  FatTree3 ft(4);  // paper-slim: 4 pods, N=64
  auto routing = make_routing(RoutingKind::FatTreeAnca, ft);
  auto traffic = make_uniform(ft.num_endpoints());
  SimResult r = simulate(ft, *routing.algorithm, *traffic, quick_config(), 0.3);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.accepted_load, 0.3, 0.05);
}

TEST(Network, NoDeadlockUnderAdversarialOverload) {
  // Overloaded worst-case traffic with minimal routing: the network must
  // saturate (report it) but keep delivering packets — VC ordering makes
  // deadlock impossible.
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_worst_case_sf(topo);
  SimConfig cfg = quick_config();
  cfg.drain_cycles = 2000;
  SimResult r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.9);
  EXPECT_TRUE(r.saturated);
  EXPECT_GT(r.delivered, 0);
}

TEST(Network, RejectsTooFewVcs) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Valiant, topo);  // needs 4 VCs
  auto traffic = make_uniform(topo.num_endpoints());
  SimConfig cfg = quick_config();
  cfg.num_vcs = 1;
  EXPECT_THROW(Network(topo, *routing.algorithm, *traffic, cfg, 0.1),
               std::invalid_argument);
}

TEST(Network, PortOfNeighborInverse) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  Network net(topo, *routing.algorithm, *traffic, quick_config(), 0.0);
  const Graph& g = topo.graph();
  for (int r = 0; r < topo.num_routers(); r += 7) {
    const auto& nbrs = g.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      EXPECT_EQ(net.port_of_neighbor(r, nbrs[static_cast<std::size_t>(i)]), i);
    }
  }
  EXPECT_THROW(net.port_of_neighbor(0, 0), std::invalid_argument);
  // Out-of-range ids throw the same named error, never an OOB read.
  EXPECT_THROW(net.port_of_neighbor(-1, 0), std::invalid_argument);
  EXPECT_THROW(net.port_of_neighbor(0, topo.num_routers()),
               std::invalid_argument);
}

TEST(Network, PortOfNeighborSparseFallbackAboveDenseLimit) {
  // Above kDenseNeighborPortLimit routers the dense table is skipped and
  // lookups binary-search the adjacency list — same answers, same errors.
  Torus topo({13, 13, 13});  // 2197 routers > 2048
  ASSERT_GT(topo.num_routers(), Network::kDenseNeighborPortLimit);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  SimConfig cfg = quick_config();
  cfg.num_vcs = routing.algorithm->max_hops();  // diameter 18 on this torus
  Network net(topo, *routing.algorithm, *traffic, cfg, 0.0);
  const Graph& g = topo.graph();
  for (int r = 0; r < topo.num_routers(); r += 97) {
    const auto& nbrs = g.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      EXPECT_EQ(net.port_of_neighbor(r, nbrs[static_cast<std::size_t>(i)]), i);
    }
  }
  EXPECT_THROW(net.port_of_neighbor(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace slimfly::sim
