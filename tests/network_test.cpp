// Cycle simulator: conservation (no packet loss), credit safety, zero-load
// latency sanity, throughput monotonicity, and deadlock freedom under
// adversarial load.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"

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

/// A broken source routing: either one port past the source router's
/// network ports, or an empty route (eject at the source router).
class BrokenRouting : public PathFollowingRouting {
 public:
  BrokenRouting(const Topology& topo, bool empty_route)
      : topo_(topo), empty_route_(empty_route) {}
  std::string name() const override { return "broken"; }
  int max_hops() const override { return 1; }
  void route_at_injection(Network& net, Packet& pkt, Rng& rng) override {
    (void)net;
    (void)rng;
    pkt.path.clear();
    if (!empty_route_) {
      pkt.path.push_back(topo_.graph().degree(topo_.endpoint_router(pkt.src_endpoint)));
    }
  }

 private:
  const Topology& topo_;
  bool empty_route_;
};

TEST(Network, BrokenRouteThrowsNamedError) {
  sf::SlimFlyMMS topo(5);  // 7 network ports per router
  auto traffic = make_uniform(topo.num_endpoints());
  for (bool empty_route : {false, true}) {
    BrokenRouting routing(topo, empty_route);
    const std::string want = empty_route ? "head_decision: packet ejects at router"
                                         : "head_decision: port 7 out of range";
    for (int threads : {1, 2}) {
      SCOPED_TRACE(want + " threads=" + std::to_string(threads));
      SimConfig cfg = quick_config();
      cfg.intra_threads = threads;
      Network net(topo, routing, *traffic, cfg, 0.5);
      try {
        for (int c = 0; c < 100; ++c) net.step();
        FAIL() << "no error within 100 cycles";
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace slimfly::sim
