// Stencil and trace-replay workloads (the paper's motivating HPC patterns).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"

namespace slimfly::sim {
namespace {

TEST(Stencil3d, SendsToSixNeighbours) {
  auto t = make_stencil3d(27);  // 3x3x3 grid
  Rng rng(1);
  // Endpoint (1,1,1) = index 13: collect its 6 round-robin destinations.
  std::set<int> dsts;
  for (int i = 0; i < 6; ++i) dsts.insert(t->destination(13, rng));
  EXPECT_EQ(dsts.size(), 6u);
  // All destinations differ from 13 in exactly one coordinate by +-1 mod 3.
  for (int d : dsts) {
    int diff = 0;
    int a = 13, b = d;
    for (int dim = 0; dim < 3; ++dim) {
      int ca = a % 3, cb = b % 3;
      if (ca != cb) {
        ++diff;
        EXPECT_TRUE((ca + 1) % 3 == cb || (cb + 1) % 3 == ca);
      }
      a /= 3;
      b /= 3;
    }
    EXPECT_EQ(diff, 1);
  }
}

TEST(Stencil3d, PeriodicBoundaries) {
  auto t = make_stencil3d(8);  // 2x2x2
  Rng rng(1);
  for (int i = 0; i < 6; ++i) {
    int d = t->destination(0, rng);
    EXPECT_NE(d, 0);
    EXPECT_LT(d, 8);
  }
}

TEST(Stencil3d, ExcessEndpointsIdle) {
  auto t = make_stencil3d(30);  // grid 27, endpoints 27-29 idle
  Rng rng(1);
  for (int e = 27; e < 30; ++e) {
    EXPECT_EQ(t->destination(e, rng), -1);
    EXPECT_FALSE(t->is_active(e));
  }
  EXPECT_TRUE(t->is_active(0));
}

TEST(Stencil3d, RunsOnSlimFly) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_stencil3d(topo.num_endpoints());
  SimConfig cfg;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 500;
  auto r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.4);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.delivered, 0);
}

TEST(Trace, IncastReplayOnNetwork) {
  // All-to-one incast as a dependency trace: every 7th endpoint sends a
  // FIFO burst to endpoint 0, so one ejection port (one flit per cycle) is
  // the bottleneck. It congests but must keep moving until every message
  // lands.
  sf::SlimFlyMMS topo(5);
  const int per_source = 40;
  std::string text = "{\"trace\": \"incast\", \"endpoints\": {";
  int messages = 0;
  for (int e = 4; e < topo.num_endpoints(); e += 7) {
    text += (messages ? ", \"" : "\"") + std::to_string(e) + "\": [";
    for (int k = 0; k < per_source; ++k) {
      text += k ? ", {\"dst\": 0}" : "{\"dst\": 0}";
    }
    text += "]";
    messages += per_source;
  }
  text += "}}";
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_dependency_replay(
      topo.num_endpoints(), parse_workload_trace(text, "incast"), "trace");
  SimConfig cfg;
  cfg.warmup_cycles = 0;  // every message is measured, so run() drains all
  cfg.measure_cycles = 400;
  cfg.drain_cycles = 3000;
  auto r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.3);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.delivered, messages);
  EXPECT_GE(r.cycles, messages);  // one ejection port drains them all
}

}  // namespace
}  // namespace slimfly::sim
