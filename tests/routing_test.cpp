// Routing algorithms in isolation: path validity, length bounds, and the
// distance table they share. Paths are port paths (one adjacency index per
// hop); expand() turns one back into the routers it visits.

#include <gtest/gtest.h>

#include <set>

#include "sf/mms.hpp"
#include "sim/network.hpp"
#include "sim/routing/dragonfly_routing.hpp"
#include "sim/routing/minimal.hpp"
#include "sim/routing/oracle.hpp"
#include "sim/routing/ugal.hpp"
#include "sim/routing/valiant.hpp"
#include "sim/simulation.hpp"
#include "topo/dragonfly.hpp"
#include "topo/hypercube.hpp"
#include "topo/registry.hpp"

namespace slimfly::sim {
namespace {

/// Routers visited by the port path `path` from router `src` (src first).
/// Each port indexes the current router's sorted adjacency list, so the
/// expansion is a walk by construction; a port outside that list fails
/// the test and ends the expansion.
std::vector<int> expand(const Graph& g, int src, const InlinePath& path) {
  std::vector<int> routers{src};
  for (std::size_t i = 0; i < path.size(); ++i) {
    const std::vector<int>& nbrs = g.neighbors(routers.back());
    const auto port = static_cast<std::size_t>(path[i]);
    if (port >= nbrs.size()) {
      ADD_FAILURE() << "hop " << i << ": port " << port << " out of range at router "
                    << routers.back();
      break;
    }
    routers.push_back(nbrs[port]);
  }
  return routers;
}

TEST(DistanceTable, MatchesBfsOnSlimFly) {
  sf::SlimFlyMMS topo(5);
  DistanceTable dt(topo.graph());
  EXPECT_EQ(dt.diameter(), 2);
  for (int u = 0; u < 50; u += 3) {
    for (int v = 0; v < 50; v += 7) {
      if (u == v) {
        EXPECT_EQ(dt.dist(u, v), 0);
      } else if (topo.graph().has_edge(u, v)) {
        EXPECT_EQ(dt.dist(u, v), 1);
      } else {
        EXPECT_EQ(dt.dist(u, v), 2);
      }
    }
  }
}

TEST(DistanceTable, DisconnectedThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_THROW(DistanceTable{g}, std::invalid_argument);
}

TEST(DistanceTable, SampledPathsAreMinimalWalks) {
  Hypercube hc(5);
  DistanceTable dt(hc.graph());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    int u = rng.next_int(0, 31), v = rng.next_int(0, 31);
    InlinePath path;
    dt.sample_minimal_path(hc.graph(), u, v, rng, path);
    EXPECT_EQ(static_cast<int>(path.size()), dt.dist(u, v));
    EXPECT_EQ(expand(hc.graph(), u, path).back(), v);
  }
}

TEST(DistanceTable, SamplingCoversAllMinimalNextHops) {
  // From any SF router there are multiple minimal paths to a distance-2
  // target through distinct common neighbours only when they exist; for the
  // Hoffman-Singleton graph the common neighbour is unique, so the sampled
  // intermediate must be constant. Use the hypercube instead for diversity.
  Hypercube hc(4);
  DistanceTable dt(hc.graph());
  Rng rng(3);
  int u = 0, v = 3;  // distance 2, two minimal intermediates: 1 and 2
  std::set<int> intermediates;
  for (int t = 0; t < 100; ++t) {
    InlinePath path;
    dt.sample_minimal_path(hc.graph(), u, v, rng, path);
    ASSERT_EQ(path.size(), 2u);
    intermediates.insert(expand(hc.graph(), u, path)[1]);
  }
  EXPECT_EQ(intermediates.size(), 2u);
}

class RoutingPaths : public ::testing::Test {
 protected:
  RoutingPaths()
      : topo_(7),
        bundle_(make_routing(RoutingKind::Minimal, topo_)),
        traffic_(make_uniform(topo_.num_endpoints())),
        net_(topo_, *bundle_.algorithm, *traffic_, SimConfig{}, 0.0) {}

  Packet make_pkt(int src_ep, int dst_ep) {
    Packet p;
    p.src_endpoint = src_ep;
    p.dst_endpoint = dst_ep;
    p.dst_router =
        static_cast<std::uint16_t>(topo_.endpoint_router(dst_ep));
    return p;
  }

  int src_router_of(const Packet& p) const {
    return topo_.endpoint_router(p.src_endpoint);
  }

  sf::SlimFlyMMS topo_;
  RoutingBundle bundle_;
  std::unique_ptr<TrafficPattern> traffic_;
  Network net_;
};

TEST_F(RoutingPaths, UgalChoosesMinimalAtZeroLoad) {
  // With all queues empty, UGAL's cost reduces to hop count: it must pick
  // the minimal path.
  UgalRouting routing(topo_, *bundle_.distances, UgalMode::Local);
  Rng rng(4);
  for (int t = 0; t < 200; ++t) {
    Packet p = make_pkt(5, rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_EQ(static_cast<int>(p.path.size()),
              bundle_.distances->dist(src_router_of(p), p.dst_router));
  }
}

TEST_F(RoutingPaths, UgalGlobalChoosesMinimalAtZeroLoad) {
  UgalRouting routing(topo_, *bundle_.distances, UgalMode::Global);
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    Packet p = make_pkt(9, rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_EQ(static_cast<int>(p.path.size()),
              bundle_.distances->dist(src_router_of(p), p.dst_router));
  }
}

TEST(RoutingPorts, PathsExpandToWalksEndingAtDestination) {
  // Every source-routed algorithm writes ports from the source router:
  // expanded from endpoint_router(src), the path must reach dst_router
  // within the algorithm's hop bound (Section IV: 2 hops minimal, 4
  // Valiant/UGAL on Slim Fly, 3 for the paper's hop-limited Valiant, 6 for
  // group-Valiant on a Dragonfly).
  struct Case {
    const char* topo;
    const char* routing;
    int bound;
  };
  for (const Case& c : {Case{"slimfly:q=5", "MIN", 2}, Case{"slimfly:q=5", "VAL", 4},
                        Case{"slimfly:q=5", "VAL:hoplimit=3", 3},
                        Case{"slimfly:q=5", "UGAL-L", 4},
                        Case{"slimfly:q=5", "UGAL-G", 4},
                        Case{"dragonfly:p=2,a=4,h=2,g=9", "DF-UGAL-L", 6}}) {
    SCOPED_TRACE(std::string(c.topo) + " " + c.routing);
    auto topo = topo::make(c.topo);
    auto bundle = make_routing_spec(c.routing, *topo);
    ASSERT_EQ(bundle.algorithm->max_hops(), c.bound);
    auto traffic = make_uniform(topo->num_endpoints());
    SimConfig cfg;
    cfg.num_vcs = c.bound;
    Network net(*topo, *bundle.algorithm, *traffic, cfg, 0.0);
    Rng rng(11);
    for (int t = 0; t < 300; ++t) {
      Packet p;
      p.src_endpoint = rng.next_int(0, topo->num_endpoints() - 1);
      p.dst_endpoint = rng.next_int(0, topo->num_endpoints() - 1);
      p.dst_router = static_cast<std::uint16_t>(topo->endpoint_router(p.dst_endpoint));
      bundle.algorithm->route_at_injection(net, p, rng);
      const int src = topo->endpoint_router(p.src_endpoint);
      const std::vector<int> walk = expand(topo->graph(), src, p.path);
      EXPECT_EQ(walk.size(), p.path.size() + 1);
      EXPECT_EQ(walk.back(), p.dst_router);
      EXPECT_LE(static_cast<int>(p.path.size()), bundle.algorithm->max_hops());
    }
  }
}

TEST(DragonflySampler, PathsStayValid) {
  auto df = Dragonfly::balanced(2);
  DistanceTable dt(df->graph());
  auto sampler = dragonfly_group_sampler(*df, dt);
  Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    int src = rng.next_int(0, df->num_routers() - 1);
    int dst = rng.next_int(0, df->num_routers() - 1);
    InlinePath path;
    sampler(src, dst, rng, path);
    EXPECT_EQ(expand(df->graph(), src, path).back(), dst);
    EXPECT_LE(path.size(), 6u);  // <= 6 links for group-Valiant
  }
}

TEST(InlinePathLimits, OverflowThrowsNamedError) {
  InlinePath p;
  for (int i = 0; i < InlinePath::kMaxHops; ++i) p.push_back(i);
  EXPECT_EQ(p.size(), 14u);  // VAL:hoplimit's retry loop relies on this bound
  EXPECT_THROW(p.push_back(1), PathOverflowError);
  // Ports are stored as uint16; anything wider is a named error, not
  // silent truncation.
  InlinePath q;
  EXPECT_THROW(q.push_back(70000), PathOverflowError);
  EXPECT_THROW(q.push_back(-1), PathOverflowError);
}

TEST(RoutingBase, NextPortFollowsPath) {
  sf::SlimFlyMMS topo(5);
  auto bundle = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  Network net(topo, *bundle.algorithm, *traffic, SimConfig{}, 0.0);
  Packet p;
  p.path = {3, 0, 6};
  const int router = 0;  // the default ignores the router: the path decides
  p.hop = 0;
  EXPECT_EQ(bundle.algorithm->next_port(net, p, router), 3);
  p.hop = 1;
  EXPECT_EQ(bundle.algorithm->next_port(net, p, router), 0);
  p.hop = 2;
  EXPECT_EQ(bundle.algorithm->next_port(net, p, router), 6);
  p.hop = 3;  // every hop taken: eject
  EXPECT_EQ(bundle.algorithm->next_port(net, p, router), -1);
  p.path.clear();  // src == dst: eject at once
  p.hop = 0;
  EXPECT_EQ(bundle.algorithm->next_port(net, p, router), -1);
}

TEST(OracleBitIdentity, SimulateByteIdenticalUnderTableAndFamilyOracles) {
  // One simulated point per (topology, routing) cell, run twice: once with
  // the dense table, once with the per-family oracle. Every stats field
  // must be byte-identical — the oracle is a memory knob, never a result
  // knob. VAL and the UGAL pair consume RNG inside sample_minimal_path, so
  // a single extra (or missing) draw anywhere would cascade into every
  // field here.
  SimConfig cfg;
  cfg.warmup_cycles = 150;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 3000;
  cfg.seed = 23;
  for (const std::string& spec :
       {std::string("slimfly:q=5"), std::string("torus:dims=4x4"),
        std::string("hypercube:n=6"), std::string("dln:n=36,k=6,p=2,seed=3")}) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    for (const char* routing : {"MIN", "VAL", "UGAL-L", "UGAL-G"}) {
      SCOPED_TRACE(routing);
      auto run_with = [&](OracleMode mode) {
        auto bundle = make_routing_spec(
            routing, *topo, make_distance_oracle(*topo, mode));
        auto traffic = make_uniform(topo->num_endpoints());
        return simulate(*topo, *bundle.algorithm, *traffic, cfg, 0.3);
      };
      const SimResult a = run_with(OracleMode::Table);
      const SimResult b = run_with(OracleMode::Family);
      EXPECT_EQ(a.avg_latency, b.avg_latency);
      EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
      EXPECT_EQ(a.p99_latency, b.p99_latency);
      EXPECT_EQ(a.accepted_load, b.accepted_load);
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_EQ(a.saturated, b.saturated);
    }
  }
}

TEST(RoutingFactory, TypeChecks) {
  sf::SlimFlyMMS topo(5);
  EXPECT_THROW(make_routing(RoutingKind::DragonflyUgalL, topo),
               std::invalid_argument);
  EXPECT_THROW(make_routing(RoutingKind::FatTreeAnca, topo),
               std::invalid_argument);
}

}  // namespace
}  // namespace slimfly::sim
