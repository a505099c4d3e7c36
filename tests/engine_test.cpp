// Stepping-mode equivalence and choice. The active mode (active-set
// scheduling + idle fast-forward) is a pure wall-time optimization — every
// simulation it runs must be bit-identical to the full scan's, across
// routings (including per-hop adaptive FT-ANCA), traffic patterns,
// saturation, and every intra-thread worker count. Only the cycles-stepped
// audit counter may differ, and only downward. The tests force each mode
// through SimConfig::engine; the last group checks which mode the Network
// picks on its own.

#include <gtest/gtest.h>

#include <string>

#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"

namespace slimfly::sim {
namespace {

SimConfig quick_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 400;
  cfg.drain_cycles = 4000;
  cfg.seed = 11;
  return cfg;
}

void expect_same_result(const SimResult& a, const SimResult& b,
                        const std::string& what) {
  // Byte-identical, not approximately equal: the engine knob promises the
  // stepping strategy cannot leak into the simulation.
  EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  EXPECT_EQ(a.accepted_load, b.accepted_load) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.flit_hops, b.flit_hops) << what;
}

SimResult run_point(const Topology& topo, RoutingKind kind, double load,
                    StepEngine engine, int intra_threads = 1,
                    SimConfig cfg = quick_config()) {
  auto bundle = make_routing(kind, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  cfg.engine = engine;
  cfg.intra_threads = intra_threads;
  return simulate(topo, *bundle.algorithm, *traffic, cfg, load);
}

TEST(Engine, EveryRoutingBitIdenticalAcrossEngines) {
  sf::SlimFlyMMS sf(5);
  for (RoutingKind kind : {RoutingKind::Minimal, RoutingKind::Valiant,
                           RoutingKind::UgalL, RoutingKind::UgalG}) {
    for (double load : {0.1, 0.4}) {
      SimResult cycle = run_point(sf, kind, load, StepEngine::Cycle);
      SimResult active = run_point(sf, kind, load, StepEngine::Active);
      expect_same_result(cycle, active,
                         to_string(kind) + " load=" + std::to_string(load));
      // The cycle engine steps every cycle by definition; the active engine
      // may step fewer, never more.
      EXPECT_EQ(cycle.cycles_stepped, cycle.cycles);
      EXPECT_LE(active.cycles_stepped, active.cycles);
    }
  }
}

TEST(Engine, PerHopAdaptiveRoutingBitIdentical) {
  // FT-ANCA reads queue estimates during allocation; a missed wake would
  // surface as a stale estimate on a sleeping router and diverging ports.
  FatTree3 ft(4);
  expect_same_result(run_point(ft, RoutingKind::FatTreeAnca, 0.3,
                               StepEngine::Cycle),
                     run_point(ft, RoutingKind::FatTreeAnca, 0.3,
                               StepEngine::Active),
                     "FT-ANCA");
}

TEST(Engine, SaturatedWorstCaseBitIdentical) {
  // Past saturation every router is live every cycle — the active set is
  // the whole network, so this is the adversarial case for busy-mask and
  // wake bookkeeping (any router wrongly put to sleep changes results).
  sf::SlimFlyMMS sf(5);
  SimConfig cfg = quick_config();
  cfg.drain_cycles = 800;
  auto run_at = [&](StepEngine engine) {
    auto bundle = make_routing(RoutingKind::Minimal, sf);
    auto traffic = make_worst_case_sf(sf);
    SimConfig c = cfg;
    c.engine = engine;
    return simulate(sf, *bundle.algorithm, *traffic, c, 0.9);
  };
  SimResult cycle = run_at(StepEngine::Cycle);
  EXPECT_TRUE(cycle.saturated);
  expect_same_result(cycle, run_at(StepEngine::Active), "saturated");
}

TEST(Engine, ActiveEngineBitIdenticalAcrossIntraThreadCounts) {
  // The active engine composes with router-parallel stepping: per-shard
  // wake wheels and far heaps plus cross-shard wake outboxes must keep the
  // full engine x worker-count matrix on one trajectory. Two configs move
  // wakes off the default path: a 70-cycle wire puts every flit and
  // delivery wake 64 or more cycles ahead, past the wheel, so line events
  // take the far heap (and, at intra > 1, the outboxes into it); and
  // credit_delay = 0 files each credit wake for the current cycle, whose
  // wheel slot is already consumed — it must still wake the next cycle, or
  // UGAL-G's remote queue reads see a stale credit count.
  sf::SlimFlyMMS sf(5);
  SimConfig far = quick_config();
  far.channel_latency = 70;
  SimConfig zero_credit = quick_config();
  zero_credit.credit_delay = 0;
  struct Case {
    SimConfig cfg;
    RoutingKind kind;
    double load;
    std::string what;
  };
  for (const Case& c :
       {Case{quick_config(), RoutingKind::UgalL, 0.3, "default"},
        Case{far, RoutingKind::Minimal, 0.1, "channel_latency=70"},
        Case{far, RoutingKind::UgalG, 0.1, "channel_latency=70"},
        Case{zero_credit, RoutingKind::Minimal, 0.1, "credit_delay=0"},
        Case{zero_credit, RoutingKind::UgalG, 0.1, "credit_delay=0"}}) {
    SimResult want =
        run_point(sf, c.kind, c.load, StepEngine::Cycle, 1, c.cfg);
    EXPECT_GT(want.delivered, 0) << c.what;
    for (int intra : {1, 2, 4}) {
      expect_same_result(want,
                         run_point(sf, c.kind, c.load, StepEngine::Active,
                                   intra, c.cfg),
                         c.what + " " + to_string(c.kind) +
                             " active intra=" + std::to_string(intra));
    }
  }
}

TEST(Engine, StepLevelStateMatchesCycleEngine) {
  // Beyond the SimResult summary: the in-flight population and delivery
  // counters agree cycle by cycle. step() always advances exactly one cycle
  // under both engines (fast-forward lives in run() only), so lock-step
  // stepping is well defined.
  sf::SlimFlyMMS sf(5);
  auto bundle_a = make_routing(RoutingKind::Minimal, sf);
  auto bundle_b = make_routing(RoutingKind::Minimal, sf);
  auto traffic_a = make_uniform(sf.num_endpoints());
  auto traffic_b = make_uniform(sf.num_endpoints());
  SimConfig cfg = quick_config();
  cfg.engine = StepEngine::Cycle;
  Network cycle(sf, *bundle_a.algorithm, *traffic_a, cfg, 0.4);
  cfg.engine = StepEngine::Active;
  Network active(sf, *bundle_b.algorithm, *traffic_b, cfg, 0.4);
  for (int c = 0; c < 300; ++c) {
    cycle.step();
    active.step();
    if (c % 25 == 0) {
      EXPECT_EQ(cycle.flits_in_flight(), active.flits_in_flight())
          << "cycle " << c;
      EXPECT_EQ(cycle.stats().total_delivered(),
                active.stats().total_delivered())
          << "cycle " << c;
    }
  }
  EXPECT_EQ(cycle.cycles_stepped(), 300);
  EXPECT_EQ(active.cycles_stepped(), 300);
}

TEST(Engine, FastForwardSkipsIdleStretchesWithoutChangingResults) {
  // A near-idle network: injections are rare enough that the whole network
  // regularly empties, so run() under the active engine must fast-forward
  // (cycles_stepped < cycles) while reproducing the cycle engine's result —
  // including the total cycle count, which stats windows hang off.
  auto topo = topo::make("torus:dims=4x4");
  auto run_at = [&](StepEngine engine) {
    auto bundle = make_routing(RoutingKind::Minimal, *topo);
    auto traffic = make_uniform(topo->num_endpoints());
    SimConfig cfg = quick_config();
    cfg.engine = engine;
    return simulate(*topo, *bundle.algorithm, *traffic, cfg, 0.005);
  };
  SimResult cycle = run_at(StepEngine::Cycle);
  SimResult active = run_at(StepEngine::Active);
  expect_same_result(cycle, active, "near-idle");
  EXPECT_GT(cycle.delivered, 0);
  EXPECT_EQ(cycle.cycles_stepped, cycle.cycles);
  EXPECT_LT(active.cycles_stepped, active.cycles)
      << "active engine never fast-forwarded a near-idle run";
}

TEST(Engine, ZeroLoadRunFastForwardsToTheEnd) {
  // load <= 0 means no endpoint ever injects: the active engine should
  // step (almost) nothing and still agree on the empty-run summary.
  sf::SlimFlyMMS sf(5);
  auto run_at = [&](StepEngine engine) {
    auto bundle = make_routing(RoutingKind::Minimal, sf);
    auto traffic = make_uniform(sf.num_endpoints());
    SimConfig cfg = quick_config();
    cfg.engine = engine;
    return simulate(sf, *bundle.algorithm, *traffic, cfg, 0.0);
  };
  SimResult cycle = run_at(StepEngine::Cycle);
  SimResult active = run_at(StepEngine::Active);
  expect_same_result(cycle, active, "zero load");
  EXPECT_EQ(cycle.delivered, 0);
  // Cycle 0 steps every router (each endpoint's first draw happens there);
  // after it nothing is ever planned, so the rest is one jump.
  EXPECT_EQ(active.cycles_stepped, 1);
}

TEST(Engine, FirstPlanInStepBitIdentical) {
  // The active mode makes its first injector plan inside cycle 0's
  // injection pass, not at construction. Cases where that pass matters:
  // arrivals at cycle 0 itself (high load, no warmup), a rate-modulated
  // stream whose first ON segment may start late, and zero load. Windowed
  // stats pin the per-100-cycle trajectory, not just the summary.
  sf::SlimFlyMMS sf(5);
  struct Case {
    std::string traffic;
    double load;
  };
  for (const Case& c :
       {Case{"uniform", 0.5},
        Case{"burst:on=40,off=2000,mult=25,base=uniform", 0.02},
        Case{"uniform", 0.0}}) {
    auto run_at = [&](StepEngine engine) {
      auto bundle = make_routing(RoutingKind::Minimal, sf);
      auto traffic = make_traffic(c.traffic, sf);
      SimConfig cfg = quick_config();
      cfg.warmup_cycles = 0;
      cfg.stats_window = 100;
      cfg.engine = engine;
      return simulate(sf, *bundle.algorithm, *traffic, cfg, c.load);
    };
    const std::string what = c.traffic + " @ " + std::to_string(c.load);
    SimResult cycle = run_at(StepEngine::Cycle);
    SimResult active = run_at(StepEngine::Active);
    expect_same_result(cycle, active, what);
    ASSERT_EQ(cycle.windows.size(), active.windows.size()) << what;
    for (std::size_t w = 0; w < cycle.windows.size(); ++w) {
      EXPECT_EQ(cycle.windows[w].generated, active.windows[w].generated)
          << what << " window " << w;
      EXPECT_EQ(cycle.windows[w].delivered, active.windows[w].delivered)
          << what << " window " << w;
      EXPECT_EQ(cycle.windows[w].latency_sum, active.windows[w].latency_sum)
          << what << " window " << w;
    }
  }
}

// ---- the Network's own choice ----------------------------------------------

StepEngine chosen_mode(const std::string& topo_spec,
                       const std::string& traffic_spec, double load) {
  auto topo = topo::make(topo_spec);
  auto bundle = make_routing(RoutingKind::Minimal, *topo);
  auto traffic = make_traffic(traffic_spec, *topo);
  SimConfig cfg;  // engine = Auto, the default
  EXPECT_EQ(cfg.engine, StepEngine::Auto);
  Network net(*topo, *bundle.algorithm, *traffic, cfg, load);
  EXPECT_EQ(net.step_engine(),
            Network::auto_step_engine(*traffic, load));
  return net.step_engine();
}

TEST(EngineChoice, BusyUniformPicksFullScan) {
  // fig06_uniform's lowest load, and a paper-scale point just past the
  // crossover.
  EXPECT_EQ(chosen_mode("slimfly:q=7", "uniform", 0.05), StepEngine::Cycle);
  EXPECT_EQ(chosen_mode("slimfly:q=19", "uniform", 0.02), StepEngine::Cycle);
}

TEST(EngineChoice, SparseTrafficPicksActiveSet) {
  EXPECT_EQ(chosen_mode("slimfly:q=7", "uniform", 0.005), StepEngine::Active);
  EXPECT_EQ(chosen_mode("slimfly:q=7", "uniform",
                        Network::kActiveRateThreshold),
            StepEngine::Active);
  // The burst rate is load x mult x on/(on+off): 0.02 x 25 x 40/2040 is
  // just under the threshold, though the load alone is above it.
  EXPECT_EQ(chosen_mode("slimfly:q=7",
                        "burst:on=40,off=2000,mult=25,base=uniform", 0.02),
            StepEngine::Active);
  EXPECT_EQ(chosen_mode("slimfly:q=7",
                        "burst:on=60,off=240,mult=5,base=uniform", 0.1),
            StepEngine::Cycle);
}

TEST(EngineChoice, SelfClockedReplayPicksActiveSet) {
  // Both allreduce series of the sparse_apps benchmark workload. Replay
  // ignores the load, so even a high one keeps the active set.
  EXPECT_EQ(chosen_mode("slimfly:q=19", "allreduce:ranks=2048,algo=ring", 0.02),
            StepEngine::Active);
  EXPECT_EQ(chosen_mode("slimfly:q=19", "allreduce:ranks=8192,algo=tree", 0.02),
            StepEngine::Active);
  EXPECT_EQ(chosen_mode("slimfly:q=5", "allreduce:ranks=64,algo=ring", 0.9),
            StepEngine::Active);
}

TEST(EngineChoice, MeanRateMultiplier) {
  sf::SlimFlyMMS sf(5);
  EXPECT_EQ(make_uniform(sf.num_endpoints())->mean_rate_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(
      make_traffic("burst:on=60,off=240,mult=5,base=uniform", sf)
          ->mean_rate_multiplier(),
      5.0 * 60.0 / 300.0);
  // Wrappers compose: hotspot over burst keeps the burst's duty cycle.
  EXPECT_DOUBLE_EQ(
      make_traffic("hotspot:frac=0.05,heat=8,base=burst:on=50;off=450;mult=10",
                   sf)
          ->mean_rate_multiplier(),
      10.0 * 50.0 / 500.0);
}

}  // namespace
}  // namespace slimfly::sim
