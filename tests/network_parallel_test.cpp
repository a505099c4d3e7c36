// Router-parallel stepping: bit-identical results for any intra-point
// worker count, across routings (including per-hop adaptive FT-ANCA),
// scheduling modes, and a saturated network where a phase-ordering race
// would surface as reordered allocations.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
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
  // Byte-identical, not approximately equal: the phase/thread-safety
  // contract promises the worker count cannot leak into the simulation.
  EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  EXPECT_EQ(a.accepted_load, b.accepted_load) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
}

SimResult run_point(const Topology& topo, RoutingKind kind, double load,
                    int intra_threads, TrafficPattern* traffic = nullptr) {
  auto bundle = make_routing(kind, topo);
  std::unique_ptr<TrafficPattern> owned;
  if (!traffic) owned = make_uniform(topo.num_endpoints());
  SimConfig cfg = quick_config();
  cfg.intra_threads = intra_threads;
  return simulate(topo, *bundle.algorithm, traffic ? *traffic : *owned, cfg,
                  load);
}

TEST(NetworkParallel, EveryRoutingBitIdenticalAcrossIntraThreadCounts) {
  sf::SlimFlyMMS sf(5);
  for (RoutingKind kind : {RoutingKind::Minimal, RoutingKind::Valiant,
                           RoutingKind::UgalL, RoutingKind::UgalG}) {
    SimResult sequential = run_point(sf, kind, 0.3, 1);
    for (int intra : {2, 4, 7}) {
      expect_same_result(sequential, run_point(sf, kind, 0.3, intra),
                         to_string(kind) + " intra=" + std::to_string(intra));
    }
  }
}

TEST(NetworkParallel, PerHopAdaptiveRoutingBitIdentical) {
  // FT-ANCA picks output ports from queue estimates during the allocation
  // phase — the contract's "own router only" read; a violation would show
  // up here as diverging port choices under sharding.
  FatTree3 ft(4);
  SimResult sequential = run_point(ft, RoutingKind::FatTreeAnca, 0.3, 1);
  for (int intra : {2, 4}) {
    expect_same_result(sequential,
                       run_point(ft, RoutingKind::FatTreeAnca, 0.3, intra),
                       "FT-ANCA intra=" + std::to_string(intra));
  }
}

TEST(NetworkParallel, SaturatedNetworkBitIdentical) {
  // Past saturation every buffer is contended and every cycle allocates at
  // nearly every router, so any phase-ordering race (a shard reading state
  // another shard already advanced) changes results with high probability.
  sf::SlimFlyMMS sf(5);
  auto make_traffic = [&] { return make_worst_case_sf(sf); };
  SimConfig cfg = quick_config();
  cfg.drain_cycles = 800;
  auto run_at = [&](int intra) {
    auto bundle = make_routing(RoutingKind::Minimal, sf);
    auto traffic = make_traffic();
    SimConfig c = cfg;
    c.intra_threads = intra;
    return simulate(sf, *bundle.algorithm, *traffic, c, 0.9);
  };
  SimResult sequential = run_at(1);
  EXPECT_TRUE(sequential.saturated);
  for (int intra : {2, 4}) {
    expect_same_result(sequential, run_at(intra),
                       "saturated intra=" + std::to_string(intra));
  }
}

TEST(NetworkParallel, StepLevelStateMatchesSequential) {
  // Beyond the SimResult summary: the full in-flight population and the
  // delivery counters agree cycle by cycle.
  sf::SlimFlyMMS sf(5);
  auto bundle_a = make_routing(RoutingKind::Minimal, sf);
  auto bundle_b = make_routing(RoutingKind::Minimal, sf);
  auto traffic_a = make_uniform(sf.num_endpoints());
  auto traffic_b = make_uniform(sf.num_endpoints());
  SimConfig cfg = quick_config();
  cfg.intra_threads = 1;
  Network sequential(sf, *bundle_a.algorithm, *traffic_a, cfg, 0.4);
  cfg.intra_threads = 4;
  Network sharded(sf, *bundle_b.algorithm, *traffic_b, cfg, 0.4);
  EXPECT_EQ(sharded.intra_threads(), 4u);
  for (int cycle = 0; cycle < 300; ++cycle) {
    sequential.step();
    sharded.step();
    if (cycle % 50 == 0) {
      EXPECT_EQ(sequential.flits_in_flight(), sharded.flits_in_flight())
          << "cycle " << cycle;
      EXPECT_EQ(sequential.stats().total_delivered(),
                sharded.stats().total_delivered())
          << "cycle " << cycle;
    }
  }
}

TEST(NetworkParallel, IntraThreadsResolution) {
  sf::SlimFlyMMS sf(5);  // 50 routers
  auto bundle = make_routing(RoutingKind::Minimal, sf);
  auto traffic = make_uniform(sf.num_endpoints());
  SimConfig cfg = quick_config();
  cfg.intra_threads = 1;
  EXPECT_EQ(Network(sf, *bundle.algorithm, *traffic, cfg, 0.1).intra_threads(),
            1u);
  cfg.intra_threads = 4096;  // capped by router count
  EXPECT_EQ(Network(sf, *bundle.algorithm, *traffic, cfg, 0.1).intra_threads(),
            50u);
  cfg.intra_threads = 0;  // values below 1 mean sequential
  EXPECT_EQ(Network(sf, *bundle.algorithm, *traffic, cfg, 0.1).intra_threads(),
            1u);
  cfg.intra_threads = -3;
  EXPECT_EQ(Network(sf, *bundle.algorithm, *traffic, cfg, 0.1).intra_threads(),
            1u);
}

TEST(NetworkParallel, EngineSchedulingModesBitIdentical) {
  // Each spec through every engine split the worker budget reaches — one
  // worker, four across-point runners, one runner per point with a spare
  // worker the first polling point claims, and one runner per point with
  // a team of two each — all byte-identical, with teams growing as
  // runners drain. The second spec saturates mid-series with truncation
  // on, so every schedule must also keep the same prefix of each series.
  exp::ExperimentSpec busy;
  busy.name = "sched";
  busy.loads = {0.1, 0.4};
  busy.config = quick_config();
  busy.series = {{"slimfly:q=5", "UGAL-L", "uniform", "SF"},
                 {"fattree:k=4", "FT-ANCA", "uniform", "FT"}};
  exp::ExperimentSpec saturating;
  saturating.name = "truncate";
  saturating.loads = {0.1, 0.3, 0.5, 0.7, 0.9};
  saturating.config = quick_config();
  saturating.truncate_at_saturation = true;
  saturating.series = {{"slimfly:q=5", "VAL", "uniform", "SF-VAL"},
                       {"slimfly:q=5", "MIN", "worst-sf", "SF-MIN-worst"}};

  struct Schedule {
    std::size_t threads;
    const char* what;
  };
  auto run = [](const exp::ExperimentSpec& spec, const Schedule& sched) {
    exp::ExperimentEngine engine(sched.threads);
    return engine.run(spec);
  };
  for (const exp::ExperimentSpec& spec : {busy, saturating}) {
    const std::size_t points = spec.series.size() * spec.loads.size();
    const auto want = run(spec, {1, "one worker"});
    ASSERT_FALSE(want.empty());
    if (spec.name == saturating.name) {
      std::vector<std::size_t> kept(spec.series.size(), 0);
      for (const auto& r : want) ++kept[r.series_index];
      bool truncated = false;
      for (std::size_t n : kept) truncated |= n < spec.loads.size();
      ASSERT_TRUE(truncated) << "no series saturates before its last load";
    }
    for (const Schedule& sched :
         {Schedule{4, "across x4"}, Schedule{points + 1, "one spare"},
          Schedule{2 * points, "teams of 2"}}) {
      const auto got = run(spec, sched);
      const std::string what = spec.name + " " + sched.what;
      ASSERT_EQ(want.size(), got.size()) << what;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].series_index, got[i].series_index) << what;
        EXPECT_EQ(want[i].load, got[i].load) << what;
        EXPECT_EQ(want[i].seed, got[i].seed) << what;
        expect_same_result(want[i].result, got[i].result,
                           what + " point " + std::to_string(i));
      }
    }
  }
}

TEST(NetworkParallel, ExoticTopologiesBitIdenticalAcrossThreadMatrix) {
  // The Section 2 comparison families ride the topology-generic routing
  // stack; their randomized construction must not leak thread identity —
  // every worker budget, including ones above the point count (teams start
  // at 2), reproduces the single-threaded trajectory bit for bit.
  exp::ExperimentSpec spec;
  spec.name = "exotic";
  spec.loads = {0.1, 0.4};
  spec.config = quick_config();
  spec.series = {{"dln:n=36,k=6,p=2,seed=3", "UGAL-L", "uniform", "DLN"},
                 {"longhop:n=5,extra=2", "UGAL-L", "uniform", "LH"}};
  exp::ExperimentEngine base(1);
  auto want = base.run(spec);
  ASSERT_FALSE(want.empty());
  // 4 points: 4 threads run them one per worker, 8 start teams of 2.
  for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    exp::ExperimentEngine engine(threads);
    auto got = engine.run(spec);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].seed, got[i].seed);
      expect_same_result(want[i].result, got[i].result,
                         "threads=" + std::to_string(threads) + " point " +
                             std::to_string(i));
    }
  }
}

TEST(NetworkParallel, SchedulePolicy) {
  using Split = std::pair<std::size_t, int>;
  exp::ExperimentEngine engine(8);
  // Wide grids (points >= threads) keep every worker across points...
  EXPECT_EQ(engine.schedule(100, 0), (Split{8, 1}));
  EXPECT_EQ(engine.schedule(8, 0), (Split{8, 1}));
  // ...narrow grids split the budget evenly over the few points, rounding
  // down (the remainder starts as spares the running points claim)...
  EXPECT_EQ(engine.schedule(3, 0), (Split{3, 2}));
  EXPECT_EQ(engine.schedule(2, 0), (Split{2, 4}));
  EXPECT_EQ(engine.schedule(1, 0), (Split{1, 8}));
  EXPECT_EQ(engine.schedule(0, 0), (Split{8, 1}));
  // ...and a requested team changes neither split.
  for (int requested : {-1, 1, 2, 16}) {
    EXPECT_EQ(engine.schedule(100, requested), (Split{8, 1})) << requested;
    EXPECT_EQ(engine.schedule(2, requested), (Split{2, 4})) << requested;
  }
}

TEST(NetworkParallel, OracleModesBitIdenticalAcrossThreadMatrix) {
  // Swapping the dense table for a per-family oracle (or the reverse)
  // never changes results: same seeds, byte-identical SimResults, across a
  // routing mix that exercises every oracle query path (sampled minimal
  // walks, UGAL candidate comparison, dragonfly group sampling, and the
  // compressed-BFS fallback on dln).
  exp::ExperimentSpec spec;
  spec.name = "oracle";
  spec.loads = {0.1, 0.4};
  spec.config = quick_config();
  spec.series = {{"slimfly:q=5", "UGAL-L", "uniform", "SF"},
                 {"dragonfly:p=2,a=4,h=2", "DF-UGAL-L", "uniform", "DF"},
                 {"fattree:k=4", "FT-ANCA", "uniform", "FT"},
                 {"dln:n=36,k=6,p=2,seed=3", "VAL", "uniform", "DLN"}};

  spec.config.oracle = OracleMode::Table;
  exp::ExperimentEngine engine(4);
  auto table = engine.run(spec);
  ASSERT_FALSE(table.empty());

  spec.config.oracle = OracleMode::Family;
  auto family = engine.run(spec);
  ASSERT_EQ(table.size(), family.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].seed, family[i].seed) << "point " << i;
    expect_same_result(table[i].result, family[i].result,
                       "family oracle point " + std::to_string(i));
  }
}

}  // namespace
}  // namespace slimfly::sim
