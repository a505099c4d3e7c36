// Active-set stepping (busy masks, wake wheels, far heaps, cross-shard
// outboxes, idle fast-forward) is a pure wall-time optimization: every
// simulation must match what visiting every router every cycle produces.
// These cases hold that full scan's outputs as pinned values — recorded
// while it still existed, when both modes reproduced them — and check the
// invariants that need no second mode: bit-identity across intra-thread
// counts, fast-forward over idle stretches, and cycles_stepped <= cycles.
// The heavier pinned cases (every Slim Fly routing at a saturating load,
// worst-sf, a 70-cycle wire, credit_delay 0) live in
// examples/suites/golden_stepping.json, which golden_test diffs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

/// The summary fields a full-scan run pinned.
struct Pinned {
  double avg_latency;
  double avg_network_latency;
  double p99_latency;
  double accepted_load;
  std::int64_t delivered;
  bool saturated;
  std::int64_t cycles;
  std::int64_t flit_hops;
};

void expect_same_result(const SimResult& a, const SimResult& b,
                        const std::string& what) {
  // Byte-identical, not approximately equal: the stepping strategy and the
  // shard count must not leak into the simulation.
  EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  EXPECT_EQ(a.accepted_load, b.accepted_load) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.flit_hops, b.flit_hops) << what;
}

void expect_pinned(const SimResult& r, const Pinned& want,
                   const std::string& what) {
  SimResult pinned;
  pinned.avg_latency = want.avg_latency;
  pinned.avg_network_latency = want.avg_network_latency;
  pinned.p99_latency = want.p99_latency;
  pinned.accepted_load = want.accepted_load;
  pinned.delivered = want.delivered;
  pinned.saturated = want.saturated;
  pinned.cycles = want.cycles;
  pinned.flit_hops = want.flit_hops;
  expect_same_result(pinned, r, what);
  EXPECT_LE(r.cycles_stepped, r.cycles) << what;
}

SimResult run_point(const Topology& topo, RoutingKind kind, double load,
                    int intra_threads = 1, SimConfig cfg = quick_config()) {
  auto bundle = make_routing(kind, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  cfg.intra_threads = intra_threads;
  return simulate(topo, *bundle.algorithm, *traffic, cfg, load);
}

TEST(Engine, PerHopAdaptiveRoutingMatchesPinnedFullScan) {
  // FT-ANCA reads queue estimates during allocation; a missed wake would
  // surface as a stale estimate on a sleeping router and diverging ports.
  FatTree3 ft(4);
  for (int intra : {1, 2, 4}) {
    expect_pinned(run_point(ft, RoutingKind::FatTreeAnca, 0.3, intra),
                  {13.73571982424399, 13.73571982424399, 18,
                   0.30292968749999999, 11701, false, 616, 52392},
                  "FT-ANCA intra=" + std::to_string(intra));
  }
}

TEST(Engine, WakeBookkeepingBitIdenticalAcrossIntraThreadCounts) {
  // Per-shard wake wheels and far heaps plus cross-shard wake outboxes must
  // keep every worker count on one trajectory. Two configs move wakes off
  // the default path: a 70-cycle wire puts every flit and delivery wake 64
  // or more cycles ahead, past the wheel, so line events take the far heap
  // (and, at intra > 1, the outboxes into it); and credit_delay = 0 files
  // each credit wake for the current cycle, whose wheel slot is already
  // consumed — it must still wake the next cycle, or UGAL-G's remote queue
  // reads see a stale credit count. golden_stepping pins both configs'
  // full-scan outputs.
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
        Case{quick_config(), RoutingKind::Valiant, 0.4, "default"},
        Case{far, RoutingKind::Minimal, 0.1, "channel_latency=70"},
        Case{far, RoutingKind::UgalG, 0.1, "channel_latency=70"},
        Case{zero_credit, RoutingKind::Minimal, 0.1, "credit_delay=0"},
        Case{zero_credit, RoutingKind::UgalG, 0.1, "credit_delay=0"}}) {
    const std::string what = c.what + " " + to_string(c.kind);
    SimResult want = run_point(sf, c.kind, c.load, 1, c.cfg);
    EXPECT_GT(want.delivered, 0) << what;
    EXPECT_LE(want.cycles_stepped, want.cycles) << what;
    for (int intra : {2, 4}) {
      expect_same_result(want, run_point(sf, c.kind, c.load, intra, c.cfg),
                         what + " intra=" + std::to_string(intra));
    }
  }
}

TEST(Engine, FarHeapReserveCoversSaturatedLongWires) {
  // The far heap is sized at construction for every event that can reach
  // it, and a push past that reserve throws. A saturated torus with a
  // 70-cycle wire is its worst case: one endpoint per router leaves little
  // slack beside six long, busy links, whose in-flight flits each hold a
  // far wake at the receiving router.
  auto topo = topo::make("torus:dims=4x4x4");
  SimConfig far = quick_config();
  far.channel_latency = 70;
  far.drain_cycles = 1000;
  SimResult want = run_point(*topo, RoutingKind::Minimal, 0.9, 1, far);
  EXPECT_GT(want.delivered, 0);
  expect_same_result(want, run_point(*topo, RoutingKind::Minimal, 0.9, 2, far),
                     "torus channel_latency=70 intra=2");
}

TEST(Engine, StepLevelStateMatchesPinnedFullScan) {
  // Beyond the SimResult summary: the in-flight population and delivery
  // counters match the full scan's, sampled every 25 cycles. step() always
  // advances exactly one cycle (fast-forward lives in run() only), so
  // step-level instrumentation sees every cycle.
  const std::vector<std::int64_t> want_in_flight = {
      79, 781, 759, 778, 780, 770, 749, 788, 756, 759, 768, 747};
  const std::vector<std::int64_t> want_delivered = {
      0, 1339, 3346, 5342, 7341, 9326, 11342, 13349, 15365, 17355, 19367, 21360};
  sf::SlimFlyMMS sf(5);
  for (int intra : {1, 4}) {
    auto bundle = make_routing(RoutingKind::Minimal, sf);
    auto traffic = make_uniform(sf.num_endpoints());
    SimConfig cfg = quick_config();
    cfg.intra_threads = intra;
    Network net(sf, *bundle.algorithm, *traffic, cfg, 0.4);
    for (int c = 0; c < 300; ++c) {
      net.step();
      if (c % 25 == 0) {
        const auto i = static_cast<std::size_t>(c / 25);
        EXPECT_EQ(net.flits_in_flight(), want_in_flight[i])
            << "intra " << intra << " cycle " << c;
        EXPECT_EQ(net.stats().total_delivered(), want_delivered[i])
            << "intra " << intra << " cycle " << c;
      }
    }
    EXPECT_EQ(net.cycle(), 300);
    EXPECT_EQ(net.cycles_stepped(), 300);
  }
}

TEST(Engine, FastForwardSkipsIdleStretchesWithoutChangingResults) {
  // A near-idle network: injections are rare enough that the whole network
  // regularly empties, so run() must fast-forward (cycles_stepped < cycles)
  // while reproducing the full scan's result — including the total cycle
  // count, which stats windows hang off.
  auto topo = topo::make("torus:dims=4x4");
  auto bundle = make_routing(RoutingKind::Minimal, *topo);
  auto traffic = make_uniform(topo->num_endpoints());
  SimResult r =
      simulate(*topo, *bundle.algorithm, *traffic, quick_config(), 0.005);
  expect_pinned(r,
                {9.2857142857142865, 9.2857142857142865, 12,
                 0.0065624999999999998, 64, false, 600, 199},
                "near-idle");
  EXPECT_LT(r.cycles_stepped, r.cycles)
      << "a near-idle run never fast-forwarded";
}

TEST(Engine, ZeroLoadRunFastForwardsToTheEnd) {
  // load <= 0 means no endpoint ever injects: the run steps (almost)
  // nothing and still reports the full scan's empty-run summary.
  sf::SlimFlyMMS sf(5);
  SimResult r = run_point(sf, RoutingKind::Minimal, 0.0);
  expect_pinned(r, {0, 0, 0, 0, 0, false, 600, 0}, "zero load");
  // Cycle 0 steps every router (each endpoint's first draw happens there);
  // after it nothing is ever planned, so the rest is one jump.
  EXPECT_EQ(r.cycles_stepped, 1);
}

TEST(Engine, FirstPlanInStepMatchesPinnedFullScan) {
  // The first injector plan is made inside cycle 0's injection pass, not at
  // construction. Cases where that pass matters: arrivals at cycle 0 itself
  // (high load, no warmup), a rate-modulated stream whose first ON segment
  // may start late, and zero load. Windowed stats pin the per-100-cycle
  // trajectory, not just the summary.
  sf::SlimFlyMMS sf(5);
  struct Case {
    std::string traffic;
    double load;
    Pinned summary;
    std::vector<std::int64_t> generated, delivered, latency_sum;
  };
  for (const Case& c :
       {Case{"uniform", 0.5,
             {9.8411399196466451, 9.8411399196466451, 15, 0.48873749999999999,
              40689, false, 416, 116912},
             {10015, 10056, 9996, 10006, 1614},
             {9009, 10044, 10054, 9992, 1590},
             {87981, 98906, 98869, 98577, 15757}},
        Case{"burst:on=40,off=2000,mult=25,base=uniform", 0.02,
             {8.3409610983981697, 8.3409610983981697, 10, 0.0051999999999999998,
              440, false, 409, 1243},
             {148, 5, 116, 168, 15},
             {145, 8, 101, 162, 24},
             {1189, 66, 851, 1368, 189}},
        Case{"uniform", 0.0,
             {0, 0, 0, 0, 0, false, 400, 0},
             {0, 0, 0, 0},
             {0, 0, 0, 0},
             {0, 0, 0, 0}}}) {
    auto bundle = make_routing(RoutingKind::Minimal, sf);
    auto traffic = make_traffic(c.traffic, sf);
    SimConfig cfg = quick_config();
    cfg.warmup_cycles = 0;
    cfg.stats_window = 100;
    SimResult r = simulate(sf, *bundle.algorithm, *traffic, cfg, c.load);
    const std::string what = c.traffic + " @ " + std::to_string(c.load);
    expect_pinned(r, c.summary, what);
    ASSERT_EQ(r.windows.size(), c.generated.size()) << what;
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
      EXPECT_EQ(r.windows[w].generated, c.generated[w]) << what << " window " << w;
      EXPECT_EQ(r.windows[w].delivered, c.delivered[w]) << what << " window " << w;
      EXPECT_EQ(r.windows[w].latency_sum, c.latency_sum[w])
          << what << " window " << w;
    }
  }
}

}  // namespace
}  // namespace slimfly::sim
