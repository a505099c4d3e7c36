// Active-set stepping (busy masks, wake wheels, far heaps, cross-shard
// outboxes, idle fast-forward) is a pure wall-time optimization: every
// simulation must match what visiting every router every cycle produces.
// These cases hold that full scan's outputs as pinned values — recorded
// while it still existed, when both modes reproduced them — and check the
// invariants that need no second mode: bit-identity across intra-thread
// counts, fast-forward over idle stretches, cycles_stepped <= cycles (and
// equal counts whether idle cycles are jumped or stepped one by one), and
// the stepping summaries against the state they summarize.
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
  // step-level instrumentation sees every cycle; at this load none is idle,
  // so every one of them runs its phases.
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

TEST(Engine, CycleByCycleSteppingCountsOnlyNonIdleCycles) {
  // step() passes an idle cycle without running its phases or counting it,
  // so a near-idle point driven one step() at a time through warmup and
  // measurement, then finished by run(), steps exactly the cycles that
  // simulate()'s fast-forwarding run steps.
  auto topo = topo::make("torus:dims=4x4");
  const SimConfig cfg = quick_config();
  auto direct_routing = make_routing(RoutingKind::Minimal, *topo);
  auto direct_traffic = make_uniform(topo->num_endpoints());
  const SimResult direct = simulate(*topo, *direct_routing.algorithm,
                                    *direct_traffic, cfg, 0.005);
  auto routing = make_routing(RoutingKind::Minimal, *topo);
  auto traffic = make_uniform(topo->num_endpoints());
  Network net(*topo, *routing.algorithm, *traffic, cfg, 0.005);
  while (net.cycle() < cfg.warmup_cycles + cfg.measure_cycles) net.step();
  const SimResult stepped = net.run();
  expect_same_result(direct, stepped, "step() to the horizon, then run()");
  EXPECT_EQ(stepped.cycles_stepped, direct.cycles_stepped);
  EXPECT_LT(stepped.cycles_stepped, stepped.cycles)
      << "a near-idle run never had an idle cycle";
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

TEST(Engine, VcStrideLayoutsMatchPinnedResults) {
  // The occupancy bitmask gives each input a power-of-two stride of VC
  // bits (sim/router.hpp), so num_vcs 3 pads to 4 and 5 or 6 pad to 8, and
  // a q=11 router's 26 ports x stride span two or four words. These values
  // were pinned from the per-input-word layout the bitmask replaced; the
  // gather order, and hence every result, must not depend on the layout.
  struct Case {
    std::string topo;
    RoutingKind kind;
    int num_vcs;
    double load;
    Pinned want;
  };
  for (const Case& c :
       {Case{"slimfly:q=5", RoutingKind::Minimal, 3, 0.8,
             {24.799390672603703, 23.192016248730567, 71, 0.78641249999999996,
              109681, false, 714, 314808}},
        Case{"slimfly:q=5", RoutingKind::UgalL, 5, 0.3,
             {10.40857190137349, 10.40857190137349, 18, 0.30198750000000002,
              36800, false, 619, 119506}},
        Case{"slimfly:q=5", RoutingKind::Valiant, 6, 0.3,
             {17.143924923179139, 17.143924923179139, 26, 0.30145, 36820,
              false, 627, 174140}},
        Case{"slimfly:q=11", RoutingKind::Minimal, 4, 0.4,
             {9.8002426446546469, 9.8002426446546469, 14, 0.40008838383838385,
              528325, false, 616, 1560178}},
        Case{"slimfly:q=11", RoutingKind::UgalL, 6, 0.3,
             {11.141554167557496, 11.141554167557496, 19, 0.30062213039485769,
              399182, false, 621, 1376674}}}) {
    auto topo = topo::make(c.topo);
    SimConfig cfg = quick_config();
    cfg.num_vcs = c.num_vcs;
    expect_pinned(run_point(*topo, c.kind, c.load, 1, cfg), c.want,
                  c.topo + " " + to_string(c.kind) +
                      " num_vcs=" + std::to_string(c.num_vcs));
  }
}

TEST(Engine, SummariesMatchTheirStateAfterEveryStep) {
  // Stepping polls summaries instead of state: the head-ready slots of the
  // per-port lines, the occupancy, staging and endpoint-ready bitmasks, and
  // the earliest planned arrival (sim/router.hpp). audit_summaries()
  // recomputes each from the state it summarizes and throws, naming router,
  // port and cycle, on a slot a producer forgot to write or a bit a pop
  // forgot to clear.
  // The configs move the writers off the default path: credit_delay = 0
  // (credits due the next cycle), a 70-cycle wire (long lines), UGAL-G
  // (remote queue reads), bursts (long idle stretches), and ring and tree
  // allreduce (ready bits set by the serial completion pass).
  sf::SlimFlyMMS sf(5);
  SimConfig far = quick_config();
  far.channel_latency = 70;
  SimConfig zero_credit = quick_config();
  zero_credit.credit_delay = 0;
  struct Case {
    SimConfig cfg;
    RoutingKind kind;
    std::string traffic;
    double load;
  };
  for (const Case& c :
       {Case{zero_credit, RoutingKind::UgalG, "uniform", 0.4},
        Case{far, RoutingKind::Minimal, "uniform", 0.3},
        Case{quick_config(), RoutingKind::UgalG, "uniform", 0.7},
        Case{quick_config(), RoutingKind::Minimal,
             "burst:on=40,off=2000,mult=25,base=uniform", 0.02},
        Case{quick_config(), RoutingKind::UgalL, "allreduce:ranks=64,algo=ring",
             0.1},
        Case{quick_config(), RoutingKind::UgalL, "allreduce:ranks=64,algo=tree",
             0.1}}) {
    for (int intra : {1, 2, 4}) {
      const std::string what = c.traffic + " " + to_string(c.kind) +
                               " intra=" + std::to_string(intra);
      auto bundle = make_routing(c.kind, sf);
      auto traffic = make_traffic(c.traffic, sf);
      SimConfig cfg = c.cfg;
      cfg.intra_threads = intra;
      Network net(sf, *bundle.algorithm, *traffic, cfg, c.load);
      ASSERT_NO_THROW(net.audit_summaries()) << what;
      for (int step = 0; step < 400; ++step) {
        net.step();
        ASSERT_NO_THROW(net.audit_summaries()) << what;
      }
      EXPECT_GT(net.flit_hops(), 0) << what;
    }
  }
}

/// Forwards every self-clocked hook to a replay and counts next_send
/// calls: sends, and refusals split by whether the endpoint had a message
/// in flight. With none in flight its source queue is empty, so only an
/// eligible head could have marked it ready — and a refusal says it was not.
class CountingReplay final : public TrafficPattern {
 public:
  CountingReplay(std::unique_ptr<TrafficPattern> inner, int endpoints)
      : inner_(std::move(inner)),
        in_flight_(static_cast<std::size_t>(endpoints), 0) {}
  std::string name() const override { return inner_->name(); }
  int destination(int src, Rng& rng) override {
    return inner_->destination(src, rng);
  }
  bool is_active(int src) const override { return inner_->is_active(src); }
  bool self_clocked() const override { return true; }
  bool pending_eligible(int src) const override {
    return inner_->pending_eligible(src);
  }
  int next_send(int src, std::int64_t cycle, std::int64_t* stall) override {
    ++calls;
    const int dst = inner_->next_send(src, cycle, stall);
    std::int64_t& flying = in_flight_[static_cast<std::size_t>(src)];
    if (dst >= 0) {
      ++sends;
      ++flying;
    } else if (flying > 0) {
      ++refused_in_flight;
    } else {
      ++refused_idle;
    }
    return dst;
  }
  void on_delivered(int src, std::int64_t seq,
                    std::vector<int>& unlocked) override {
    --in_flight_[static_cast<std::size_t>(src)];
    inner_->on_delivered(src, seq, unlocked);
  }
  std::size_t completion_fanout() const override {
    return inner_->completion_fanout();
  }

  std::int64_t calls = 0, sends = 0, refused_in_flight = 0, refused_idle = 0;

 private:
  std::unique_ptr<TrafficPattern> inner_;
  std::vector<std::int64_t> in_flight_;
};

TEST(Engine, ReplayAsksOnlyMarkedEndpointsForASend) {
  // Injection visits only endpoints whose ready bit is set, so next_send is
  // asked for a send almost only when one is eligible. A refusal can come
  // only from an endpoint marked for its backlog, which needs a message in
  // flight; an endpoint with none is never asked in vain. Visiting every
  // endpoint of a stepped router made about 3.9 calls per send.
  sf::SlimFlyMMS sf(5);
  for (const std::string spec :
       {"allreduce:ranks=64,algo=ring", "allreduce:ranks=64,algo=tree"}) {
    auto bundle = make_routing(RoutingKind::Minimal, sf);
    CountingReplay counting(make_traffic(spec, sf), sf.num_endpoints());
    const SimResult got =
        simulate(sf, *bundle.algorithm, counting, quick_config(), 0.1);
    auto plain_bundle = make_routing(RoutingKind::Minimal, sf);
    auto plain = make_traffic(spec, sf);
    expect_same_result(
        got, simulate(sf, *plain_bundle.algorithm, *plain, quick_config(), 0.1),
        spec);
    EXPECT_GT(counting.sends, 0) << spec;
    EXPECT_EQ(counting.refused_idle, 0) << spec;
    EXPECT_LE(counting.calls, counting.sends + counting.refused_in_flight)
        << spec;
  }
}

}  // namespace
}  // namespace slimfly::sim
