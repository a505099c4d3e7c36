// Property-test harness for the workload layer (burst/hotspot modulation,
// dependency-aware trace replay, allreduce collectives):
//   1. Every parameterized pattern is byte-identical across the full
//      SF_THREADS x forced distance oracle matrix (one point, so the thread
//      count is its stepping team).
//   2. Trace-replay ordering is independent of shard count down to the
//      windowed-stats rows.
//   3. Burst offered load converges to the configured mean (load x mult x
//      duty cycle); hotspot endpoints absorb their configured share; the
//      off_until hook skips only silent cycles and draws nothing.
//   4. Dependency stalls show up in windowed stats for replay and are
//      identically zero for independent injection — the causality signature
//      that independent injection cannot reproduce. One delivery can unlock
//      several endpoints at once (completion fan-out above 1).
//   5. The trace JSON parser rejects malformed input with named errors:
//      cycles (explicit and FIFO-implied), dangling references, duplicate
//      endpoints, depth-bombed JSON — plus the spec-grammar negatives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "exp/diff.hpp"
#include "exp/experiment.hpp"
#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "topo/registry.hpp"

namespace slimfly::sim {
namespace {

// ---- helpers ---------------------------------------------------------------

void expect_throws_with(const std::function<void()>& fn,
                        const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message \"" << msg << "\" lacks \"" << needle << "\"";
    }
  }
}

std::string write_temp_trace(const std::string& name, const std::string& text) {
  const std::string path = "/tmp/slimfly_workload_" + name + ".json";
  std::ofstream os(path);
  os << text;
  return path;
}

SimConfig quick_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 4000;
  return cfg;
}

// A request/reply trace over endpoint pairs (2i, 2i+1): each side's next
// message waits on the peer's previous one, so every send after the first
// carries a genuine dependency stall.
std::string reqreply_trace_text(int pairs, int rounds) {
  std::string s = "{\"trace\": \"reqreply\", \"endpoints\": {";
  for (int p = 0; p < pairs; ++p) {
    const int a = 2 * p, b = 2 * p + 1;
    std::string la, lb;
    for (int k = 0; k < rounds; ++k) {
      la += (k ? ", " : "");
      lb += (k ? ", " : "");
      if (k == 0) {
        la += "{\"dst\": " + std::to_string(b) + "}";
      } else {
        la += "{\"dst\": " + std::to_string(b) + ", \"after\": \"" +
              std::to_string(b) + "." + std::to_string(k - 1) + "\"}";
      }
      lb += "{\"dst\": " + std::to_string(a) + ", \"after\": \"" +
            std::to_string(a) + "." + std::to_string(k) + "\"}";
    }
    s += (p ? ", " : "") + ("\"" + std::to_string(a) + "\": [" + la + "], \"" +
                            std::to_string(b) + "\": [" + lb + "]");
  }
  return s + "}}";
}

// ---- 1. full-matrix byte identity ------------------------------------------

void expect_matrix_identical(const std::string& traffic_spec) {
  exp::ExperimentSpec spec;
  spec.name = "workload_matrix";
  spec.loads = {0.2};
  spec.config = quick_config();
  spec.truncate_at_saturation = false;
  spec.series.push_back({"slimfly:q=5", "UGAL-L", traffic_spec, "", {}});
  exp::ExperimentEngine reference(1);
  const std::string want = exp::golden_trajectory(spec, reference.run(spec));
  EXPECT_NE(want.find(traffic_spec), std::string::npos);
  // One point, so the engine gives it the whole budget: teams of 1, 2, 4.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (OracleMode oracle : {OracleMode::Auto, OracleMode::Family}) {
      exp::ExperimentSpec run = spec;
      run.config.oracle = oracle;
      exp::ExperimentEngine engine(threads);
      EXPECT_EQ(want, exp::golden_trajectory(run, engine.run(run)))
          << traffic_spec << " threads=" << threads
          << " oracle=" << to_string(oracle);
    }
  }
}

TEST(WorkloadMatrix, BurstIsByteIdentical) {
  expect_matrix_identical("burst:on=50,off=150,mult=4,base=uniform");
}

TEST(WorkloadMatrix, HotspotIsByteIdentical) {
  expect_matrix_identical("hotspot:frac=0.05,heat=4,base=uniform");
}

TEST(WorkloadMatrix, ComposedHotspotOverBurstIsByteIdentical) {
  expect_matrix_identical(
      "hotspot:frac=0.05,heat=4,base=burst:on=50;off=150;mult=3");
}

TEST(WorkloadMatrix, AllreduceRingIsByteIdentical) {
  expect_matrix_identical("allreduce:ranks=64,algo=ring");
}

TEST(WorkloadMatrix, AllreduceTreeIsByteIdentical) {
  expect_matrix_identical("allreduce:ranks=64,algo=tree");
}

TEST(WorkloadMatrix, TraceReplayIsByteIdentical) {
  const std::string path =
      write_temp_trace("matrix", reqreply_trace_text(8, 12));
  expect_matrix_identical("trace:file=" + path);
  std::remove(path.c_str());
}

// ---- 2. replay ordering independent of shards, down to the windows ---------

TEST(WorkloadWindows, TraceReplayWindowsIdenticalAcrossShards) {
  const std::string path =
      write_temp_trace("windows", reqreply_trace_text(10, 20));
  sf::SlimFlyMMS topo(5);
  SimConfig base = quick_config();
  base.stats_window = 50;
  std::vector<std::vector<WindowStats>> runs;
  for (int intra : {1, 2, 4}) {
    auto routing = make_routing(RoutingKind::Minimal, topo);
    auto traffic = make_traffic("trace:file=" + path, topo);
    SimConfig cfg = base;
    cfg.intra_threads = intra;
    auto r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.2);
    EXPECT_EQ(r.stats_window, 50);
    EXPECT_FALSE(r.windows.empty());
    runs.push_back(r.windows);
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[0].size(), runs[i].size()) << "run " << i;
    for (std::size_t w = 0; w < runs[0].size(); ++w) {
      EXPECT_EQ(runs[0][w].generated, runs[i][w].generated) << i << "/" << w;
      EXPECT_EQ(runs[0][w].delivered, runs[i][w].delivered) << i << "/" << w;
      EXPECT_EQ(runs[0][w].latency_sum, runs[i][w].latency_sum) << i << "/" << w;
      EXPECT_EQ(runs[0][w].dep_stalled_sends, runs[i][w].dep_stalled_sends)
          << i << "/" << w;
      EXPECT_EQ(runs[0][w].dep_stall_cycles, runs[i][w].dep_stall_cycles)
          << i << "/" << w;
    }
  }
  std::remove(path.c_str());
}

// ---- 3. statistical convergence --------------------------------------------

TEST(WorkloadConvergence, BurstMultiplierAveragesToDutyCycleTimesMult) {
  // on=50, off=150, mult=4: duty 1/4, mean multiplier 1.0. The multiplier
  // sequence is deterministic, so a long deterministic average suffices.
  sf::SlimFlyMMS topo(5);
  auto t = make_traffic("burst:on=50,off=150,mult=4,base=uniform", topo);
  ASSERT_TRUE(t->modulates_rate());
  double sum = 0.0;
  const std::int64_t horizon = 200000;
  const int endpoints = 8;
  for (int e = 0; e < endpoints; ++e) {
    for (std::int64_t c = 0; c < horizon; ++c) sum += t->rate_multiplier(e, c);
  }
  const double mean = sum / (static_cast<double>(horizon) * endpoints);
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(WorkloadHooks, OffUntilSkipsOnlySilentCyclesAndDrawsNothing) {
  // The off_until contract the arrival planner's jumps rely on. Twin
  // patterns with one seed: `skip` is walked the planner's way (jump to
  // off_until after every zero multiplier), `twin` is queried on every
  // cycle. Each skipped cycle must be silent on the twin, and after the
  // walk both segment streams must be at the same position — the hook drew
  // nothing — so their futures agree cycle for cycle.
  sf::SlimFlyMMS topo(5);
  for (const std::string spec :
       {"burst:on=40,off=400,mult=5,seed=3,base=uniform",
        "hotspot:frac=0.05,heat=4,seed=3,base=burst:on=40;off=400;mult=5"}) {
    auto skip = make_traffic(spec, topo);
    auto twin = make_traffic(spec, topo);
    const std::int64_t horizon = 20000;
    std::int64_t jumped = 0;
    for (int e = 0; e < 8; ++e) {
      std::int64_t t = 0;
      while (t < horizon) {
        const double m = skip->rate_multiplier(e, t);
        ASSERT_EQ(m, twin->rate_multiplier(e, t)) << spec << " e=" << e;
        if (m > 0.0) {
          ++t;
          continue;
        }
        const std::int64_t next = skip->off_until(e, t);
        ASSERT_GT(next, t) << spec;
        for (std::int64_t c = t + 1; c < next; ++c) {
          ASSERT_EQ(twin->rate_multiplier(e, c), 0.0)
              << spec << " e=" << e << " skipped cycle " << c;
        }
        jumped += next - t - 1;
        t = next;
      }
      for (std::int64_t c = t; c < t + 5000; ++c) {
        ASSERT_EQ(skip->rate_multiplier(e, c), twin->rate_multiplier(e, c))
            << spec << " e=" << e << " cycle " << c;
      }
    }
    EXPECT_GT(jumped, 8 * horizon / 2) << spec << ": OFF segments skipped";
  }
}

TEST(WorkloadConvergence, BurstOfferedLoadConvergesToConfiguredMean) {
  // End-to-end: accepted throughput of an unsaturated burst run matches
  // load x mult x duty = load (mean multiplier 1).
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_traffic("burst:on=50,off=150,mult=4,base=uniform", topo);
  SimConfig cfg;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  cfg.drain_cycles = 20000;
  auto r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.15);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.accepted_load, 0.15, 0.02);
}

TEST(WorkloadConvergence, HotspotEndpointsAbsorbConfiguredShare) {
  // N=1000, frac=0.01 (H=10), heat=20: hot endpoints receive ~H*heat/N =
  // 20% of all traffic, each one ~20x the uniform share.
  const auto torus = topo::make("torus:dims=10x10x10");
  ASSERT_EQ(torus->num_endpoints(), 1000);
  auto t = make_traffic("hotspot:frac=0.01,heat=20,seed=7", *torus);
  Rng rng(42);
  std::vector<std::int64_t> hits(1000, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++hits[static_cast<std::size_t>(
      t->destination(i % 17, rng))];
  std::vector<std::int64_t> sorted = hits;
  std::sort(sorted.begin(), sorted.end(), std::greater<std::int64_t>());
  std::int64_t hot = 0;
  for (int i = 0; i < 10; ++i) hot += sorted[static_cast<std::size_t>(i)];
  const double hot_share = static_cast<double>(hot) / draws;
  EXPECT_NEAR(hot_share, 0.2, 0.02);
  // The 11th-busiest endpoint is a cold one: near the uniform share.
  EXPECT_LT(static_cast<double>(sorted[10]) / draws, 0.004);
}

// ---- 4. dependency stalls are the replay signature -------------------------

TEST(WorkloadWindows, DependencyStallsNonzeroForReplayZeroForInjection) {
  const std::string path =
      write_temp_trace("stalls", reqreply_trace_text(10, 20));
  sf::SlimFlyMMS topo(5);
  SimConfig cfg = quick_config();
  cfg.stats_window = 50;

  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto replay = make_traffic("trace:file=" + path, topo);
  auto rr = simulate(topo, *routing.algorithm, *replay, cfg, 0.2);
  std::int64_t stalled = 0, stall_cycles = 0, generated = 0;
  for (const auto& w : rr.windows) {
    stalled += w.dep_stalled_sends;
    stall_cycles += w.dep_stall_cycles;
    generated += w.generated;
  }
  EXPECT_GT(generated, 0);
  EXPECT_GT(stalled, 0) << "request->reply chains must stall on their deps";
  EXPECT_GT(stall_cycles, stalled);  // each reply waits >= 1 cycle round-trip

  auto routing2 = make_routing(RoutingKind::Minimal, topo);
  auto uniform = make_traffic("uniform", topo);
  auto ru = simulate(topo, *routing2.algorithm, *uniform, cfg, 0.2);
  for (const auto& w : ru.windows) {
    EXPECT_EQ(w.dep_stalled_sends, 0);
    EXPECT_EQ(w.dep_stall_cycles, 0);
  }
  std::remove(path.c_str());
}

TEST(WorkloadWindows, OneDeliveryUnlocksThreeEndpoints) {
  // Message 0.0 is the `after:` target of one message on each of endpoints
  // 10, 20 and 30, so its delivery must unlock three heads at once: 10's
  // only message, 20's first, and 30's second (queued behind a free send).
  // The dependents sit on routers of their own, so each one sends only if
  // the delivery wakes it.
  const std::string path = write_temp_trace("fanout", R"({"endpoints": {
      "0": [{"dst": 40}],
      "10": [{"dst": 41, "after": "0.0"}],
      "20": [{"dst": 42, "after": "0.0"}, {"dst": 43}],
      "30": [{"dst": 44}, {"dst": 45, "after": "0.0"}]}})");
  expect_matrix_identical("trace:file=" + path);

  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_traffic("trace:file=" + path, topo);
  EXPECT_EQ(traffic->completion_fanout(), 3u);
  SimConfig cfg = quick_config();
  cfg.stats_window = 50;
  auto r = simulate(topo, *routing.algorithm, *traffic, cfg, 0.2);
  std::int64_t generated = 0, delivered = 0, stalled = 0;
  for (const auto& w : r.windows) {
    generated += w.generated;
    delivered += w.delivered;
    stalled += w.dep_stalled_sends;
  }
  EXPECT_EQ(generated, 6);
  EXPECT_EQ(delivered, 6);
  EXPECT_EQ(stalled, 3) << "each dependent of 0.0 waits for its delivery";
  std::remove(path.c_str());
}

// ---- 5. parser and grammar negatives ---------------------------------------

TEST(TraceParser, RejectsExplicitDependencyCycle) {
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "after": "1.0"}],
                              "1": [{"dst": 0, "after": "0.0"}]}})",
            "t");
      },
      {"dependency cycle involving message", "FIFO"});
}

TEST(TraceParser, RejectsCycleThroughImplicitFifoEdges) {
  // Acyclic on explicit edges alone (1.0 -> 0.0 and 0.1 -> 1.0 never meet);
  // the implicit FIFO edge 0.0 -> 0.1 closes the loop 1.0 -> 0.0 -> 0.1 ->
  // 1.0, so validation must consider both edge kinds together.
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "after": "1.0"}, {"dst": 1}],
                              "1": [{"dst": 0, "after": "0.1"}]}})",
            "t");
      },
      {"dependency cycle involving message"});
}

TEST(TraceParser, NamedErrorsForMalformedEndpoints) {
  expect_throws_with([] { parse_workload_trace(R"({"trace": "x"})", "t"); },
                     {"missing \"endpoints\" object"});
  expect_throws_with(
      [] { parse_workload_trace(R"({"endpoints": {}})", "t"); },
      {"must list at least one endpoint"});
  expect_throws_with(
      [] {
        parse_workload_trace(R"({"endpoints": {"x1": [{"dst": 0}]}})", "t");
      },
      {"not a decimal number"});
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"7": [{"dst": 1}], "007": [{"dst": 1}]}})", "t");
      },
      {"endpoint 7 is declared more than once"});
  expect_throws_with(
      [] { parse_workload_trace(R"({"endpoints": {"0": [{"dst": 0}]}})", "t"); },
      {"message 0.0 sends to itself"});
  expect_throws_with(
      [] {
        parse_workload_trace(R"({"endpoints": {"0": [{"after": "1.0"}]}})",
                             "t");
      },
      {"missing \"dst\""});
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "when": 3}]}})", "t");
      },
      {"unknown key \"when\""});
}

TEST(TraceParser, NamedErrorsForBadAfterReferences) {
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "after": "nope"}]}})", "t");
      },
      {"not of the form \"<endpoint>.<index>\""});
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "after": "3.0"}]}})", "t");
      },
      {"references undeclared endpoint 3"});
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "after": "1.5"}],
                              "1": [{"dst": 0}]}})",
            "t");
      },
      {"references a message that does not exist", "endpoint 1 has 1"});
  expect_throws_with(
      [] {
        parse_workload_trace(
            R"({"endpoints": {"0": [{"dst": 1, "after": "0.0"}]}})", "t");
      },
      {"depends on itself"});
}

TEST(TraceParser, DepthBombedJsonHitsTheNestingCap) {
  std::string bomb = R"({"endpoints": {"0": )";
  for (int i = 0; i < 70; ++i) bomb += "[";
  expect_throws_with([&] { parse_workload_trace(bomb, "t"); },
                     {"nesting deeper than 64 levels"});
}

TEST(TraceParser, UnreadableFileNamesThePath) {
  expect_throws_with(
      [] { load_workload_trace("/nonexistent/trace.json"); },
      {"cannot read trace file", "/nonexistent/trace.json",
       "working directory"});
}

TEST(SpecGrammar, NamedErrorsForBadWorkloadSpecs) {
  expect_throws_with([] { validate_traffic_spec("burst:on=50,mult=4"); },
                     {"missing required parameter \"off\""});
  expect_throws_with(
      [] { validate_traffic_spec("burst:on=50,off=150,mult=0"); },
      {"mult must be in (0, 1e6]"});
  expect_throws_with(
      [] { validate_traffic_spec("burst:on=50,off=150,mult=4,fuzz=1"); },
      {"unknown parameter \"fuzz\""});
  expect_throws_with([] { validate_traffic_spec("hotspot:frac=1.5,heat=8"); },
                     {"frac must be in (0, 1]"});
  expect_throws_with([] { validate_traffic_spec("allreduce:ranks=12,algo=tree"); },
                     {"power-of-two ranks"});
  // A ring sends 2R(R-1) messages, indexed in 32 bits: R = 32768 is the
  // largest ring that fits (validated only — building it would take GBs).
  expect_throws_with(
      [] { validate_traffic_spec("allreduce:ranks=32769,algo=ring"); },
      {"2147549184 messages", "2147483647"});
  EXPECT_NO_THROW(validate_traffic_spec("allreduce:ranks=32768,algo=ring"));
  expect_throws_with([] { validate_traffic_spec("trace:"); },
                     {"expected key=value parameters"});
  expect_throws_with([] { validate_traffic_spec("uniform:x=1"); },
                     {"takes no parameters"});
  expect_throws_with([] { validate_traffic_spec("nosuchpattern"); },
                     {"unknown traffic pattern", "SPEC_GRAMMAR"});
  expect_throws_with(
      [] {
        validate_traffic_spec("burst:on=1,off=1,mult=1,base=allreduce:ranks=4");
      },
      {"cannot wrap the self-clocked base"});
}

TEST(SpecGrammar, HotspotRedirectProbabilityBoundIsNamed) {
  // frac=0.5, heat=4 on N=50: q = 25*3/25 = 3 > 1 — impossible to satisfy.
  sf::SlimFlyMMS topo(5);
  expect_throws_with(
      [&] { make_traffic("hotspot:frac=0.5,heat=4,base=uniform", topo); },
      {"redirect probability", "q = H(heat-1)/(N-H)", "lower heat or frac"});
}

}  // namespace
}  // namespace slimfly::sim
