// Golden-trajectory regression harness: the pinned examples/suites/
// golden_mini.json suite is run here and its full stats output compared
// *exactly* against tests/golden/golden_mini.trajectory. Bit-identical
// determinism (PR 1/2) makes exact comparison valid; the thread matrix
// re-checks it under every (across-point x intra-point) worker combination
// the satellite CI matrix uses.
//
// Regenerating after an intentional simulator change:
//   SF_UPDATE_GOLDEN=1 ./build/golden_test
// rewrites BOTH golden files (the .trajectory and the BENCH json). The
// BENCH regeneration preserves the prior file's wall_seconds per matching
// point (exp::preserve_wall_seconds), so its git diff shows only
// result-bearing changes — wall time never churns. Say so in the PR — a
// golden change is a results change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "cost/costmodel.hpp"
#include "exp/diff.hpp"
#include "exp/json.hpp"
#include "exp/suite.hpp"
#include "topo/registry.hpp"

namespace slimfly {
namespace {

std::string source_path(const std::string& rel) {
  return std::string(SLIMFLY_SOURCE_DIR) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

exp::ExperimentSpec golden_spec() {
  return exp::suite_to_spec(
      exp::load_suite_file(source_path("examples/suites/golden_mini.json")));
}

const std::string kTrajectoryPath = "tests/golden/golden_mini.trajectory";

TEST(GoldenTrajectory, MatchesCheckedInTrajectoryExactly) {
  exp::ExperimentSpec spec = golden_spec();
  exp::ExperimentEngine engine(1);
  std::vector<exp::RunResult> results = engine.run(spec);
  const std::string got = exp::golden_trajectory(spec, results);
  if (std::getenv("SF_UPDATE_GOLDEN")) {
    std::ofstream os(source_path(kTrajectoryPath));
    ASSERT_TRUE(os.good());
    os << got;
    std::cout << "updated " << kTrajectoryPath << "\n";
    // Also regenerate the BENCH golden, preserving the prior file's wall
    // times per matching point so the diff shows only result-bearing
    // changes (wall-derived throughput follows the preserved wall).
    std::size_t preserved = 0;
    try {
      exp::Trajectory prior = exp::load_bench_file(
          source_path("tests/golden/BENCH_golden_mini.json"));
      preserved = exp::preserve_wall_seconds(prior, spec, results);
    } catch (const std::exception&) {
      // First generation: no prior file to preserve from.
    }
    const std::string path =
        exp::write_json_file(spec, results, 1, source_path("tests/golden"));
    ASSERT_FALSE(path.empty());
    std::cout << "updated " << path << " (" << preserved
              << " wall times preserved)\n";
    return;
  }
  const std::string want = read_file(source_path(kTrajectoryPath));
  EXPECT_EQ(want, got)
      << "golden trajectory drifted; if the simulator change is intentional, "
         "regenerate with SF_UPDATE_GOLDEN=1 (see tests/golden/README.md)";
}

TEST(GoldenTrajectory, BitIdenticalAcrossThreadAndEngineMatrix) {
  exp::ExperimentSpec spec = golden_spec();
  const std::string want = read_file(source_path(kTrajectoryPath));
  // SF_THREADS x SF_INTRA_THREADS x forced stepping mode x forced
  // distance oracle matrix, constructed directly so the test is hermetic
  // against the environment. engine(1) with intra=2 clamps to sequential
  // (one worker owns the whole budget) — still compared. The program
  // normally picks the stepping mode and the oracle itself; forcing each
  // one here keeps every backend certified on every series (the family
  // cells run DLN-UGAL-L on the compressed-BFS fallback). Every cell
  // reproduces the same pinned trajectory.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (int intra : {1, 2}) {
      for (sim::StepEngine step_engine :
           {sim::StepEngine::Cycle, sim::StepEngine::Active}) {
        for (sim::OracleMode oracle :
             {sim::OracleMode::Table, sim::OracleMode::Family}) {
          exp::ExperimentSpec run = spec;
          run.config.intra_threads = intra;
          run.config.engine = step_engine;
          run.config.oracle = oracle;
          exp::ExperimentEngine engine(threads);
          const std::string got = exp::golden_trajectory(run, engine.run(run));
          EXPECT_EQ(want, got)
              << "SF_THREADS=" << threads << " SF_INTRA_THREADS=" << intra
              << " engine=" << sim::to_string(step_engine)
              << " oracle=" << sim::to_string(oracle);
        }
      }
    }
  }
}

TEST(GoldenTrajectory, ThreadAxisIsByteIdentical) {
  exp::ExperimentSpec spec = golden_spec();
  const std::string want = read_file(source_path(kTrajectoryPath));
  // The point scheduler is execution-only: whichever runner claims a
  // point, the point's seed comes from exp::point_seed and its stepping
  // team only changes how many workers cover the fixed shard set between
  // the same barriers. Every cell must reproduce the pinned trajectory
  // byte-for-byte — including teams that grow mid-point as runners drain
  // (32 threads outnumber the points, so spares exist from the start).
  for (std::size_t threads : {std::size_t{2}, std::size_t{32}}) {
    exp::ExperimentEngine engine(threads);
    const std::string got = exp::golden_trajectory(spec, engine.run(spec));
    EXPECT_EQ(want, got) << "SF_THREADS=" << threads;
  }
}

TEST(GoldenTrajectory, DiffAgainstCheckedInBenchPasses) {
  // The `sweep --config` + `sweep diff` path: a freshly written BENCH file
  // (stepping mode chosen per point, so its header carries no "engine"
  // field) against the checked-in one, whose header still records the
  // "engine": "cycle" of the run that pinned it. Header config is never
  // compared, so the two must diff clean.
  exp::ExperimentSpec spec = golden_spec();
  exp::ExperimentEngine engine(2);
  std::ostringstream fresh;
  exp::write_json(fresh, spec, engine.run(spec), engine.threads());
  EXPECT_EQ(fresh.str().find("\"engine\""), std::string::npos);
  const std::string golden_path =
      source_path("tests/golden/BENCH_golden_mini.json");
  EXPECT_NE(read_file(golden_path).find("\"engine\": \"cycle\""),
            std::string::npos);
  exp::Trajectory now = exp::parse_bench_json(fresh.str(), "fresh");
  exp::Trajectory golden = exp::load_bench_file(golden_path);
  exp::DiffReport report = exp::diff_trajectories(golden, now);
  if (!report.passed) {
    std::ostringstream os;
    exp::print_diff(os, report, false);
    FAIL() << "sweep-diff regression against tests/golden/"
              "BENCH_golden_mini.json:\n"
           << os.str();
  }
  EXPECT_EQ(report.compared, 16u);  // 8 series x 2 loads, no truncation
}

// The analysis/cost layers' outputs for every distinct golden_mini
// topology, as one deterministic text block — the static-analysis
// counterpart of the simulation trajectory. Every number goes through
// exp::json::number (shortest round-trip form), so the comparison is exact.
std::string metrics_and_cost_block(const exp::ExperimentSpec& spec) {
  std::vector<std::string> specs;
  for (const auto& s : spec.series) {
    bool seen = false;
    for (const auto& t : specs) seen = seen || t == s.topology;
    if (!seen) specs.push_back(s.topology);
  }
  std::ostringstream os;
  for (const auto& t : specs) {
    auto topo = topo::make(t);
    const Graph& g = topo->graph();
    const cost::NetworkCost c = cost::evaluate_cost(*topo, cost::cable_fdr10());
    os << t << "\n"
       << "  routers=" << topo->num_routers()
       << " endpoints=" << topo->num_endpoints()
       << " radix=" << topo->network_radix() << "\n"
       << "  diameter=" << analysis::diameter(g)
       << " avg_distance=" << exp::json::number(analysis::average_distance(g))
       << " avg_endpoint_distance="
       << exp::json::number(analysis::average_endpoint_distance(*topo))
       << " connected=" << (analysis::is_connected(g) ? "yes" : "no") << "\n"
       << "  cost[fdr10]: electric=" << c.electric_cables
       << " fiber=" << c.fiber_cables
       << " routers=" << exp::json::number(c.router_cost)
       << " cables=" << exp::json::number(c.cable_cost)
       << " total=" << exp::json::number(c.total_cost)
       << " per_endpoint=" << exp::json::number(c.cost_per_endpoint) << "\n"
       << "  power: total_w=" << exp::json::number(c.watts_total)
       << " per_endpoint_w=" << exp::json::number(c.watts_per_endpoint)
       << "\n";
  }
  return os.str();
}

const std::string kMetricsPath = "tests/golden/golden_mini.metrics";

TEST(GoldenMetrics, AnalysisAndCostMatchCheckedInGolden) {
  // Pins src/analysis (BFS metrics) and src/cost (cable/router/power
  // models) for the same topology set the trajectory pins the simulator
  // for: a drive-by change to either layer fails here, not in a figure
  // reviewed by eye. Regenerate with SF_UPDATE_GOLDEN=1 (see
  // tests/golden/README.md) — and say so in the PR, it is a results change.
  const std::string got = metrics_and_cost_block(golden_spec());
  if (std::getenv("SF_UPDATE_GOLDEN")) {
    std::ofstream os(source_path(kMetricsPath));
    ASSERT_TRUE(os.good());
    os << got;
    std::cout << "updated " << kMetricsPath << "\n";
    return;
  }
  const std::string want = read_file(source_path(kMetricsPath));
  EXPECT_EQ(want, got)
      << "analysis/cost golden drifted; if the change is intentional, "
         "regenerate with SF_UPDATE_GOLDEN=1 (see tests/golden/README.md)";
}

TEST(GoldenTrajectory, PerturbedTrajectoryIsCaught) {
  exp::Trajectory golden =
      exp::load_bench_file(source_path("tests/golden/BENCH_golden_mini.json"));
  exp::Trajectory perturbed = golden;
  perturbed.points.at(3).latency += 1e-9;  // even an ULP-scale drift fails
  EXPECT_FALSE(exp::diff_trajectories(golden, perturbed).passed);
}

}  // namespace
}  // namespace slimfly
