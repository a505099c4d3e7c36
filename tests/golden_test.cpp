// Golden-trajectory regression harness: the pinned examples/suites/
// golden_mini.json suite is run here and every result field of every
// point diffed *exactly* against tests/golden/BENCH_golden_mini.json —
// the `sweep diff` comparison (exp::diff_trajectories). Bit-identical
// determinism makes exact comparison valid; the thread x oracle matrix
// re-checks it under the worker budgets the CI regression matrix uses
// (1, 4 and 32 threads: sequential, across-point, and teams of 2). The
// sibling examples/suites/golden_stepping.json — active-set stepping stress
// cases pinned from the full scan — is diffed against
// tests/golden/BENCH_golden_stepping.json under the same thread matrix.
//
// Regenerating after an intentional simulator change:
//   SF_UPDATE_GOLDEN=1 ./build/golden_test
// rewrites the two golden_mini files (the BENCH json and the .metrics
// block). The BENCH regeneration preserves the prior file's wall_seconds
// per matching point (exp::preserve_wall_seconds), so its git diff shows
// only result-bearing changes — wall time never churns. Say so in the PR —
// a golden change is a results change.

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

// Runs `spec` on `threads` workers and diffs its fresh BENCH output against
// the checked-in file at `bench_rel` — the `sweep --config` + `sweep diff`
// path, exact on every result field.
void expect_matches_bench(const exp::ExperimentSpec& spec, std::size_t threads,
                          const std::string& bench_rel, const std::string& what) {
  exp::ExperimentEngine engine(threads);
  std::ostringstream fresh;
  exp::write_json(fresh, spec, engine.run(spec), engine.threads());
  exp::Trajectory now = exp::parse_bench_json(fresh.str(), "fresh");
  exp::Trajectory golden = exp::load_bench_file(source_path(bench_rel));
  exp::DiffReport report = exp::diff_trajectories(golden, now);
  std::ostringstream os;
  exp::print_diff(os, report, false);
  EXPECT_TRUE(report.passed)
      << what << ": sweep-diff regression against " << bench_rel
      << " (tests/golden/README.md: regenerating after an intentional "
         "change):\n"
      << os.str();
  // Every pinned point compared: no truncation, nothing missing.
  EXPECT_EQ(report.compared, golden.points.size()) << what;
}

const std::string kBenchPath = "tests/golden/BENCH_golden_mini.json";

TEST(GoldenTrajectory, DiffAgainstCheckedInBenchPasses) {
  exp::ExperimentSpec spec = golden_spec();
  if (std::getenv("SF_UPDATE_GOLDEN")) {
    // Regenerate the BENCH golden, preserving the prior file's wall times
    // per matching point so the diff shows only result-bearing changes
    // (wall-derived throughput follows the preserved wall). Declared first
    // so the matrix tests below compare against the fresh file.
    exp::ExperimentEngine engine(1);
    std::vector<exp::RunResult> results = engine.run(spec);
    std::size_t preserved = 0;
    try {
      preserved = exp::preserve_wall_seconds(
          exp::load_bench_file(source_path(kBenchPath)), spec, results);
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
  expect_matches_bench(spec, 2, kBenchPath, "golden_mini");
}

TEST(GoldenTrajectory, BitIdenticalAcrossThreadAndOracleMatrix) {
  exp::ExperimentSpec spec = golden_spec();
  // SF_THREADS x forced distance oracle matrix, constructed directly so the
  // test is hermetic against the environment. The 16 points run
  // sequentially at 1 thread, one per worker at 4, and as 16 teams of 2 at
  // 32, so both parallel levels are engaged. The program normally picks
  // the oracle itself; forcing each one here keeps both backends certified
  // on every series (the family cells run DLN-UGAL-L on the compressed-BFS
  // fallback). Every cell reproduces the same pinned trajectory.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
    for (sim::OracleMode oracle :
         {sim::OracleMode::Table, sim::OracleMode::Family}) {
      exp::ExperimentSpec run = spec;
      run.config.oracle = oracle;
      expect_matches_bench(run, threads, kBenchPath,
                           "SF_THREADS=" + std::to_string(threads) +
                               " oracle=" + sim::to_string(oracle));
    }
  }
}

TEST(GoldenTrajectory, ThreadAxisIsByteIdentical) {
  // The point scheduler is execution-only: whichever runner claims a
  // point, the point's seed comes from exp::point_seed and its stepping
  // team only changes how many workers cover the fixed shard set between
  // the same barriers. Every cell must reproduce the pinned trajectory
  // exactly — including teams that grow mid-point as runners drain (16
  // points on 20 threads start as teams of one with 4 spare workers).
  for (std::size_t threads : {std::size_t{2}, std::size_t{20}}) {
    expect_matches_bench(golden_spec(), threads, kBenchPath,
                         "SF_THREADS=" + std::to_string(threads));
  }
}

TEST(GoldenStepping, MatchesCheckedInBenchAcrossThreadMatrix) {
  // The stepping-stress rows (every Slim Fly routing at a low and a
  // saturating load, worst-sf, a 70-cycle wire, credit_delay 0) under the
  // CI worker budgets. The rows hold a visit-every-router full scan's
  // outputs, pinned while that mode existed and reproduced by both modes.
  exp::ExperimentSpec spec = exp::suite_to_spec(exp::load_suite_file(
      source_path("examples/suites/golden_stepping.json")));
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
    expect_matches_bench(spec, threads,
                         "tests/golden/BENCH_golden_stepping.json",
                         "SF_THREADS=" + std::to_string(threads));
  }
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
  exp::Trajectory golden = exp::load_bench_file(source_path(kBenchPath));
  exp::Trajectory perturbed = golden;
  perturbed.points.at(3).latency += 1e-9;  // even an ULP-scale drift fails
  EXPECT_FALSE(exp::diff_trajectories(golden, perturbed).passed);
}

}  // namespace
}  // namespace slimfly
