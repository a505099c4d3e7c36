#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "exp/diff.hpp"
#include "exp/experiment.hpp"

namespace slimfly {
namespace {

/// A small fabricated two-series trajectory — no simulation needed to test
/// the join/compare machinery.
exp::ExperimentSpec fake_spec() {
  exp::ExperimentSpec spec;
  spec.name = "fake";
  spec.loads = {0.1, 0.5};
  spec.config.seed = 9;
  spec.series = {{"slimfly:q=5", "MIN", "uniform", "A", {}},
                 {"slimfly:q=5", "VAL", "uniform", "B", {}}};
  return spec;
}

std::vector<exp::RunResult> fake_results(const exp::ExperimentSpec& spec) {
  std::vector<exp::RunResult> results;
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    for (std::size_t l = 0; l < spec.loads.size(); ++l) {
      exp::RunResult r;
      r.series_index = s;
      r.load = spec.loads[l];
      r.seed = exp::point_seed(spec, s, l);
      r.wall_seconds = 0.25 + static_cast<double>(s);
      r.result.avg_latency = 10.0 + static_cast<double>(s * 10 + l);
      r.result.avg_network_latency = r.result.avg_latency - 0.5;
      r.result.p99_latency = r.result.avg_latency * 3;
      r.result.accepted_load = spec.loads[l];
      r.result.delivered = 1000 + static_cast<std::int64_t>(s * 100 + l);
      r.result.cycles = 500 + static_cast<std::int64_t>(s * 10 + l);
      r.result.saturated = false;
      results.push_back(r);
    }
  }
  return results;
}

TEST(TrajectoryJson, WriteParseRoundTrip) {
  auto spec = fake_spec();
  auto results = fake_results(spec);
  std::ostringstream os;
  exp::write_json(os, spec, results, 2);
  exp::Trajectory parsed = exp::parse_bench_json(os.str());
  exp::Trajectory direct = exp::trajectory_of(spec, results);
  EXPECT_EQ(parsed.experiment, "fake");
  ASSERT_EQ(parsed.points.size(), direct.points.size());
  for (std::size_t i = 0; i < parsed.points.size(); ++i) {
    EXPECT_EQ(parsed.points[i].key(), direct.points[i].key());
    EXPECT_EQ(parsed.points[i].seed, direct.points[i].seed);
    EXPECT_EQ(parsed.points[i].cycles, direct.points[i].cycles);
    EXPECT_EQ(parsed.points[i].latency, direct.points[i].latency);
    EXPECT_EQ(parsed.points[i].accepted, direct.points[i].accepted);
    EXPECT_EQ(parsed.points[i].delivered, direct.points[i].delivered);
    EXPECT_EQ(parsed.points[i].saturated, direct.points[i].saturated);
  }
  // The full diff pipeline sees the two representations as identical.
  exp::DiffReport report = exp::diff_trajectories(parsed, direct);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.compared, 4u);
}

TEST(TrajectoryDiff, IdenticalTrajectoriesPass) {
  auto spec = fake_spec();
  auto t = exp::trajectory_of(spec, fake_results(spec));
  exp::DiffReport report = exp::diff_trajectories(t, t);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.regressions, 0u);
}

// The one failing metric of a single-point perturbation, by name.
std::string differing_metric(const exp::DiffReport& report) {
  std::string name;
  for (const auto& point : report.points) {
    for (const auto& metric : point.metrics) {
      if (metric.differs) name += metric.name;
    }
  }
  return name;
}

TEST(TrajectoryDiff, OneUlpOfLatencyFails) {
  auto spec = fake_spec();
  auto a = exp::trajectory_of(spec, fake_results(spec));
  auto b = a;
  b.points[1].latency = std::nextafter(b.points[1].latency, 1e9);

  exp::DiffReport report = exp::diff_trajectories(a, b);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.regressions, 1u);
  EXPECT_EQ(differing_metric(report), "latency");
}

TEST(TrajectoryDiff, CyclesAreAlwaysCompared) {
  auto spec = fake_spec();
  auto a = exp::trajectory_of(spec, fake_results(spec));
  auto b = a;
  b.points[2].cycles += 1;

  exp::DiffReport report = exp::diff_trajectories(a, b);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.regressions, 1u);
  EXPECT_EQ(differing_metric(report), "cycles");
}

TEST(TrajectoryDiff, MissingPointsFail) {
  auto spec = fake_spec();
  auto a = exp::trajectory_of(spec, fake_results(spec));
  auto b = a;
  b.points.pop_back();

  exp::DiffReport report = exp::diff_trajectories(a, b);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.only_in_a.size(), 1u);
  EXPECT_EQ(report.only_in_a[0], a.points.back().key());
  EXPECT_FALSE(exp::diff_trajectories(b, a).passed);
  // Two empty trajectories never pass either (nothing compared).
  EXPECT_FALSE(exp::diff_trajectories({}, {}).passed);
}

TEST(TrajectoryDiff, SeedAndSaturationChangesFail) {
  auto spec = fake_spec();
  auto a = exp::trajectory_of(spec, fake_results(spec));

  auto b = a;
  b.points[0].seed ^= 1;
  EXPECT_FALSE(exp::diff_trajectories(a, b).passed);

  auto c = a;
  c.points[2].saturated = true;
  exp::DiffReport report = exp::diff_trajectories(a, c);
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.points[2].saturated_flip);
}

TEST(TrajectoryDiff, WallTimeIsNeverGated) {
  auto spec = fake_spec();
  auto a = exp::trajectory_of(spec, fake_results(spec));
  auto b = a;
  for (auto& point : b.points) point.wall_seconds *= 100.0;
  EXPECT_TRUE(exp::diff_trajectories(a, b).passed);
}

TEST(TrajectoryDiff, HeaderConfigIsNeverCompared) {
  // A BENCH file pinned by an older writer keeps header fields the current
  // writer no longer emits (an "engine" in the config, a different worker
  // count); only points are compared, so it must diff clean against a fresh
  // write of the same points.
  auto spec = fake_spec();
  auto results = fake_results(spec);
  std::ostringstream os;
  exp::write_json(os, spec, results, 1);
  const std::string fresh = os.str();
  ASSERT_EQ(fresh.find("\"engine\""), std::string::npos);
  std::string pinned = fresh;
  const std::string config = "\"config\": {";
  const std::size_t at = pinned.find(config);
  ASSERT_NE(at, std::string::npos);
  pinned.insert(at + config.size(), "\"engine\": \"cycle\", ");
  const std::string threads = "\"threads\": 1";
  ASSERT_NE(pinned.find(threads), std::string::npos);
  pinned.replace(pinned.find(threads), threads.size(), "\"threads\": 8");
  exp::DiffReport report = exp::diff_trajectories(
      exp::parse_bench_json(pinned, "pinned"), exp::parse_bench_json(fresh, "fresh"));
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.compared, 4u);
}

TEST(TrajectoryJson, DuplicateRunPointIdentityRejected) {
  // Two unlabeled series with identical axes collapse to one join key —
  // ambiguous, so the parser refuses instead of silently shadowing.
  exp::ExperimentSpec spec = fake_spec();
  spec.series[1] = spec.series[0];
  auto results = fake_results(spec);
  std::ostringstream os;
  exp::write_json(os, spec, results, 1);
  EXPECT_THROW(exp::parse_bench_json(os.str()), std::invalid_argument);
}

// A one-point BENCH document carrying every required point field except
// `field`: the parse must fail with an error naming the file, the point
// (JSON path and run-point identity) and the missing field.
void expect_missing_field_error(const std::string& field) {
  std::string point;
  for (const char* f : {"\"load\": 0.1", "\"seed\": 7", "\"cycles\": 300",
                        "\"latency\": 1", "\"network_latency\": 1",
                        "\"p99_latency\": 1", "\"accepted\": 0.1",
                        "\"delivered\": 10", "\"saturated\": false"}) {
    if (std::string(f).rfind("\"" + field + "\"", 0) == 0) continue;
    point += (point.empty() ? "" : ", ") + std::string(f);
  }
  try {
    exp::parse_bench_json(
        "{\"series\": [{\"label\": \"x\", \"points\": [{" + point + "}]}]}",
        "F.json");
    FAIL() << "expected invalid_argument for missing " << field;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("F.json.series[0].points[0]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("x @ 0.1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("missing \"" + field + "\""), std::string::npos) << msg;
  }
}

TEST(TrajectoryJson, MalformedDocumentsAreNamedErrors) {
  EXPECT_THROW(exp::parse_bench_json("{}"), std::invalid_argument);
  EXPECT_THROW(exp::parse_bench_json("[]"), std::invalid_argument);
  EXPECT_THROW(exp::parse_bench_json("{\"series\": [{\"points\": "
                                     "[{\"load\": 0.1}]}]}"),
               std::invalid_argument);
  expect_missing_field_error("saturated");
}

TEST(TrajectoryJson, MissingSeedIsNamedError) {
  expect_missing_field_error("seed");
}

TEST(TrajectoryJson, MissingCyclesIsNamedError) {
  expect_missing_field_error("cycles");
}

TEST(TrajectoryDiff, PrintReportsSummaryAndVerdict) {
  auto spec = fake_spec();
  auto a = exp::trajectory_of(spec, fake_results(spec));
  auto b = a;
  b.points[0].accepted += 1.0;
  exp::DiffReport report = exp::diff_trajectories(a, b);
  std::ostringstream os;
  exp::print_diff(os, report, false);
  const std::string out = os.str();
  EXPECT_NE(out.find("FAIL"), std::string::npos);
  EXPECT_NE(out.find("accepted"), std::string::npos);
  EXPECT_NE(out.find("compared 4 points"), std::string::npos);
  EXPECT_NE(out.find("not gated"), std::string::npos);
}

}  // namespace
}  // namespace slimfly
