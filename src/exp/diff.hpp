#pragma once
// BENCH trajectory comparison — the regression half of the suite firewall.
//
// A "trajectory" is the per-point stats record a run leaves behind
// (BENCH_<tag>.json, written by exp::write_json). Because the engine is
// bit-identical for every SF_THREADS value and team size, two runs of
// the same suite must produce *exactly* equal trajectories; `sweep diff`
// joins two of them on run-point identity (series label + offered load) and
// reports per-point deltas in latency/throughput metrics with configurable
// tolerances. Wall time is reported but never gated — it is the one field
// that legitimately varies between runs.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace slimfly::exp {

struct TrajectoryPoint {
  std::string label;
  std::string topology;
  std::string routing;
  std::string traffic;
  double load = 0.0;
  std::uint64_t seed = 0;
  double wall_seconds = 0.0;
  /// Process peak RSS in bytes (reported, never gated — the wall_seconds
  /// policy; 0 in BENCH files predating the field).
  std::uint64_t peak_rss_bytes = 0;
  /// Simulated cycles (deterministic; gated when both sides carry it —
  /// absent in BENCH files predating the field, parsed as -1).
  std::int64_t cycles = -1;
  /// Wall-derived throughput (reported, never gated — like wall time).
  double mcycles_per_sec = 0.0;
  double latency = 0.0;
  double network_latency = 0.0;
  double p99_latency = 0.0;
  double accepted = 0.0;
  std::int64_t delivered = 0;
  bool saturated = false;

  /// Join identity: series label + offered load (the label already encodes
  /// topology/routing/traffic/config deviations for registry-built runs).
  std::string key() const;
};

struct Trajectory {
  std::string experiment;
  std::vector<TrajectoryPoint> points;
};

/// Parses a BENCH_<tag>.json document (strict; errors name `origin` and the
/// JSON path). Throws std::invalid_argument on malformed input or duplicate
/// run-point identities.
Trajectory parse_bench_json(const std::string& text,
                            const std::string& origin = "");

/// Reads and parses a BENCH file from disk.
Trajectory load_bench_file(const std::string& path);

/// Converts engine output into a Trajectory without the JSON detour.
Trajectory trajectory_of(const ExperimentSpec& spec,
                         const std::vector<RunResult>& results);

struct DiffOptions {
  /// |a-b| <= abs_tol + rel_tol * max(|a|, |b|) per numeric metric.
  /// The defaults demand exact equality — valid because runs are
  /// deterministic.
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  /// When false (default), points present in only one trajectory fail the
  /// comparison (a shrunken grid is a regression too).
  bool allow_missing = false;
};

struct MetricDelta {
  const char* name;  ///< "latency", "accepted", ...
  double a = 0.0;
  double b = 0.0;
  bool out_of_tolerance = false;
};

struct PointDelta {
  std::string key;
  std::vector<MetricDelta> metrics;
  bool seed_mismatch = false;      ///< different seeds = different experiment
  bool saturated_flip = false;
  double wall_a = 0.0, wall_b = 0.0;  ///< informational only
  std::uint64_t rss_a = 0, rss_b = 0;  ///< peak RSS bytes; informational only
  bool out_of_tolerance = false;   ///< any metric/seed/saturation failure
};

struct DiffReport {
  std::vector<PointDelta> points;  ///< joined points, in A's order
  std::vector<std::string> only_in_a;
  std::vector<std::string> only_in_b;
  std::size_t compared = 0;
  std::size_t regressions = 0;  ///< joined points out of tolerance
  bool passed = false;          ///< overall verdict under the options used
};

DiffReport diff_trajectories(const Trajectory& a, const Trajectory& b,
                             const DiffOptions& options = {});

/// Human-readable report: per-point failures (or all deltas when `verbose`),
/// missing points, and a one-line summary with total wall-time change.
void print_diff(std::ostream& os, const DiffReport& report, bool verbose);

/// Copies wall_seconds — and peak_rss_bytes, when the prior point carries a
/// nonzero value — from matching points of `prior` (joined on run-point
/// identity) onto `results`, returning the number patched. Golden
/// regeneration uses this so a regenerated BENCH file differs only in
/// result-bearing fields — wall time (and the throughput derived from it)
/// and the machine-dependent RSS stay at the checked-in values instead of
/// churning every regen. A prior file predating peak_rss_bytes (parsed as
/// 0) keeps the fresh measurement, so the field appears on first regen.
std::size_t preserve_wall_seconds(const Trajectory& prior,
                                 const ExperimentSpec& spec,
                                 std::vector<RunResult>& results);

/// Canonical golden-trajectory serialization: one '|'-separated line per
/// kept point (label, axes, load, seed, every stats field — wall time
/// excluded), preceded by a version header. Byte-for-byte stable across
/// thread counts, which makes exact golden-file comparison valid
/// (tests/golden_test.cpp, tests/golden/).
std::string golden_trajectory(const ExperimentSpec& spec,
                              const std::vector<RunResult>& results);

}  // namespace slimfly::exp
