#pragma once
// ExperimentEngine — the paper's evaluation as data (Section V cross-product
// of topologies x routings x traffics x offered loads).
//
// An ExperimentSpec names every axis with registry strings (topo::make
// specs, sim::routing_names(), sim::traffic_names()); the engine expands it
// into independent run points and executes them over a ThreadPool.
//
// Thread-safety contract (audited; keep it when touching the simulator):
//   * Each run point owns its Network, its RNG streams (seeded
//     deterministically from the spec and the point, never from thread
//     identity), its RoutingAlgorithm instance, and its TrafficPattern
//     instance.
//   * Topology and DistanceOracle are built once per topology spec and
//     shared across points strictly read-only (const references /
//     shared_ptr<const>-style usage; sample_minimal_path is const and
//     draws from the caller's Rng).
// Consequently a parallel run is bit-identical to a single-threaded run of
// the same spec (covered by tests/experiment_test.cpp).
//
// Two composable parallelism levels (docs/ARCHITECTURE.md has the full
// decision guide), both sized by the engine from its worker budget
// (SF_THREADS):
//   * across points — independent run points over the engine's ThreadPool;
//     ideal for wide grids of small/medium points.
//   * within a point — router-parallel stepping workers inside each
//     Network; ideal for a few paper-scale points that would otherwise
//     serialize.
// run() composes them without oversubscription: schedule() picks a
// starting split of across-point runners x per-point intra workers (wide
// grids, points >= threads, go fully across-point; narrow grids split the
// workers evenly across the few points). From there the runners hand
// workers on: a runner that drains the grid gives its workers to the
// points still running, whose teams grow up to the whole budget.
// Neither level affects results — only wall-clock time.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/routing/routing.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "util/table.hpp"

namespace slimfly {
class ThreadPool;
class Topology;
}  // namespace slimfly

namespace slimfly::exp {

/// String-keyed SimConfig overrides ("buffer_per_port": 128, ...), the
/// mechanism behind per-series parameter studies (Figure 8a's buffer sweep)
/// and suite-file config blocks. Ordered so serialization is deterministic.
using ConfigOverrides = std::map<std::string, double>;

/// Applies overrides onto `base`. Keys are the SimConfig field names
/// (num_vcs, buffer_per_port, channel_latency, router_pipeline,
/// credit_delay, alloc_iterations, output_staging, warmup_cycles,
/// measure_cycles, drain_cycles, latency_cap, stats_window); with
/// `allow_run_keys` also seed (suite-level blocks own it; per-series blocks
/// must not — stats_window is allowed per series because it cannot change
/// results and point_seed skips it) and intra_threads, accepted only as 0
/// so older suite files still load: the engine picks the split itself.
/// Unknown keys and non-integral values for integer fields throw
/// std::invalid_argument naming the key and `context`.
sim::SimConfig apply_config_overrides(sim::SimConfig base,
                                      const ConfigOverrides& overrides,
                                      bool allow_run_keys,
                                      const std::string& context);

/// One latency-vs-load curve, every axis a registry string.
struct SeriesSpec {
  std::string topology;  ///< topo::make spec, e.g. "slimfly:q=19"
  std::string routing;   ///< routing spec, e.g. "UGAL-L" or "UGAL-L:c=8"
  std::string traffic;   ///< traffic name, e.g. "uniform"
  std::string label;     ///< row label; "" means topology|routing|traffic
  /// SimConfig deviations for this series only (see apply_config_overrides);
  /// empty for the common case. Feeds the per-point seed so two series
  /// differing only in config draw different streams.
  ConfigOverrides config_overrides = {};
  std::string display_label() const;
};

struct ExperimentSpec {
  std::string name;                 ///< tag used for tables and BENCH_*.json
  std::vector<SeriesSpec> series;
  std::vector<double> loads;        ///< offered loads, ascending
  sim::SimConfig config;            ///< config.seed is the base seed
  /// Drop a series' points after its first saturated load, matching the
  /// sequential sweep methodology (a parallel run still executes them).
  bool truncate_at_saturation = true;

  /// Cross-product helper: one series per compatible combination;
  /// topology-specific routings/traffics silently skip non-matching
  /// topologies (DF-UGAL-L only rides Dragonfly specs, worst-ft only
  /// fat-tree specs, ...). Every spec string is validated
  /// (series_conflict), so a malformed one throws.
  static ExperimentSpec cross(std::string name,
                              const std::vector<std::string>& topologies,
                              const std::vector<std::string>& routings,
                              const std::vector<std::string>& traffics,
                              std::vector<double> loads,
                              sim::SimConfig config);
};

/// The one series check, shared by ExperimentSpec::cross, run(), the suite
/// loader and suite_from_spec: reads the three spec strings, building
/// nothing, and returns "" when the routing and traffic may run on the
/// topology, else why not ("routing FT-ANCA cannot run on topology
/// slimfly:q=5"). A malformed spec throws std::invalid_argument prefixed
/// with `context`.
std::string series_conflict(const std::string& topology,
                            const std::string& routing,
                            const std::string& traffic,
                            const std::string& context);

/// Outcome of one expanded run point.
struct RunResult {
  std::size_t series_index = 0;
  double load = 0.0;
  std::uint64_t seed = 0;      ///< per-point seed actually used
  double wall_seconds = 0.0;   ///< wall time of this point on its worker
  /// Process peak RSS in bytes when the point finished (util/rss.hpp);
  /// monotone across points. Reported in BENCH files, never gated.
  std::uint64_t peak_rss_bytes = 0;
  sim::SimResult result;
};

/// Per-point simulator throughput: simulated cycles per wall second, in
/// millions (0 when no wall time was recorded). The perf trajectory field
/// written into every BENCH_*.json — wall-derived, so reported but never
/// gated by `sweep diff`.
double mcycles_per_sec(const RunResult& r);

/// Deterministic per-point seed: a hash of the base seed, the series'
/// identity strings, and the load index — independent of thread schedule.
std::uint64_t point_seed(const ExperimentSpec& spec, std::size_t series_index,
                         std::size_t load_index);

/// Worker count policy: SF_THREADS env var when set and > 0;
/// SF_THREADS=0, unset, or unparsable means hardware_concurrency().
std::size_t threads_from_env();

/// The one point scheduler run() has; kept as a type only because the
/// benchmark driver prints it.
enum class SchedulerMode : std::uint8_t { Chunked = 0 };

inline const char* to_string(SchedulerMode) { return "chunked"; }

/// One series as run() prepares it: the shared topology plus per-point
/// routing and traffic factories. ProgressFn hands it to callers.
struct PreparedSeries {
  const Topology* topo = nullptr;  ///< shared read-only across points
  /// Fresh routing instance per point (may close over a shared const
  /// DistanceTable; a single-threaded run may return the same instance).
  std::function<std::shared_ptr<sim::RoutingAlgorithm>()> make_routing;
  /// Fresh traffic instance per point (patterns carry per-run state).
  std::function<std::unique_ptr<sim::TrafficPattern>()> make_traffic;
  std::string label;
  /// Applied onto the experiment's SimConfig for this series' points.
  ConfigOverrides config_overrides;
};

class ExperimentEngine {
 public:
  /// threads == 0 defers to threads_from_env().
  explicit ExperimentEngine(std::size_t threads = 0);
  ~ExperimentEngine();

  std::size_t threads() const;

  SchedulerMode scheduler() const { return SchedulerMode::Chunked; }

  /// Completion hook for long runs: called once per finished point, from
  /// worker threads but never concurrently (the engine serializes calls).
  using ProgressFn = std::function<void(const PreparedSeries& series,
                                        const RunResult& point)>;

  /// Expands and runs a registry-keyed spec. Topologies and distance
  /// oracles (SimConfig::oracle picks the backend for the whole run) are
  /// built once per distinct topology string (in parallel), then all
  /// points run over the pool. Results are ordered by (series, load).
  /// When points run one at a time (one engine worker) and
  /// truncate_at_saturation is set, loads past a series' first saturated
  /// point are skipped entirely (a sequential early stop); an across-point
  /// parallel run skips a point once a lower load of its series is known
  /// saturated and drops the rest after the fact — either way the returned
  /// points are identical. A point that throws poisons only itself: the
  /// others still run, then the lowest-index error is rethrown.
  std::vector<RunResult> run(const ExperimentSpec& spec,
                             const ProgressFn& on_point = {});

  /// The starting (across-point runners, per-point intra team) run() uses
  /// for a grid of `n_points`: {threads(), 1} when points >= threads(),
  /// else {n_points, threads() / n_points}. `requested_intra` is ignored
  /// (the benchmark driver still passes SimConfig::intra_threads).
  /// Exposed for tests and the benchmark; the product never exceeds
  /// threads().
  std::pair<std::size_t, int> schedule(std::size_t n_points,
                                       int requested_intra) const;

 private:
  /// Inline loop when width <= 1; otherwise parallel_for_checked over a
  /// lazily-created pool of `width` workers (so sequential wrappers never
  /// spawn workers they won't use).
  void for_indices(std::size_t n, std::size_t width,
                   const std::function<void(std::size_t)>& body);

  std::size_t threads_ = 1;
  std::size_t pool_width_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

// ---- result sinks ----------------------------------------------------------

/// Rows in the bench latency-table shape:
/// series | offered | latency | net_latency | accepted | saturated.
Table to_table(const ExperimentSpec& spec,
               const std::vector<RunResult>& results);

/// Machine-readable dump: spec, per-series points with seed, wall time and
/// every SimResult field.
void write_json(std::ostream& os, const ExperimentSpec& spec,
                const std::vector<RunResult>& results, std::size_t threads);

/// Writes write_json() output to `dir`/BENCH_<spec.name>.json; returns the
/// path ("" and a stderr note when the file cannot be opened).
std::string write_json_file(const ExperimentSpec& spec,
                            const std::vector<RunResult>& results,
                            std::size_t threads, const std::string& dir = ".");

/// CSV with one line per point: label,topology,routing,traffic,load,...
/// (fields carrying separators are RFC 4180-quoted).
void write_csv(std::ostream& os, const ExperimentSpec& spec,
               const std::vector<RunResult>& results);

/// Writes write_csv() output to `dir`/BENCH_<spec.name>.csv; returns the
/// path ("" and a stderr note when the file cannot be opened).
std::string write_csv_file(const ExperimentSpec& spec,
                           const std::vector<RunResult>& results,
                           const std::string& dir = ".");

}  // namespace slimfly::exp
