#pragma once
// Simulator configuration (paper Section V, "Performance" methodology):
// single-flit packets, Bernoulli injection, input-queued routers with
// credit-based virtual-channel flow control, internal speedup 2, 64-flit
// default buffering per port, 2-cycle credit processing, 1-cycle channel /
// allocation / crossbar stages.

#include <cstdint>
#include <functional>

namespace slimfly::sim {

/// The one stepping mode a Network has: the active set (per-shard busy
/// masks plus future wake times; quiet routers are skipped and idle
/// stretches fast-forward — see docs/ARCHITECTURE.md §"Stepping"). Kept as
/// a type only because the benchmark driver prints SimConfig::engine.
enum class StepEngine : std::uint8_t { Active = 1 };

inline const char* to_string(StepEngine) { return "active"; }

/// Distance-oracle selection. Every oracle returns exactly the BFS
/// distances (certified by tests/oracle_test.cpp) and consumes the RNG
/// stream bit-identically in sample_minimal_path, so results never depend
/// on it. Speed does: a table lookup is one load, a family query is
/// arithmetic or a scan, and UGAL routing queries per candidate per packet
/// (forcing Family on the Figure 6 grid costs about 2.6x the CPU). The
/// program picks (Auto); forcing a backend is a test hook.
///
///   Auto   — dense DistanceTable up to kDenseOracleRouterLimit (4096)
///            routers, where O(N^2) bytes are cheap and queries fastest;
///            the per-family oracle beyond, where the table would not fit.
///   Table  — always the dense O(N^2) reference table.
///   Family — always the per-family oracle (adjacency for diameter-2
///            slimfly/augmented graphs, coordinate arithmetic for
///            torus/hypercube/flatbutterfly, level rules for
///            fattree/dragonfly, compressed BFS fallback for the random
///            families) — see sim/routing/oracle.hpp.
enum class OracleMode : std::uint8_t { Auto = 0, Table = 1, Family = 2 };

inline const char* to_string(OracleMode mode) {
  switch (mode) {
    case OracleMode::Table: return "table";
    case OracleMode::Family: return "family";
    default: return "auto";
  }
}

struct SimConfig {
  int num_vcs = 4;             ///< VC = hop index (Gopal); 4 covers <=4-hop paths
  int buffer_per_port = 64;    ///< total flit slots per input port (all VCs)
  int channel_latency = 1;     ///< cycles on the wire
  int router_pipeline = 2;     ///< SA + crossbar stages folded together
  int credit_delay = 2;        ///< cycles to return a credit upstream
  int alloc_iterations = 2;    ///< internal speedup
  int output_staging = 4;      ///< slots between crossbar and channel

  std::int64_t warmup_cycles = 2000;
  std::int64_t measure_cycles = 2000;
  std::int64_t drain_cycles = 30000;   ///< cap on the drain phase
  double latency_cap = 2000.0;         ///< declare saturation beyond this

  std::uint64_t seed = 1;

  /// Shard count of a Network built directly (tests, examples, benchmark
  /// drivers): 1 (the default) steps sequentially, N > 1 shards routers
  /// over N workers with barriers between the cycle phases; values below 1
  /// mean 1 and the router count caps it. ExperimentEngine ignores it and
  /// sizes every point itself (see exp/experiment.hpp). Results are
  /// bit-identical for every value: the field only trades wall-clock time.
  int intra_threads = 1;

  /// Stepping mode: always the active set, so not settable (StepEngine).
  static constexpr StepEngine engine = StepEngine::Active;

  /// Distance-oracle backend. Auto (the default) lets the program choose;
  /// forcing Table or Family is a test hook that certifies both backends.
  /// Never changes results; see OracleMode.
  OracleMode oracle = OracleMode::Auto;

  /// Windowed-stats bucket width in cycles; 0 (the default) disables
  /// windowed collection. When > 0, every window of W cycles accumulates a
  /// WindowStats row (generated/delivered/latency/dependency stalls — see
  /// stats.hpp) exposed as SimResult::windows and in BENCH JSON. Pure
  /// observation: never changes simulation results, so it is excluded from
  /// exp::point_seed hashing and allowed per-series in suites.
  std::int64_t stats_window = 0;

  /// Execution-only hook the Network polls once per step(), serially
  /// between cycles: lets an external scheduler (the experiment engine,
  /// whose runners hand workers freed at the tail of a grid to the points
  /// still running — see ExperimentEngine::run) grow or shrink the
  /// intra-point worker team while the point runs. The returned count is
  /// clamped to [1, intra_threads]; null (the default) keeps a fixed team.
  /// Like intra_threads itself this never changes results — workers cover
  /// contiguous shard ranges between the same global phase barriers for
  /// every team size — so it is excluded from exp::point_seed hashing.
  std::function<int()> team_provider;

  /// Flit slots available to each VC.
  int buffer_per_vc() const { return buffer_per_port / num_vcs; }
};

}  // namespace slimfly::sim
