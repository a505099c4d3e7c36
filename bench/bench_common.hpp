#pragma once
// Shared scaffolding for the per-figure/table bench binaries.
//
// Scale: SF_BENCH_SCALE=small (default) runs ~2K-endpoint networks so the
// whole suite finishes on a laptop; SF_BENCH_SCALE=paper uses the paper's
// ~10K-endpoint configurations (q=19 Slim Fly, k=27 Dragonfly, k=44 fat
// tree). The paper reports that 1K-10K networks agree within 10%
// (Section V), so the small scale preserves every qualitative conclusion.
//
// Figure sweeps are declarative: bench binaries build an
// exp::ExperimentSpec (registry strings for every axis) and hand it to the
// ExperimentEngine, which runs all points in parallel (SF_THREADS workers,
// 0/unset = all cores) and drops BENCH_<tag>.json next to the binary's cwd.

#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace slimfly::bench {

inline bool paper_scale() {
  const char* env = std::getenv("SF_BENCH_SCALE");
  return env && std::string(env) == "paper";
}

/// Topology registry specs for the Section V evaluation trio
/// (Slim Fly / Dragonfly / fat tree), balanced and of comparable size.
/// Index 0 = SF, 1 = DF, 2 = FT.
inline std::vector<std::string> eval_trio_specs() {
  if (paper_scale()) {
    return {"slimfly:q=19",               // N=10830, k=44
            "dragonfly:p=7,a=14,h=7,g=99",// N=9702,  k=27
            "fattree:k=22"};              // N=10648, k=44
  }
  return {"slimfly:q=7",                  // N=588,  k=17
          "dragonfly:p=4,a=8,h=4,g=33",   // N=1056, k=15
          "fattree:k=8"};                 // N=512,  k=16
}

/// The trio as typed topology objects, for benches that need member access
/// (buffer studies, cost model). Thin wrapper over the topology registry.
struct EvalTrio {
  std::unique_ptr<sf::SlimFlyMMS> sf;
  std::unique_ptr<Dragonfly> df;
  std::unique_ptr<FatTree3> ft;
};

template <class T>
std::unique_ptr<T> topo_cast(std::unique_ptr<Topology> topo) {
  auto* typed = dynamic_cast<T*>(topo.get());
  if (!typed) throw std::logic_error("eval trio spec built unexpected type");
  topo.release();
  return std::unique_ptr<T>(typed);
}

inline EvalTrio make_eval_trio() {
  auto specs = eval_trio_specs();
  EvalTrio trio;
  trio.sf = topo_cast<sf::SlimFlyMMS>(topo::make(specs[0]));
  trio.df = topo_cast<Dragonfly>(topo::make(specs[1]));
  trio.ft = topo_cast<FatTree3>(topo::make(specs[2]));
  return trio;
}

inline sim::SimConfig make_sim_config() {
  sim::SimConfig cfg;
  if (paper_scale()) {
    cfg.warmup_cycles = 3000;
    cfg.measure_cycles = 3000;
    cfg.drain_cycles = 40000;
  } else {
    cfg.warmup_cycles = 800;
    cfg.measure_cycles = 1000;
    cfg.drain_cycles = 8000;
  }
  // Router-parallel stepping inside each point (SF_INTRA_THREADS; 0 lets
  // the engine split workers between the two levels). Never changes
  // results, only wall time — see docs/ARCHITECTURE.md.
  cfg.intra_threads = exp::intra_threads_from_env();
  // Distance oracle (SF_ORACLE: auto | table | family). Bit-identical
  // results either way; family sidesteps the O(N^2) BFS table at scale.
  cfg.oracle = exp::oracle_from_env();
  return cfg;
}

/// Offered-load grid used by the Figure 8 sweeps and the sweep CLI default.
inline std::vector<double> bench_loads() {
  return {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

inline void print_table(const std::string& tag, const std::string& title,
                        const Table& table) {
  std::cout << "\n== " << tag << ": " << title << " ==\n";
  table.print(std::cout);
  table.print_csv(std::cout, tag);
  std::cout.flush();
}

/// One-line host shape + resolved worker split, printed at bench startup so
/// every BENCH log records how the machine was actually used (the numbers
/// are execution-only — results never depend on them).
inline void print_host_shape(const exp::ExperimentEngine& engine,
                             std::size_t n_points, int requested_intra) {
  const auto sched = engine.schedule(n_points, requested_intra);
  std::cout << "[host] hardware_concurrency="
            << std::thread::hardware_concurrency() << " engine_threads="
            << engine.threads() << " scheduler="
            << exp::to_string(engine.scheduler()) << " across=" << sched.first
            << " intra=" << sched.second
            << (engine.scheduler() == exp::SchedulerMode::Stealing
                    ? " (stealing: intra grows as points drain)"
                    : "")
            << "\n"
            << std::flush;
}

/// Runs a spec on the engine, prints the table + CSV, writes
/// BENCH_<spec.name>.json, and reports points/threads/wall time.
/// `threads` 0 defers to SF_THREADS / hardware (the engine's own policy);
/// `scheduler` unset defers to SF_SCHEDULER (static when that is unset).
inline void run_experiment(
    const exp::ExperimentSpec& spec, const std::string& title,
    std::size_t threads = 0,
    std::optional<exp::SchedulerMode> scheduler = std::nullopt) {
  exp::ExperimentEngine engine(threads);
  if (scheduler) engine.set_scheduler(*scheduler);
  print_host_shape(engine, spec.series.size() * spec.loads.size(),
                   spec.config.intra_threads);
  Timer timer;
  // Progress heartbeat: paper-scale runs take hours, so echo each finished
  // point (matches the old per-series "done" lines, at finer grain).
  auto results = engine.run(
      spec, [&spec](const exp::PreparedSeries& series,
                    const exp::RunResult& point) {
        // Saturated points may be dropped from the final table/JSON when
        // the spec truncates at saturation, hence the marker: more "done"
        // lines than kept points is expected in parallel runs.
        std::cout << "  [" << spec.name << "] " << series.label << " @ "
                  << Table::num(point.load, 2) << " done ("
                  << Table::num(point.wall_seconds, 1) << "s)"
                  << (point.result.saturated ? " [saturated]" : "") << "\n"
                  << std::flush;
      });
  double wall = timer.seconds();
  print_table(spec.name, title, exp::to_table(spec, results));
  std::string json = exp::write_json_file(spec, results, engine.threads());
  std::string csv = exp::write_csv_file(spec, results);
  std::cout << "[" << spec.name << "] " << results.size() << " points kept on "
            << engine.threads() << " threads in " << Table::num(wall, 2)
            << "s" << (json.empty() ? "" : ", wrote " + json)
            << (csv.empty() ? "" : " + " + csv) << "\n"
            << std::flush;
}

}  // namespace slimfly::bench
