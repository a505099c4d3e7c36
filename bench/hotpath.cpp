// Hot-path microbenchmark: a small battery of simulation points, each run
// under BOTH stepping modes forced (cycle and active), reporting the
// stepping loop's work rate — simulated Mcycles/s and flit-hops/s (one
// flit-hop per crossbar grant) — plus how many cycles the active mode
// actually stepped versus fast-forwarded, next to the mode the Network
// picks on its own for the cell (Network::auto_step_engine). Writes
// BENCH_hotpath.json for the CI perf-smoke job, which uploads it as an
// artifact; throughput is reported, never gated, matching the `sweep diff`
// wall-time policy.
//
// Battery cells:
//   * reference — slimfly:q=11 | UGAL-L | uniform @ 0.5, the README's
//     before/after point (busy network; the cycle engine's home turf).
//   * lowload   — torus:dims=8x8x8 | MIN | stencil3d @ 0.002, a mostly-idle
//     network where the active engine's router skipping dominates.
//   * drain     — slimfly:q=11 | UGAL-L | uniform @ 0.7, where the
//     post-injection drain tail is the bulk of the simulated cycles.
//
//   hotpath [--topo SPEC] [--routing SPEC] [--traffic NAME] [--load L]
//           [--out PATH]
//
// Passing any of --topo/--routing/--traffic/--load replaces the battery
// with that single custom cell (still run under both modes).
// SF_BENCH_SCALE / SF_INTRA_THREADS apply as everywhere else.

#include <cstring>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exp/json.hpp"
#include "sim/network.hpp"
#include "util/rss.hpp"

namespace {

using namespace slimfly;

int usage(const char* argv0, int code) {
  std::cout << "usage: " << argv0
            << " [--topo SPEC] [--routing SPEC] [--traffic NAME]\n"
               "       [--load L] [--out PATH]\n"
               "defaults: the three-cell battery (reference / lowload / "
               "drain),\nBENCH_hotpath.json; any cell flag switches to a "
               "single custom cell.\nEvery cell runs under both stepping "
               "modes, forced.\n";
  return code;
}

struct Cell {
  std::string name;
  std::string topo;
  std::string routing;
  std::string traffic;
  double load = 0.5;
  /// Extra simulated cycles for cells whose wall time would otherwise be
  /// too short to time reliably (0 = the SF_BENCH_SCALE default).
  std::int64_t min_measure = 0;
};

struct EngineRun {
  sim::SimResult res;
  sim::StepEngine chosen = sim::StepEngine::Auto;  ///< the automatic choice
  double wall = 0.0;
  double mcyc = 0.0;
  double fhps = 0.0;
};

struct CellResult {
  Cell cell;
  EngineRun cycle;
  EngineRun active;
  double speedup = 0.0;  ///< active Mcycles/s over cycle Mcycles/s
  /// Process peak RSS after this cell's runs — monotone over the process,
  /// so the first (largest-network) cell is the meaningful reading; the CI
  /// soft-compare reports its delta PR-over-PR, never gates it.
  std::uint64_t peak_rss = 0;
};

EngineRun run_cell(const Cell& cell, sim::StepEngine engine,
                   int intra_override = -1) {
  auto topo = topo::make(cell.topo);
  auto bundle = sim::make_routing_spec(cell.routing, *topo);
  auto traffic = sim::make_traffic(cell.traffic, *topo);
  EngineRun run;
  run.chosen = sim::Network::auto_step_engine(*traffic, cell.load);
  sim::SimConfig cfg = bench::make_sim_config();
  cfg.engine = engine;
  if (intra_override >= 0) cfg.intra_threads = intra_override;
  if (cfg.num_vcs < bundle.algorithm->max_hops()) {
    cfg.num_vcs = bundle.algorithm->max_hops();
  }
  if (cfg.measure_cycles < cell.min_measure) {
    cfg.measure_cycles = cell.min_measure;
  }

  sim::Network net(*topo, *bundle.algorithm, *traffic, cfg, cell.load);
  // Pre-reserve the latency pools so the measured region is exactly the
  // allocation-free steady-state loop (tests/hotpath_test.cpp asserts
  // that property under a counting allocator, for both engines).
  net.reserve_measurement_stats();
  Timer timer;
  run.res = net.run();
  run.wall = timer.seconds();
  if (run.wall > 0.0) {
    run.mcyc = static_cast<double>(run.res.cycles) / run.wall / 1e6;
    run.fhps = static_cast<double>(run.res.flit_hops) / run.wall;
  }
  return run;
}

void print_engine_line(const char* name, const EngineRun& r) {
  std::cout << "  " << name << ": " << exp::json::number(r.mcyc)
            << " Mcycles/s, " << exp::json::number(r.fhps)
            << " flit-hops/s, wall " << exp::json::number(r.wall) << " s\n"
            << "    cycles " << r.res.cycles << " (stepped "
            << r.res.cycles_stepped << ", fast-forwarded "
            << (r.res.cycles - r.res.cycles_stepped) << ")\n";
}

void write_engine_json(std::ostream& os, const EngineRun& r) {
  const char* in = "          ";
  os << in << "\"cycles\": " << r.res.cycles << ",\n"
     << in << "\"cycles_stepped\": " << r.res.cycles_stepped << ",\n"
     << in << "\"cycles_fast_forwarded\": "
     << (r.res.cycles - r.res.cycles_stepped) << ",\n"
     << in << "\"flit_hops\": " << r.res.flit_hops << ",\n"
     << in << "\"wall_seconds\": " << exp::json::number(r.wall) << ",\n"
     << in << "\"mcycles_per_sec\": " << exp::json::number(r.mcyc) << ",\n"
     << in << "\"flit_hops_per_sec\": " << exp::json::number(r.fhps) << ",\n"
     << in << "\"latency\": " << exp::json::number(r.res.avg_latency)
     << ",\n"
     << in << "\"accepted\": " << exp::json::number(r.res.accepted_load)
     << ",\n"
     << in << "\"saturated\": " << (r.res.saturated ? "true" : "false")
     << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  Cell custom{"custom", "slimfly:q=11", "UGAL-L", "uniform", 0.5, 0};
  bool single = false;

  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--topo")) {
        custom.topo = next_arg(i);
        single = true;
      } else if (!std::strcmp(argv[i], "--routing")) {
        custom.routing = next_arg(i);
        single = true;
      } else if (!std::strcmp(argv[i], "--traffic")) {
        custom.traffic = next_arg(i);
        single = true;
      } else if (!std::strcmp(argv[i], "--load")) {
        std::size_t pos = 0;
        custom.load = std::stod(next_arg(i), &pos);
        if (custom.load <= 0.0)
          throw std::invalid_argument("--load must be > 0");
        single = true;
      } else if (!std::strcmp(argv[i], "--out")) {
        out_path = next_arg(i);
      } else {
        return usage(argv[0], 2);
      }
    }

    // Host shape, so every BENCH log records how the machine was used —
    // the numbers are execution-only, results never depend on them.
    std::cout << "[host] hardware_concurrency="
              << std::thread::hardware_concurrency()
              << " intra_threads=" << exp::intra_threads_from_env()
              << " (SF_INTRA_THREADS; 0 = all cores per point)\n"
              << std::flush;

    std::vector<Cell> cells;
    if (single) {
      cells.push_back(custom);
    } else {
      cells.push_back(
          {"reference", "slimfly:q=11", "UGAL-L", "uniform", 0.5, 0});
      // The low-load cell gets a longer measured window: at ~1 injected
      // packet per cycle network-wide its wall time under the active
      // engine would otherwise be too short to time.
      cells.push_back({"lowload", "torus:dims=8x8x8", "MIN", "stencil3d",
                       0.002, 6000});
      cells.push_back(
          {"drain", "slimfly:q=11", "UGAL-L", "uniform", 0.7, 0});
      // Sparse ON/OFF tenants: long OFF segments leave most routers idle,
      // so the cell records how much of the burst workload's idle time the
      // active engine's wake scheduling reclaims.
      cells.push_back({"sparse-burst", "slimfly:q=11", "MIN",
                       "burst:on=40,off=2000,mult=25,base=uniform", 0.02,
                       6000});
    }

    std::vector<CellResult> results;
    for (const Cell& cell : cells) {
      std::cout << "hotpath[" << cell.name << "]: " << cell.topo << " | "
                << cell.routing << " | " << cell.traffic << " @ "
                << cell.load << "\n";
      CellResult r;
      r.cell = cell;
      r.cycle = run_cell(cell, sim::StepEngine::Cycle);
      r.active = run_cell(cell, sim::StepEngine::Active);
      r.speedup = r.cycle.mcyc > 0.0 ? r.active.mcyc / r.cycle.mcyc : 0.0;
      r.peak_rss = peak_rss_bytes();
      print_engine_line("engine cycle ", r.cycle);
      print_engine_line("engine active", r.active);
      std::cout << "  active/cycle speedup: "
                << exp::json::number(r.speedup) << "x, auto picks "
                << sim::to_string(r.cycle.chosen) << "\n";
      results.push_back(std::move(r));
    }

    // Intra-point scaling curve: the reference cell re-run under the cycle
    // engine with fixed stepping teams of 1/2/4 (+ all hardware threads
    // when the host has more). Recorded in the BENCH trajectory so the
    // multi-core speedup (or, on small hosts, the barrier overhead of
    // oversubscribed teams) is a tracked number, not folklore. Results are
    // bit-identical for every team size; only the wall time moves.
    struct ScalePoint {
      int workers;
      double wall;
      double mcyc;
    };
    std::vector<ScalePoint> scaling;
    if (!single) {
      std::vector<int> teams = {1, 2, 4};
      const int hw = static_cast<int>(std::thread::hardware_concurrency());
      if (hw > 4) teams.push_back(hw);
      std::cout << "hotpath[scaling]: " << cells.front().topo
                << " | cycle engine | intra team sweep\n";
      for (int w : teams) {
        EngineRun r = run_cell(cells.front(), sim::StepEngine::Cycle, w);
        scaling.push_back({w, r.wall, r.mcyc});
        std::cout << "  intra=" << w << ": " << exp::json::number(r.mcyc)
                  << " Mcycles/s, wall " << exp::json::number(r.wall)
                  << " s\n";
      }
    }

    std::ofstream os(out_path);
    if (!os) throw std::invalid_argument("cannot write \"" + out_path + "\"");
    os << "{\n  \"bench\": \"hotpath\",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      os << "    {\n"
         << "      \"name\": " << exp::json::quote(r.cell.name) << ",\n"
         << "      \"topology\": " << exp::json::quote(r.cell.topo) << ",\n"
         << "      \"routing\": " << exp::json::quote(r.cell.routing)
         << ",\n"
         << "      \"traffic\": " << exp::json::quote(r.cell.traffic)
         << ",\n"
         << "      \"load\": " << exp::json::number(r.cell.load) << ",\n"
         << "      \"active_speedup\": " << exp::json::number(r.speedup)
         << ",\n"
         << "      \"auto_engine\": "
         << exp::json::quote(sim::to_string(r.cycle.chosen)) << ",\n"
         << "      \"peak_rss_bytes\": " << r.peak_rss << ",\n"
         << "      \"engines\": {\n        \"cycle\": {\n";
      write_engine_json(os, r.cycle);
      os << "        },\n        \"active\": {\n";
      write_engine_json(os, r.active);
      os << "        }\n      }\n    }"
         << (i + 1 < results.size() ? "," : "") << "\n";
    }
    // The first cell's cycle-engine numbers also land at the top level,
    // keeping older BENCH_hotpath.json consumers working.
    const CellResult& head = results.front();
    os << "  ],\n";
    if (!scaling.empty()) {
      os << "  \"intra_scaling\": [\n";
      for (std::size_t i = 0; i < scaling.size(); ++i) {
        os << "    {\"workers\": " << scaling[i].workers
           << ", \"wall_seconds\": " << exp::json::number(scaling[i].wall)
           << ", \"mcycles_per_sec\": " << exp::json::number(scaling[i].mcyc)
           << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
      }
      os << "  ],\n";
    }
    os << "  \"topology\": " << exp::json::quote(head.cell.topo) << ",\n"
       << "  \"routing\": " << exp::json::quote(head.cell.routing) << ",\n"
       << "  \"traffic\": " << exp::json::quote(head.cell.traffic) << ",\n"
       << "  \"load\": " << exp::json::number(head.cell.load) << ",\n"
       << "  \"intra_threads\": " << exp::intra_threads_from_env() << ",\n"
       << "  \"cycles\": " << head.cycle.res.cycles << ",\n"
       << "  \"flit_hops\": " << head.cycle.res.flit_hops << ",\n"
       << "  \"wall_seconds\": " << exp::json::number(head.cycle.wall)
       << ",\n"
       << "  \"mcycles_per_sec\": " << exp::json::number(head.cycle.mcyc)
       << ",\n"
       << "  \"flit_hops_per_sec\": " << exp::json::number(head.cycle.fhps)
       << ",\n"
       << "  \"latency\": "
       << exp::json::number(head.cycle.res.avg_latency) << ",\n"
       << "  \"accepted\": "
       << exp::json::number(head.cycle.res.accepted_load) << ",\n"
       << "  \"saturated\": "
       << (head.cycle.res.saturated ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "wrote " << out_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
