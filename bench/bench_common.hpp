#pragma once
// Shared scaffolding for the per-figure/table bench binaries.
//
// Scale: SF_BENCH_SCALE=small (default) runs ~2K-endpoint networks so the
// whole suite finishes on a laptop; SF_BENCH_SCALE=paper uses the paper's
// ~10K-endpoint configurations (q=19 Slim Fly, k=27 Dragonfly, k=44 fat
// tree). The paper reports that 1K-10K networks agree within 10%
// (Section V), so the small scale preserves every qualitative conclusion.
//
// Latency-vs-load figures have no binaries of their own: their grids are
// suite files under examples/suites/, run by `sweep --config` (bench/
// sweep.cpp), which also takes the defaults below for ad-hoc sweeps.

#include <cstdlib>
#include <iostream>
#include <string>
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
  return cfg;
}

/// Offered-load grid of the sweep CLI default (the Figure 6 grid).
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

}  // namespace slimfly::bench
