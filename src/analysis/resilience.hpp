#pragma once
// Link-failure resiliency analysis (paper Section III-D).
//
// Three metrics, each evaluated by removing a random fraction of cables in
// 5% increments with repeated sampling:
//   1. disconnection  — largest removable fraction with the network still
//                       connected (Table III),
//   2. diameter       — largest fraction with diameter increase <= budget
//                       (Section III-D2; the paper tolerates +2),
//   3. average path   — largest fraction with average-distance increase
//                       <= budget hops (Section III-D3; the paper uses +1).
//
// The paper samples until a 95% confidence interval of width 2 (percentage
// points); we expose the trial count and use the median judgement across
// trials at each step, which converges to the same comparison.

#include <cstdint>
#include <functional>

#include "topo/graph.hpp"

namespace slimfly::analysis {

struct ResilienceOptions {
  int step_percent = 5;      ///< failure-fraction granularity
  int trials = 20;           ///< random samples per fraction
  std::uint64_t seed = 42;
  double majority = 0.5;     ///< fraction of trials that must survive
};

/// Maximum percentage of links removable with the graph still connected
/// (in `step_percent` increments; 0 if even the first step disconnects).
int max_failures_connected(const Graph& g, const ResilienceOptions& opts = {});

/// Maximum percentage of links removable with diameter <= base + budget.
int max_failures_diameter(const Graph& g, int budget,
                          const ResilienceOptions& opts = {});

/// Maximum percentage of links removable with average distance <= base + budget.
int max_failures_avg_distance(const Graph& g, double budget,
                              const ResilienceOptions& opts = {});

/// Copy of g with `remove_count` uniformly random edges deleted.
Graph remove_random_links(const Graph& g, std::int64_t remove_count,
                          std::uint64_t seed);

/// Generic sweep: returns the largest failure percentage (multiple of
/// step_percent, < 100) for which at least `majority` of trials satisfy
/// `survives`. Exposed for custom metrics.
int max_failures(const Graph& g,
                 const std::function<bool(const Graph&)>& survives,
                 const ResilienceOptions& opts);

}  // namespace slimfly::analysis
