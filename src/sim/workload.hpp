#pragma once
// Dependency-aware workload traces (docs/ARCHITECTURE.md §"Workload
// layer"): per-endpoint message lists with `after:` reply edges, replayed
// self-clocked — a send becomes eligible only when the message it depends
// on has been ejected.
// Traces come from a JSON file (`trace:file=`) or are synthesized by the
// collective generator (`allreduce:ranks=,algo=`). The replay pattern is a
// TrafficPattern using the self-clocked hooks (traffic.hpp); the Network
// feeds ejections back through on_delivered between cycles, which makes the
// replay schedule independent of shard count and stepping engine.
//
// Trace file format (parsed with src/exp/json, so the usual named-error and
// depth-cap behaviour applies):
//   {
//     "trace": "reqreply",                   // optional display tag
//     "endpoints": {
//       "0": [ {"dst": 5}, {"dst": 7, "after": "5.0"} ],
//       "5": [ {"dst": 0, "after": "0.0"} ]
//     }
//   }
// Message ids are "<endpoint>.<index>" (index into that endpoint's list).
// Each endpoint's list is FIFO: message i cannot be sent before i−1.
// Validation rejects self-sends, dangling or self-referential `after:`
// edges, and any dependency cycle — including cycles that only close
// through the implicit FIFO edges.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/traffic.hpp"

namespace slimfly::sim {

/// One message of a trace: destination endpoint plus an optional
/// dependency on message `dep_idx` of endpoint `dep_src` (−1/−1 = none).
struct TraceMessage {
  int dst = -1;
  int dep_src = -1;
  std::int64_t dep_idx = -1;
};

/// A parsed, validated workload trace. Endpoint ids are sparse — only
/// endpoints with messages appear; everyone else idles.
struct WorkloadTrace {
  std::string name;  ///< display tag ("trace" when the file gives none)
  std::vector<std::pair<int, std::vector<TraceMessage>>> endpoints;
};

/// Parses and validates trace JSON. `origin` names the source in errors
/// (file path or test label). Throws invalid_argument on malformed JSON,
/// malformed endpoints/messages, dangling `after:` references, or
/// dependency cycles (each error names the offending key or message id).
WorkloadTrace parse_workload_trace(const std::string& text,
                                   const std::string& origin);

/// Reads and parses a trace file; the path resolves against the current
/// working directory. Throws invalid_argument when unreadable.
WorkloadTrace load_workload_trace(const std::string& path);

/// Synthesizes an all-reduce collective over ranks 0..ranks−1 as a
/// dependency trace (endpoints ≥ ranks idle):
///   ring — 2(R−1) phased rounds; message k of rank i goes to (i+1) mod R
///          and waits on message k−1 of rank i−1 (reduce-scatter then
///          all-gather around the ring).
///   tree — binomial reduce to rank 0 followed by binomial broadcast;
///          ranks must be a power of two.
WorkloadTrace make_allreduce_trace(int ranks, const std::string& algo);

/// Wraps a trace in a self-clocked TrafficPattern for a topology with
/// `num_endpoints` endpoints. Validates endpoint ids and destinations
/// against the topology size. `display_name` becomes pattern->name().
std::unique_ptr<TrafficPattern> make_dependency_replay(
    int num_endpoints, const WorkloadTrace& trace, std::string display_name);

}  // namespace slimfly::sim
