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
//
// In memory a trace is one flat table: every endpoint's list back to back
// in `messages`, each entry 8 bytes (destination plus the flat index of the
// message it waits on), and one (endpoint, first message) row per listed
// endpoint. The parser, the collective generator, the cycle check and the
// replay all index that table; the replay takes it over by move and adds
// one delivered bit per message. A delivery unlocks by receiver: the replay
// checks the head of the delivered message's destination, and only the
// messages that some other endpoint waits on (through a foreign edge) get
// a reverse index. The generated collectives have no foreign edge, so
// their replay costs 8 bytes and one bit per message.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/traffic.hpp"

namespace slimfly::sim {

/// One message of a trace: its destination endpoint and the flat index
/// (into WorkloadTrace::messages) of the message it waits on, −1 for none.
struct TraceMessage {
  std::int32_t dst = -1;
  std::int32_t after = -1;
};

/// A listed endpoint and the flat index of its first message.
struct TraceEndpoint {
  int id = -1;
  std::int32_t first = 0;
};

/// A parsed, validated workload trace. Endpoint ids are sparse — only
/// listed endpoints send; everyone else idles. Endpoint s owns messages
/// [endpoints[s].first, end_of(s)), so at most INT32_MAX messages fit.
struct WorkloadTrace {
  std::string name;  ///< display tag ("trace" when the file gives none)
  std::vector<TraceMessage> messages;    ///< every FIFO list, back to back
  std::vector<TraceEndpoint> endpoints;  ///< in message order

  /// One past the last message of listed endpoint `s`.
  std::int32_t end_of(std::size_t s) const {
    return s + 1 < endpoints.size()
               ? endpoints[s + 1].first
               : static_cast<std::int32_t>(messages.size());
  }
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

/// Why `allreduce:ranks=R,algo=A` cannot be generated, or "" when it can:
/// R must be at least 2, A ring or tree, a tree needs power-of-two ranks,
/// and a ring's 2R(R−1) messages must fit the 32-bit message index.
std::string allreduce_error(int ranks, const std::string& algo);

/// Wraps a trace in a self-clocked TrafficPattern for a topology with
/// `num_endpoints` endpoints, taking the trace over by move. Validates
/// endpoint ids and destinations against the topology size.
/// `display_name` becomes pattern->name().
std::unique_ptr<TrafficPattern> make_dependency_replay(
    int num_endpoints, WorkloadTrace trace, std::string display_name);

}  // namespace slimfly::sim
