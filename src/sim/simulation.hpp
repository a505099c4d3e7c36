#pragma once
// High-level simulation driver: routing factories, single-point runs and
// offered-load sweeps (the x-axis of the paper's Figures 6 and 8).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/routing/routing.hpp"
#include "sim/traffic.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/topology.hpp"

namespace slimfly::sim {

enum class RoutingKind { Minimal, Valiant, UgalL, UgalG, DragonflyUgalL, FatTreeAnca };

std::string to_string(RoutingKind kind);

// ---- string-keyed routing registry ----------------------------------------
// The experiment layer identifies routings by the same names the paper's
// figures use: "MIN", "VAL", "UGAL-L", "UGAL-G", "DF-UGAL-L", "FT-ANCA".

/// Inverse of to_string(); throws std::invalid_argument on unknown names.
RoutingKind routing_kind_from_string(const std::string& name);

/// All registered routing names, in enum order.
std::vector<std::string> routing_names();

/// Topology-registry family this routing is restricted to ("dragonfly" for
/// DF-UGAL-L, "fattree" for FT-ANCA), or "" when it runs on any topology.
std::string routing_requirement(RoutingKind kind);

/// True when make_routing(kind, topo) would succeed.
bool routing_supported(RoutingKind kind, const Topology& topo);

/// Routing algorithm plus the distance oracle it borrows (kept alive
/// here). The oracle is const so one instance can be shared read-only
/// across concurrently-running simulation points (see exp/experiment.hpp).
struct RoutingBundle {
  std::shared_ptr<const DistanceOracle> distances;
  std::unique_ptr<RoutingAlgorithm> algorithm;
};

// ---- parameterized routing specs ------------------------------------------
// "NAME[:key=value,...]" in the shared spec grammar (util/spec.hpp), so the
// paper's routing ablations (Sections IV-B/IV-C) are registry strings too.
//
//   "UGAL-L:c=8"      UGAL with 8 Valiant candidates (c in 1..64; default 4)
//   "UGAL-G:c=2"
//   "VAL:hoplimit=3"  Valiant constrained to <= 3 hops (1..255; the paper's
//                     "at most 3 hops" variant)
//
// Every other routing takes no parameters. Unknown names, unknown keys, and
// out-of-range or non-canonical values throw std::invalid_argument naming
// the offending spec.

struct RoutingSpec {
  RoutingKind kind = RoutingKind::Minimal;
  int ugal_candidates = 4;           ///< UGAL-L / UGAL-G only
  std::optional<int> val_hop_limit;  ///< VAL only
};

/// Parses and validates a routing spec string without building anything.
RoutingSpec parse_routing_spec(const std::string& spec);

/// Builds the routing algorithm a spec describes for `topo`. DF-UGAL-L
/// requires a Dragonfly topology and FT-ANCA a FatTree3 (checked at
/// runtime). An existing distance oracle may be shared to avoid
/// recomputation; when none is passed, one is selected via
/// make_distance_oracle(topo, Auto) (sim/routing/oracle.hpp) — the dense
/// table on small networks, the per-family oracle beyond.
RoutingBundle make_routing_spec(const std::string& spec, const Topology& topo,
                                std::shared_ptr<const DistanceOracle> distances = nullptr);

/// make_routing_spec for a bare routing name: every parameter at its default.
RoutingBundle make_routing(RoutingKind kind, const Topology& topo,
                           std::shared_ptr<const DistanceOracle> distances = nullptr);

/// Runs one (topology, routing, traffic, load) point.
SimResult simulate(const Topology& topo, RoutingAlgorithm& routing,
                   TrafficPattern& traffic, SimConfig config, double load);

}  // namespace slimfly::sim
