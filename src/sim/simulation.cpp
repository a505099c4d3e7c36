#include "sim/simulation.hpp"

#include <stdexcept>

#include "sim/routing/dragonfly_routing.hpp"
#include "sim/routing/fattree_routing.hpp"
#include "sim/routing/minimal.hpp"
#include "sim/routing/oracle.hpp"
#include "sim/routing/ugal.hpp"
#include "sim/routing/valiant.hpp"
#include "topo/registry.hpp"
#include "util/spec.hpp"

namespace slimfly::sim {

namespace {
constexpr RoutingKind kAllRoutingKinds[] = {
    RoutingKind::Minimal,        RoutingKind::Valiant,
    RoutingKind::UgalL,          RoutingKind::UgalG,
    RoutingKind::DragonflyUgalL, RoutingKind::FatTreeAnca};

// Names the concrete topology the caller handed over — "DF-UGAL-L requires
// a dragonfly topology; got \"SlimFly MMS q=5\" (family slimfly)" — so CLI
// users can fix their spec string without reading the source.
std::string unsupported_message(RoutingKind kind, const Topology& topo) {
  const std::string family = topo::family_of(topo);
  return to_string(kind) + " requires a " + routing_requirement(kind) +
         " topology; got \"" + topo.name() + "\"" +
         (family.empty() ? "" : " (family " + family + ")");
}
}  // namespace

std::string to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::Minimal: return "MIN";
    case RoutingKind::Valiant: return "VAL";
    case RoutingKind::UgalL: return "UGAL-L";
    case RoutingKind::UgalG: return "UGAL-G";
    case RoutingKind::DragonflyUgalL: return "DF-UGAL-L";
    case RoutingKind::FatTreeAnca: return "FT-ANCA";
  }
  return "?";
}

RoutingKind routing_kind_from_string(const std::string& name) {
  for (RoutingKind kind : kAllRoutingKinds) {
    if (to_string(kind) == name) return kind;
  }
  // Self-serve CLI errors: name the offending string and every valid one.
  std::string known;
  for (RoutingKind kind : kAllRoutingKinds) {
    if (!known.empty()) known += ", ";
    known += to_string(kind);
  }
  throw std::invalid_argument("unknown routing \"" + name + "\" (known: " +
                              known + ")");
}

std::vector<std::string> routing_names() {
  std::vector<std::string> names;
  for (RoutingKind kind : kAllRoutingKinds) names.push_back(to_string(kind));
  return names;
}

std::string routing_requirement(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::DragonflyUgalL: return "dragonfly";
    case RoutingKind::FatTreeAnca: return "fattree";
    default: return "";
  }
}

bool routing_supported(RoutingKind kind, const Topology& topo) {
  // Derived from routing_requirement so the restriction lives in one place;
  // family_of uses the same dynamic_casts make_routing relies on.
  const std::string need = routing_requirement(kind);
  return need.empty() || need == topo::family_of(topo);
}

RoutingSpec parse_routing_spec(const std::string& text) {
  spec::Params p("routing spec", text);
  RoutingSpec out;
  out.kind = routing_kind_from_string(p.name());
  if (out.kind == RoutingKind::UgalL || out.kind == RoutingKind::UgalG) {
    out.ugal_candidates = static_cast<int>(p.integer("c", 1, 64, 4));
  }
  if (out.kind == RoutingKind::Valiant) {
    // 0 is out of range for hoplimit, so it can stand for "absent".
    if (const auto limit = p.integer("hoplimit", 1, 255, 0)) {
      out.val_hop_limit = static_cast<int>(limit);
    }
  }
  p.finish();
  return out;
}

namespace {

RoutingBundle build_routing(const RoutingSpec& spec, const Topology& topo,
                            std::shared_ptr<const DistanceOracle> distances) {
  const RoutingKind kind = spec.kind;
  RoutingBundle bundle;
  if (kind != RoutingKind::FatTreeAnca) {
    bundle.distances = distances
                           ? std::move(distances)
                           : make_distance_oracle(topo, OracleMode::Auto);
  }
  switch (kind) {
    case RoutingKind::Minimal:
      bundle.algorithm = std::make_unique<MinimalRouting>(topo, *bundle.distances);
      break;
    case RoutingKind::Valiant:
      bundle.algorithm = std::make_unique<ValiantRouting>(
          topo, *bundle.distances, spec.val_hop_limit);
      break;
    case RoutingKind::UgalL:
    case RoutingKind::UgalG:
      bundle.algorithm = std::make_unique<UgalRouting>(
          topo, *bundle.distances,
          kind == RoutingKind::UgalL ? UgalMode::Local : UgalMode::Global,
          spec.ugal_candidates);
      break;
    case RoutingKind::DragonflyUgalL: {
      const auto* df = dynamic_cast<const Dragonfly*>(&topo);
      if (!df) throw std::invalid_argument(unsupported_message(kind, topo));
      bundle.algorithm = make_dragonfly_ugal_l(*df, *bundle.distances);
      break;
    }
    case RoutingKind::FatTreeAnca: {
      const auto* ft = dynamic_cast<const FatTree3*>(&topo);
      if (!ft) throw std::invalid_argument(unsupported_message(kind, topo));
      bundle.algorithm = std::make_unique<FatTreeAncaRouting>(*ft);
      break;
    }
  }
  return bundle;
}

}  // namespace

RoutingBundle make_routing_spec(const std::string& spec, const Topology& topo,
                                std::shared_ptr<const DistanceOracle> distances) {
  return build_routing(parse_routing_spec(spec), topo, std::move(distances));
}

RoutingBundle make_routing(RoutingKind kind, const Topology& topo,
                           std::shared_ptr<const DistanceOracle> distances) {
  RoutingSpec spec;
  spec.kind = kind;
  return build_routing(spec, topo, std::move(distances));
}

SimResult simulate(const Topology& topo, RoutingAlgorithm& routing,
                   TrafficPattern& traffic, SimConfig config, double load) {
  if (config.num_vcs < routing.max_hops()) config.num_vcs = routing.max_hops();
  Network net(topo, routing, traffic, config, load);
  return net.run();
}

}  // namespace slimfly::sim
