#include "sim/simulation.hpp"

#include <stdexcept>

#include "sim/routing/dragonfly_routing.hpp"
#include "sim/routing/fattree_routing.hpp"
#include "sim/routing/minimal.hpp"
#include "sim/routing/oracle.hpp"
#include "sim/routing/ugal.hpp"
#include "sim/routing/valiant.hpp"
#include "topo/registry.hpp"

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

RoutingBundle make_routing(RoutingKind kind, const Topology& topo,
                           std::shared_ptr<const DistanceOracle> distances) {
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
      bundle.algorithm = std::make_unique<ValiantRouting>(topo, *bundle.distances);
      break;
    case RoutingKind::UgalL:
      bundle.algorithm = std::make_unique<UgalRouting>(topo, *bundle.distances,
                                                       UgalMode::Local);
      break;
    case RoutingKind::UgalG:
      bundle.algorithm = std::make_unique<UgalRouting>(topo, *bundle.distances,
                                                       UgalMode::Global);
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

RoutingBundle make_routing(const std::string& name, const Topology& topo,
                           std::shared_ptr<const DistanceOracle> distances) {
  return make_routing(routing_kind_from_string(name), topo,
                      std::move(distances));
}

namespace {

// Strict positive-integer read for routing spec parameters; `what` names the
// spec and key so the message is self-serve ("routing spec \"VAL:hoplimit=x\":
// hoplimit must be an integer in 1..255").
int parse_routing_param(const std::string& value, int min, int max,
                        const std::string& what) {
  bool ok = !value.empty() && value.size() <= 6 &&
            value.find_first_not_of("0123456789") == std::string::npos;
  long parsed = ok ? std::stol(value) : 0;
  if (!ok || parsed < min || parsed > max) {
    throw std::invalid_argument(what + " must be an integer in " +
                                std::to_string(min) + ".." +
                                std::to_string(max) + " (got \"" + value +
                                "\")");
  }
  return static_cast<int>(parsed);
}

}  // namespace

RoutingSpec parse_routing_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  RoutingSpec out;
  out.kind = routing_kind_from_string(spec.substr(0, colon));
  if (colon == std::string::npos) return out;

  const std::string context = "routing spec \"" + spec + "\"";
  std::string params = spec.substr(colon + 1);
  std::size_t start = 0;
  while (start <= params.size()) {
    std::size_t end = params.find(',', start);
    std::string part = params.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    std::size_t eq = part.find('=');
    if (part.empty() || eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(context + ": expected key=value, got \"" +
                                  part + "\"");
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if ((out.kind == RoutingKind::UgalL || out.kind == RoutingKind::UgalG) &&
        key == "c") {
      out.ugal_candidates =
          parse_routing_param(value, 1, 64, context + ": c");
    } else if (out.kind == RoutingKind::Valiant && key == "hoplimit") {
      out.val_hop_limit =
          parse_routing_param(value, 1, 255, context + ": hoplimit");
    } else {
      throw std::invalid_argument(
          context + ": unknown parameter \"" + key + "\" for " +
          to_string(out.kind) +
          " (UGAL-L/UGAL-G take c=<1..64>, VAL takes hoplimit=<1..255>; "
          "other routings take none)");
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

RoutingBundle make_routing_spec(const std::string& spec, const Topology& topo,
                                std::shared_ptr<const DistanceOracle> distances) {
  const RoutingSpec parsed = parse_routing_spec(spec);
  RoutingBundle bundle = make_routing(parsed.kind, topo, std::move(distances));
  // Rebuild the two parameterizable algorithms when a non-default parameter
  // was requested; the bundle already holds the shared distance oracle.
  if (parsed.kind == RoutingKind::Valiant && parsed.val_hop_limit) {
    bundle.algorithm = std::make_unique<ValiantRouting>(topo, *bundle.distances,
                                                        parsed.val_hop_limit);
  } else if ((parsed.kind == RoutingKind::UgalL ||
              parsed.kind == RoutingKind::UgalG) &&
             parsed.ugal_candidates != 4) {
    bundle.algorithm = std::make_unique<UgalRouting>(
        topo, *bundle.distances,
        parsed.kind == RoutingKind::UgalL ? UgalMode::Local : UgalMode::Global,
        parsed.ugal_candidates);
  }
  return bundle;
}

SimResult simulate(const Topology& topo, RoutingAlgorithm& routing,
                   TrafficPattern& traffic, SimConfig config, double load) {
  if (config.num_vcs < routing.max_hops()) config.num_vcs = routing.max_hops();
  Network net(topo, routing, traffic, config, load);
  return net.run();
}

}  // namespace slimfly::sim
