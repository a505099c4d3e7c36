#include "topo/registry.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>

#include "sf/mms.hpp"
#include "topo/augmented.hpp"
#include "topo/dln.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/flatbutterfly.hpp"
#include "topo/hypercube.hpp"
#include "topo/longhop.hpp"
#include "topo/torus.hpp"
#include "util/spec.hpp"

namespace slimfly::topo {
namespace {

[[noreturn]] void fail(const std::string& spec, const std::string& why) {
  spec::fail("topology spec", spec, why);
}

/// Every integer key is a canonical 0..INT_MAX value; constructors and the
/// builders below check the semantic ranges.
int read_int(spec::Params& p, const std::string& key) {
  return static_cast<int>(p.integer(key, 0, std::numeric_limits<int>::max()));
}
int read_int(spec::Params& p, const std::string& key, int fallback) {
  return static_cast<int>(
      p.integer(key, 0, std::numeric_limits<int>::max(), fallback));
}

/// "8x8x8" -> {8, 8, 8}.
std::vector<int> read_dims(spec::Params& p) {
  const std::string value = p.text("dims");
  std::vector<int> dims;
  for (std::size_t start = 0;;) {
    const std::size_t sep = value.find('x', start);
    dims.push_back(static_cast<int>(spec::read_integer(
        value.substr(start, sep - start), 0, std::numeric_limits<int>::max(),
        p.what("dims"))));
    if (sep == std::string::npos) return dims;
    start = sep + 1;
  }
}

using Build = std::function<std::unique_ptr<Topology>()>;

/// Reads every key of one family's spec and returns the constructor call.
/// Reading is all validate_spec does, so a spec validates exactly when
/// make() would get as far as constructing it.
using Reader = Build (*)(spec::Params& p, const std::string& spec);

struct Reading {
  std::string family;
  Build build;
};

Reading read(const std::string& spec);

const std::map<std::string, Reader>& families() {
  static const std::map<std::string, Reader> table = {
      {"slimfly",
       [](spec::Params& p, const std::string&) -> Build {
         const int q = read_int(p, "q");
         const int conc = read_int(p, "p", 0);
         return [=] { return std::make_unique<sf::SlimFlyMMS>(q, conc); };
       }},
      {"dragonfly",
       [](spec::Params& p, const std::string&) -> Build {
         const int conc = read_int(p, "p");
         const int a = read_int(p, "a");
         const int h = read_int(p, "h");
         const int g = read_int(p, "g", a * h + 1);
         return [=] { return std::make_unique<Dragonfly>(conc, a, h, g); };
       }},
      {"fattree",
       [](spec::Params& p, const std::string& spec) -> Build {
         const int k = read_int(p, "k");
         const std::string variant = p.text("variant", "paperslim");
         if (variant != "paperslim" && variant != "classic") {
           fail(spec, "variant must be classic or paperslim, got \"" +
                          variant + "\"");
         }
         const FatTreeVariant v = variant == "classic"
                                      ? FatTreeVariant::Classic
                                      : FatTreeVariant::PaperSlim;
         return [=] { return std::make_unique<FatTree3>(k, v); };
       }},
      {"torus",
       [](spec::Params& p, const std::string&) -> Build {
         std::vector<int> dims = read_dims(p);
         const int conc = read_int(p, "c", 1);
         return [=] { return std::make_unique<Torus>(dims, conc); };
       }},
      {"hypercube",
       [](spec::Params& p, const std::string&) -> Build {
         const int n = read_int(p, "n");
         const int conc = read_int(p, "c", 1);
         return [=] { return std::make_unique<Hypercube>(n, conc); };
       }},
      {"flatbutterfly",
       [](spec::Params& p, const std::string&) -> Build {
         const int n = read_int(p, "n");
         const int extent = read_int(p, "extent");
         const int conc = read_int(p, "c", 0);
         return [=] {
           return std::make_unique<FlattenedButterfly>(n, extent, conc);
         };
       }},
      // ---- Section 2/7 comparison topologies --------------------------------
      // Randomized constructions carry their seed in the spec, so the string
      // alone reproduces the instance (and, via exp::point_seed, its traffic).
      {"dln",
       [](spec::Params& p, const std::string& spec) -> Build {
         const int n = read_int(p, "n");
         const int k = read_int(p, "k");
         const int conc = read_int(p, "p");
         const std::uint64_t seed = p.seed("seed", Dln::kDefaultSeed);
         return [=] {
           if (n < 5) fail(spec, "n must be >= 5 (ring of n routers)");
           if (k < 3 || k >= n) {
             fail(spec, "k must be in 3..n-1 (2 ring links + k-2 shortcuts "
                        "per router; got k=" + std::to_string(k) + ", n=" +
                            std::to_string(n) + ")");
           }
           if (conc < 1) fail(spec, "p must be >= 1 (endpoints per router)");
           return std::make_unique<Dln>(n, k, conc, seed);
         };
       }},
      {"longhop",
       [](spec::Params& p, const std::string& spec) -> Build {
         const int n = read_int(p, "n");
         const int extra = read_int(p, "extra");
         const int conc = read_int(p, "p", 1);
         const std::uint64_t seed = p.seed("seed", LongHop::kDefaultSeed);
         return [=] {
           if (n < 3 || n > 20) {
             fail(spec, "n must be in 3..20 (routers = 2^n; larger Cayley "
                        "graphs exceed the simulator's scale)");
           }
           if (extra < 0 || extra >= (1 << n) - n) {
             fail(spec, "extra must be in 0.." +
                            std::to_string((1 << n) - n - 1) +
                            " (long-hop generators beyond the " +
                            std::to_string(n) + " basis ones; the feasible "
                            "maximum is lower still — the balanced-weight "
                            "candidate pool, reported by make() when "
                            "exceeded)");
           }
           if (conc < 1) fail(spec, "p must be >= 1 (endpoints per router)");
           return std::make_unique<LongHop>(n, extra, conc, seed);
         };
       }},
      {"augmented",
       [](spec::Params& p, const std::string& spec) -> Build {
         const int extra = read_int(p, "extra");
         const std::uint64_t seed =
             p.seed("seed", AugmentedTopology::kDefaultSeed);
         // Two spellings of the base: base=<spec> augments any registry
         // topology (',' spelled ';' inside the value); the legacy q=/p=
         // shorthand augments a Slim Fly. Exactly one is required.
         const std::string base_spec = p.nested("base", "");
         Build base;
         if (!base_spec.empty()) {
           if (p.has("q") || p.has("p")) {
             fail(spec, "base= cannot be combined with q/p (those "
                        "describe the implicit Slim Fly base; fold them "
                        "into the base spec instead)");
           }
           base = read(base_spec).build;
         } else {
           if (!p.has("q")) {
             fail(spec, "missing required parameter \"q\" (or base=<spec> "
                        "to augment any registry topology)");
           }
           const int q = read_int(p, "q");
           const int conc = read_int(p, "p", 0);
           base = [=] { return std::make_unique<sf::SlimFlyMMS>(q, conc); };
         }
         return [=] {
           if (extra < 1) {
             fail(spec, "extra must be >= 1 (spare ports carrying random "
                        "cables on top of the base topology)");
           }
           // The base is a temporary: AugmentedTopology copies the
           // packaging (racks, concentration) it needs and owns its own
           // graph.
           return std::make_unique<AugmentedTopology>(
               *base(), extra, /*intra_rack_only=*/false, seed);
         };
       }},
  };
  return table;
}

Reading read(const std::string& spec) {
  spec::Params p("topology spec", spec);
  const auto it = families().find(p.name());
  if (it == families().end()) p.fail("unknown topology family");
  Build build = it->second(p, spec);
  p.finish();
  return {p.name(), std::move(build)};
}

}  // namespace

std::unique_ptr<Topology> make(const std::string& spec) {
  // Reading catches structural errors before the (possibly minutes-long)
  // construction below.
  const Build build = read(spec).build;
  // Semantic errors thrown inside a constructor ("q must be a prime power",
  // matching exhaustion) don't know which spec asked for them; prefix the
  // spec so a 30-series suite failure names the offending cell. Messages
  // already carrying the spec (the builders' own fail() calls) pass
  // through untouched.
  auto with_spec = [&](const char* what) {
    std::string msg = what;
    if (msg.find(spec) != std::string::npos) return msg;
    return "topology spec \"" + spec + "\": " + msg;
  };
  try {
    return build();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(with_spec(e.what()));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(with_spec(e.what()));
  }
}

std::string validate_spec(const std::string& spec) {
  return read(spec).family;
}

bool is_registered(const std::string& family) {
  return families().count(family) != 0;
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const auto& [name, reader] : families()) names.push_back(name);
  return names;
}

std::vector<std::string> example_specs() {
  return {"slimfly:q=5",         "dragonfly:p=2,a=4,h=2",
          "fattree:k=4",         "torus:dims=4x4x4",
          "hypercube:n=6",       "flatbutterfly:n=2,extent=4",
          "dln:n=36,k=6,p=2",    "longhop:n=5,extra=2",
          "augmented:q=5,extra=2"};
}

std::string family_of(const Topology& topo) {
  if (dynamic_cast<const sf::SlimFlyMMS*>(&topo)) return "slimfly";
  if (dynamic_cast<const Dragonfly*>(&topo)) return "dragonfly";
  if (dynamic_cast<const FatTree3*>(&topo)) return "fattree";
  if (dynamic_cast<const Torus*>(&topo)) return "torus";
  if (dynamic_cast<const Hypercube*>(&topo)) return "hypercube";
  if (dynamic_cast<const FlattenedButterfly*>(&topo)) return "flatbutterfly";
  if (dynamic_cast<const Dln*>(&topo)) return "dln";
  if (dynamic_cast<const LongHop*>(&topo)) return "longhop";
  if (dynamic_cast<const AugmentedTopology*>(&topo)) return "augmented";
  return "";
}

}  // namespace slimfly::topo
