#include "sim/traffic.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "analysis/metrics.hpp"
#include "sim/workload.hpp"
#include "topo/registry.hpp"
#include "util/spec.hpp"

namespace slimfly::sim {

namespace {

class UniformTraffic final : public TrafficPattern {
 public:
  explicit UniformTraffic(int n) : n_(n) {}
  std::string name() const override { return "uniform"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    int dst = rng.next_int(0, n_ - 2);
    return dst >= src ? dst + 1 : dst;  // uniform over all others
  }

 private:
  int n_;
};

/// Base for the power-of-two bit permutations: endpoints >= 2^b are idle.
class BitPermutation : public TrafficPattern {
 public:
  explicit BitPermutation(int n) {
    if (n < 2) throw std::invalid_argument("BitPermutation: need >= 2 endpoints");
    bits_ = 0;
    while ((2 << bits_) <= n) ++bits_;  // largest 2^bits_ <= n
    active_ = 1 << bits_;
  }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    (void)rng;
    if (src >= active_) return -1;
    int dst = permute(src);
    return dst == src ? -1 : dst;  // self-sends would be no-ops
  }
  bool is_active(int src) const override {
    return src < active_ && permute(src) != src;
  }

 protected:
  virtual int permute(int src) const = 0;
  int bits_ = 0;
  int active_ = 0;
};

class ShuffleTraffic final : public BitPermutation {
 public:
  using BitPermutation::BitPermutation;
  std::string name() const override { return "shuffle"; }

 protected:
  // d_i = s_(i-1 mod b): rotate the address left by one bit.
  int permute(int src) const override {
    return ((src << 1) | (src >> (bits_ - 1))) & (active_ - 1);
  }
};

class BitReversalTraffic final : public BitPermutation {
 public:
  using BitPermutation::BitPermutation;
  std::string name() const override { return "bitrev"; }

 protected:
  int permute(int src) const override {
    int dst = 0;
    for (int i = 0; i < bits_; ++i) {
      if (src & (1 << i)) dst |= 1 << (bits_ - 1 - i);
    }
    return dst;
  }
};

class BitComplementTraffic final : public BitPermutation {
 public:
  using BitPermutation::BitPermutation;
  std::string name() const override { return "bitcomp"; }

 protected:
  int permute(int src) const override { return ~src & (active_ - 1); }
};

class ShiftTraffic final : public TrafficPattern {
 public:
  explicit ShiftTraffic(int n) : n_(n) {}
  std::string name() const override { return "shift"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    int half = n_ / 2;
    int base = src % half;
    int dst = rng.bernoulli(0.5) ? base + half : base;
    return dst == src ? (src < half ? src + half : src - half) : dst;
  }

 private:
  int n_;
};

/// Figure 9 construction: pick a link (Rx, Ry); routers adjacent to Ry
/// whose 2-hop minimal path to Rx leads through Ry all send to Rx (and Rx
/// replies), and symmetrically for Ry; repeat over links until no more
/// routers can be assigned.
class WorstCaseSfTraffic final : public TrafficPattern {
 public:
  explicit WorstCaseSfTraffic(const Topology& topo) {
    const Graph& g = topo.graph();
    int nr = topo.num_routers();
    int p = topo.concentration();
    std::vector<int> target(static_cast<std::size_t>(nr), -1);  // per router

    // Distances once (diameter-2 class networks are small enough for this).
    std::vector<std::vector<int>> dist(static_cast<std::size_t>(nr));
    for (int r = 0; r < nr; ++r) dist[static_cast<std::size_t>(r)] = analysis::bfs_distances(g, r);

    for (const auto& [rx, ry] : g.edges()) {
      if (rx >= topo.num_endpoint_routers() || ry >= topo.num_endpoint_routers()) continue;
      if (target[static_cast<std::size_t>(rx)] != -1 ||
          target[static_cast<std::size_t>(ry)] != -1) {
        continue;
      }
      bool any = false;
      for (int ri : g.neighbors(ry)) {
        if (ri == rx || ri >= topo.num_endpoint_routers()) continue;
        if (target[static_cast<std::size_t>(ri)] != -1) continue;
        if (dist[static_cast<std::size_t>(ri)][static_cast<std::size_t>(rx)] == 2) {
          target[static_cast<std::size_t>(ri)] = rx;  // path Ri -> Ry -> Rx
          any = true;
        }
      }
      for (int rb : g.neighbors(rx)) {
        if (rb == ry || rb >= topo.num_endpoint_routers()) continue;
        if (target[static_cast<std::size_t>(rb)] != -1) continue;
        if (dist[static_cast<std::size_t>(rb)][static_cast<std::size_t>(ry)] == 2) {
          target[static_cast<std::size_t>(rb)] = ry;
          any = true;
        }
      }
      if (any) {
        // The overloaded routers reply to one of their attackers so they
        // also "send and receive" (Section V-C).
        for (int ri : g.neighbors(ry)) {
          if (target[static_cast<std::size_t>(ri)] == rx) {
            target[static_cast<std::size_t>(rx)] = ri;
            break;
          }
        }
        for (int rb : g.neighbors(rx)) {
          if (target[static_cast<std::size_t>(rb)] == ry) {
            target[static_cast<std::size_t>(ry)] = rb;
            break;
          }
        }
      }
    }

    // Endpoint-level map: endpoint j of router r -> endpoint j of target(r).
    dst_.assign(static_cast<std::size_t>(topo.num_endpoints()), -1);
    for (int r = 0; r < topo.num_endpoint_routers(); ++r) {
      int t = target[static_cast<std::size_t>(r)];
      if (t < 0) continue;
      for (int j = 0; j < p; ++j) {
        dst_[static_cast<std::size_t>(topo.first_endpoint(r) + j)] =
            topo.first_endpoint(t) + j;
      }
    }
  }

  std::string name() const override { return "worst-sf"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    (void)rng;
    return dst_[static_cast<std::size_t>(src)];
  }
  bool is_active(int src) const override {
    return dst_[static_cast<std::size_t>(src)] >= 0;
  }

 private:
  std::vector<int> dst_;
};

class WorstCaseDfTraffic final : public TrafficPattern {
 public:
  explicit WorstCaseDfTraffic(const Dragonfly& topo) : topo_(topo) {}
  std::string name() const override { return "worst-df"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    int p = topo_.concentration();
    int group = topo_.group_of(src / p);
    int next_group = (group + 1) % topo_.groups();
    // Random endpoint inside the successor group.
    int router = next_group * topo_.a() + rng.next_int(0, topo_.a() - 1);
    return topo_.first_endpoint(router) + rng.next_int(0, p - 1);
  }

 private:
  const Dragonfly& topo_;
};

class WorstCaseFtTraffic final : public TrafficPattern {
 public:
  explicit WorstCaseFtTraffic(const FatTree3& topo) : topo_(topo) {}
  std::string name() const override { return "worst-ft"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    (void)rng;
    // Shift by one pod: every route must climb to a core switch.
    int pod_endpoints = topo_.p() * topo_.p();
    return (src + pod_endpoints) % topo_.num_endpoints();
  }

 private:
  const FatTree3& topo_;
};

class Stencil3dTraffic final : public TrafficPattern {
 public:
  explicit Stencil3dTraffic(int n) {
    // Largest cubic grid fitting in n endpoints.
    side_ = 1;
    while ((side_ + 1) * (side_ + 1) * (side_ + 1) <= n) ++side_;
    active_ = side_ * side_ * side_;
    next_face_.assign(static_cast<std::size_t>(active_), 0);
  }
  std::string name() const override { return "stencil3d"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    (void)rng;
    if (src >= active_ || side_ < 2) return -1;
    int face = next_face_[static_cast<std::size_t>(src)];
    next_face_[static_cast<std::size_t>(src)] = (face + 1) % 6;
    int x = src % side_;
    int y = (src / side_) % side_;
    int z = src / (side_ * side_);
    int dim = face / 2;
    int dir = (face % 2 == 0) ? 1 : side_ - 1;  // +1 or -1 mod side
    int coords[3] = {x, y, z};
    coords[dim] = (coords[dim] + dir) % side_;
    return coords[0] + coords[1] * side_ + coords[2] * side_ * side_;
  }
  bool is_active(int src) const override { return src < active_ && side_ >= 2; }

 private:
  int side_ = 0;
  int active_ = 0;
  std::vector<int> next_face_;  // round-robin over the 6 neighbours
};

// ---- workload-layer wrappers ------------------------------------------------

/// Dedicated RNG stream tags, disjoint from the injector's endpoint streams
/// and the routers' tie-break streams: burst segment lengths and the hotspot
/// endpoint choice come from their own substreams of the run seed, so
/// wrapping a pattern never perturbs the base pattern's draws.
constexpr std::uint64_t kBurstStreamTag = 0x6b75c2e9;
constexpr std::uint64_t kHotspotStreamTag = 0x3fa8d17b;

/// ON/OFF modulation (burst contract in traffic.hpp). Segment state
/// advances lazily from the queried cycle: each endpoint keeps the end cycle
/// of its current segment and rolls forward while t passes it, drawing each
/// segment length as a uniform integer in [1, 2·mean−1] from the endpoint's
/// own burst stream. Draw consumption therefore depends only on the largest
/// t queried — which is what keeps live draws (querying every cycle) and
/// planned draws (querying with gaps) bit-identical.
class BurstTraffic final : public TrafficPattern {
 public:
  BurstTraffic(std::unique_ptr<TrafficPattern> base, int n, std::int64_t on,
               std::int64_t off, double mult, std::uint64_t seed)
      : base_(std::move(base)), on_(on), off_(off), mult_(mult) {
    const double duty =
        static_cast<double>(on) / static_cast<double>(on + off);
    states_.reserve(static_cast<std::size_t>(n));
    for (int e = 0; e < n; ++e) {
      State s;
      s.rng = rng_stream(seed, kBurstStreamTag, static_cast<std::uint64_t>(e));
      // Random initial phase per endpoint (so tenants don't burst in
      // lockstep): the first query toggles into the drawn starting state.
      s.on = !(s.rng.next_double() < duty);
      s.segment_end = 0;
      states_.push_back(s);
    }
  }

  std::string name() const override { return "burst(" + base_->name() + ")"; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    return base_->destination(src, rng);
  }
  bool is_active(int src) const override { return base_->is_active(src); }

  bool modulates_rate() const override { return true; }
  /* SF_HOT */ double rate_multiplier(int src, std::int64_t t) override {
    State& s = states_[static_cast<std::size_t>(src)];
    while (t >= s.segment_end) {
      s.on = !s.on;
      const std::int64_t mean = s.on ? on_ : off_;
      s.segment_end += 1 + static_cast<std::int64_t>(s.rng.next_below(
                               static_cast<std::uint32_t>(2 * mean - 1)));
    }
    return (s.on ? mult_ : 0.0) * base_->rate_multiplier(src, t);
  }
  /// An OFF segment lasts to its end; an ON one is silent only where the
  /// base pattern is.
  /* SF_HOT */ std::int64_t off_until(int src, std::int64_t t) override {
    const State& s = states_[static_cast<std::size_t>(src)];
    return s.on ? base_->off_until(src, t) : s.segment_end;
  }

 private:
  struct State {
    Rng rng;
    bool on = false;
    std::int64_t segment_end = 0;  ///< first cycle past the current segment
  };
  std::unique_ptr<TrafficPattern> base_;
  std::int64_t on_;
  std::int64_t off_;
  double mult_;
  std::vector<State> states_;
};

/// Hotspot skew (hotspot contract in traffic.hpp): with probability
/// q = H(heat−1)/(N−H) a send is redirected to one of the H hot endpoints,
/// so each hot endpoint receives heat× the uniform share while the
/// remaining traffic keeps the base pattern's shape. A redirect that picks
/// the sender itself falls through to the base pattern.
class HotspotTraffic final : public TrafficPattern {
 public:
  HotspotTraffic(std::unique_ptr<TrafficPattern> base, int n, double frac,
                 double heat, std::uint64_t seed)
      : base_(std::move(base)) {
    if (n < 2) throw std::invalid_argument("hotspot: need >= 2 endpoints");
    int h = static_cast<int>(frac * n + 0.5);
    h = std::max(1, std::min(h, n - 1));
    q_ = h * (heat - 1.0) / (n - h);
    if (q_ > 1.0) {
      throw std::invalid_argument(
          "hotspot: heat=" + std::to_string(heat) + " with frac=" +
          std::to_string(frac) + " needs redirect probability q=" +
          std::to_string(q_) + " > 1 (q = H(heat-1)/(N-H), H=" +
          std::to_string(h) + ", N=" + std::to_string(n) +
          "); lower heat or frac");
    }
    // Seeded Fisher–Yates prefix: the hot set is a property of the pattern,
    // drawn once at construction from its own stream.
    Rng rng = rng_stream(seed, kHotspotStreamTag, 0);
    std::vector<int> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), 0);
    hot_.reserve(static_cast<std::size_t>(h));
    for (int i = 0; i < h; ++i) {
      const int j =
          i + static_cast<int>(rng.next_below(static_cast<std::uint32_t>(n - i)));
      std::swap(ids[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(j)]);
      hot_.push_back(ids[static_cast<std::size_t>(i)]);
    }
  }

  std::string name() const override {
    return "hotspot(" + base_->name() + ")";
  }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    if (q_ > 0.0 && rng.bernoulli(q_)) {
      const int pick = hot_[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint32_t>(hot_.size())))];
      if (pick != src) return pick;
      // self-hit: fall through to the base pattern
    }
    return base_->destination(src, rng);
  }
  bool is_active(int src) const override { return base_->is_active(src); }

  bool modulates_rate() const override { return base_->modulates_rate(); }
  /* SF_HOT */ double rate_multiplier(int src, std::int64_t t) override {
    return base_->rate_multiplier(src, t);
  }
  /* SF_HOT */ std::int64_t off_until(int src, std::int64_t t) override {
    return base_->off_until(src, t);
  }

 private:
  std::unique_ptr<TrafficPattern> base_;
  double q_ = 0.0;
  std::vector<int> hot_;
};

}  // namespace

std::unique_ptr<TrafficPattern> make_stencil3d(int n) {
  if (n < 8) throw std::invalid_argument("make_stencil3d: need >= 8 endpoints");
  return std::make_unique<Stencil3dTraffic>(n);
}

std::unique_ptr<TrafficPattern> make_uniform(int n) {
  if (n < 2) throw std::invalid_argument("make_uniform: need >= 2 endpoints");
  return std::make_unique<UniformTraffic>(n);
}
std::unique_ptr<TrafficPattern> make_shuffle(int n) {
  return std::make_unique<ShuffleTraffic>(n);
}
std::unique_ptr<TrafficPattern> make_bit_reversal(int n) {
  return std::make_unique<BitReversalTraffic>(n);
}
std::unique_ptr<TrafficPattern> make_bit_complement(int n) {
  return std::make_unique<BitComplementTraffic>(n);
}
std::unique_ptr<TrafficPattern> make_shift(int n) {
  if (n < 2) throw std::invalid_argument("make_shift: need >= 2 endpoints");
  return std::make_unique<ShiftTraffic>(n);
}
std::unique_ptr<TrafficPattern> make_worst_case_sf(const Topology& topo) {
  return std::make_unique<WorstCaseSfTraffic>(topo);
}
std::unique_ptr<TrafficPattern> make_worst_case_df(const Dragonfly& topo) {
  return std::make_unique<WorstCaseDfTraffic>(topo);
}
std::unique_ptr<TrafficPattern> make_worst_case_ft(const FatTree3& topo) {
  return std::make_unique<WorstCaseFtTraffic>(topo);
}

namespace {

/// Single source of truth for the bare traffic names: name, the topology
/// family it is restricted to ("" = any), and the factory. make_traffic,
/// traffic_names and traffic_requirement all derive from this table.
struct TrafficEntry {
  const char* name;
  const char* requirement;
  std::unique_ptr<TrafficPattern> (*make)(const Topology&);
};

constexpr TrafficEntry kTrafficRegistry[] = {
    {"bitcomp", "",
     [](const Topology& t) { return make_bit_complement(t.num_endpoints()); }},
    {"bitrev", "",
     [](const Topology& t) { return make_bit_reversal(t.num_endpoints()); }},
    {"shift", "",
     [](const Topology& t) { return make_shift(t.num_endpoints()); }},
    {"shuffle", "",
     [](const Topology& t) { return make_shuffle(t.num_endpoints()); }},
    {"stencil3d", "",
     [](const Topology& t) { return make_stencil3d(t.num_endpoints()); }},
    {"uniform", "",
     [](const Topology& t) { return make_uniform(t.num_endpoints()); }},
    {"worst-df", "dragonfly",
     [](const Topology& t) {
       // make_traffic has already enforced `requirement`
       return make_worst_case_df(dynamic_cast<const Dragonfly&>(t));
     }},
    {"worst-ft", "fattree",
     [](const Topology& t) {
       return make_worst_case_ft(dynamic_cast<const FatTree3&>(t));
     }},
    {"worst-sf", "",
     [](const Topology& t) { return make_worst_case_sf(t); }},
    {"worstcase", "",
     [](const Topology& t) -> std::unique_ptr<TrafficPattern> {
       if (const auto* df = dynamic_cast<const Dragonfly*>(&t))
         return make_worst_case_df(*df);
       if (const auto* ft = dynamic_cast<const FatTree3*>(&t))
         return make_worst_case_ft(*ft);
       return make_worst_case_sf(t);
     }},
};

/// A traffic spec as its one read path leaves it. Reading checks every
/// key (names, spelling, ranges, nested bases) without a topology or the
/// filesystem; the checks that need the endpoint count or the trace file
/// run in `make`.
struct TrafficReading {
  std::string requirement;  ///< family the pattern is restricted to; "" = any
  bool self_clocked = false;
  std::function<std::unique_ptr<TrafficPattern>(const Topology&)> make;
};

TrafficReading read_traffic(const std::string& text);

/// The base=<spec> of a rate wrapper (default uniform), which must not be
/// self-clocked: rate modulation has no meaning for dependency-driven sends.
TrafficReading read_base(spec::Params& p) {
  const std::string base = p.nested("base", "uniform");
  TrafficReading reading = read_traffic(base);
  if (reading.self_clocked) {
    p.fail(p.name() + " cannot wrap the self-clocked base \"" + base + "\"");
  }
  return reading;
}

TrafficReading read_traffic(const std::string& text) {
  spec::Params p("traffic spec", text);
  for (const auto& entry : kTrafficRegistry) {
    if (p.name() != entry.name) continue;
    p.finish();
    return {entry.requirement, false, entry.make};
  }
  if (p.name() == "burst") {
    const std::int64_t on = p.integer("on", 1, 1000000000);
    const std::int64_t off = p.integer("off", 1, 1000000000);
    const double mult = p.decimal("mult");
    if (!(mult > 0.0) || mult > 1e6) p.fail("mult must be in (0, 1e6]");
    const std::uint64_t seed = p.seed("seed", 1);
    TrafficReading base = read_base(p);
    p.finish();
    return {base.requirement, false,
            [=, base = std::move(base.make)](const Topology& t) {
              return std::make_unique<BurstTraffic>(
                  base(t), t.num_endpoints(), on, off, mult, seed);
            }};
  }
  if (p.name() == "hotspot") {
    const double frac = p.decimal("frac");
    const double heat = p.decimal("heat");
    if (!(frac > 0.0) || frac > 1.0) p.fail("frac must be in (0, 1]");
    if (heat < 1.0 || heat > 1e6) p.fail("heat must be in [1, 1e6]");
    const std::uint64_t seed = p.seed("seed", 1);
    TrafficReading base = read_base(p);
    p.finish();
    return {base.requirement, false,
            [=, base = std::move(base.make)](const Topology& t) {
              return std::make_unique<HotspotTraffic>(
                  base(t), t.num_endpoints(), frac, heat, seed);
            }};
  }
  if (p.name() == "allreduce") {
    const std::int64_t ranks = p.integer("ranks", 2, 1000000);
    const std::string algo = p.text("algo", "ring");
    const std::string error = allreduce_error(static_cast<int>(ranks), algo);
    if (!error.empty()) p.fail(error);
    p.finish();
    return {"", true, [=](const Topology& t) {
              const int n = t.num_endpoints();
              if (ranks > n) {
                spec::fail("traffic spec", text,
                           "ranks=" + std::to_string(ranks) +
                               " exceeds the topology's " + std::to_string(n) +
                               " endpoints");
              }
              return make_dependency_replay(
                  n, make_allreduce_trace(static_cast<int>(ranks), algo),
                  "allreduce-" + algo);
            }};
  }
  if (p.name() == "trace") {
    const std::string file = p.text("file");
    p.finish();
    return {"", true, [=](const Topology& t) {
              return make_dependency_replay(
                  t.num_endpoints(), load_workload_trace(file), "trace");
            }};
  }
  throw std::invalid_argument(
      "unknown traffic pattern \"" + p.name() +
      "\" (bare patterns: sweep --list; parameterized: burst:, hotspot:, "
      "allreduce:, trace: — see docs/SPEC_GRAMMAR.md)");
}

}  // namespace

void validate_traffic_spec(const std::string& spec) { read_traffic(spec); }

std::unique_ptr<TrafficPattern> make_traffic(const std::string& spec,
                                             const Topology& topo) {
  const TrafficReading reading = read_traffic(spec);
  // Central requirement check (a wrapper inherits its base's), so the
  // factories can downcast unconditionally.
  if (!reading.requirement.empty() &&
      reading.requirement != topo::family_of(topo)) {
    throw std::invalid_argument("traffic \"" + spec + "\" requires a " +
                                reading.requirement + " topology");
  }
  return reading.make(topo);
}

std::vector<std::string> traffic_names() {
  std::vector<std::string> names;
  for (const auto& entry : kTrafficRegistry) names.push_back(entry.name);
  return names;
}

std::string traffic_requirement(const std::string& spec) {
  return read_traffic(spec).requirement;
}

}  // namespace slimfly::sim
