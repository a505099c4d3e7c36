#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace slimfly::sim {

namespace {
// Distinguishes router streams from the endpoint streams seeded in
// Injector::init() under the same base seed.
constexpr std::uint64_t kRouterStreamTag = 0x51a3e8d1;

// Index of the lowest set bit; callers guarantee mask != 0.
inline int ctz64(std::uint64_t mask) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(mask);
#else
  int i = 0;
  while (!(mask & 1)) {
    mask >>= 1;
    ++i;
  }
  return i;
#endif
}

// EndpointRef::next_arrival sentinels. An endpoint is unplanned at cycle 0
// and while its source queue is backlogged; otherwise it holds a plan.
constexpr std::int64_t kUnplannedArrival = -1;  // draw live this cycle
constexpr std::int64_t kNeverArrives = std::numeric_limits<std::int64_t>::max();

// Appends to a vector sized for its worst case at construction (the far
// heaps, wake and completion outboxes and step-list runs). A push past that
// capacity is a sizing bug, so it throws a named error instead of silently
// reallocating — a growth inside a settle phase would otherwise pass
// hotpath_test's allocation guard unseen.
template <class T, class... Args>
/* SF_HOT */ void push_reserved(std::vector<T>& v, const char* what,
                                Args&&... args) {
  if (v.size() == v.capacity()) {
    throw std::logic_error(std::string("Network: ") + what +
                           " overflow at reserved capacity " +
                           std::to_string(v.capacity()));
  }
  v.emplace_back(std::forward<Args>(args)...);  // sf-lint: allow(hot-alloc) size < capacity, checked above: never reallocates
}

// Values below 1 mean sequential; the router count caps the shard count.
std::size_t resolve_intra_threads(int requested, int num_routers) {
  return static_cast<std::size_t>(std::max(1, std::min(requested, num_routers)));
}
}  // namespace

Network::Network(const Topology& topo, RoutingAlgorithm& routing,
                 TrafficPattern& traffic, const SimConfig& config,
                 double offered_load)
    : topo_(topo),
      routing_(routing),
      traffic_(traffic),
      config_(config),
      load_(offered_load) {
  if (config_.num_vcs < routing_.max_hops()) {
    throw std::invalid_argument(
        "Network: num_vcs must cover the routing algorithm's max hops (" +
        std::to_string(routing_.max_hops()) + " needed)");
  }
  if (config_.num_vcs > 64) {
    throw std::invalid_argument(
        "Network: num_vcs above 64 is unsupported (the per-input VC "
        "occupancy bitmask is 64 bits wide)");
  }
  // Margin: credit/ejection event lines store READY cycles (cycle + delay)
  // in 32-bit slots (sim/router.hpp CreditLine), so the horizon must leave
  // headroom for the largest delay any push adds to cycle_.
  const std::int64_t horizon_margin =
      static_cast<std::int64_t>(config_.channel_latency) +
      config_.router_pipeline + config_.output_staging + config_.credit_delay +
      2;
  if (config_.warmup_cycles + config_.measure_cycles + config_.drain_cycles >
      static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()) -
          horizon_margin) {
    throw std::invalid_argument(
        "Network: warmup+measure+drain cycles exceed 2^31-1 (packet "
        "timestamps and event-line ready cycles are 32-bit cycle counts)");
  }
  if (topo_.num_routers() > 0x10000) {
    throw std::invalid_argument(
        "Network: more than 65536 routers is unsupported (packet router "
        "ids are 16-bit; the O(n^2) tables would be infeasible anyway)");
  }
  if (config_.buffer_per_vc() < 1) {
    throw std::invalid_argument("Network: buffer_per_port too small for num_vcs");
  }
  shards_ = resolve_intra_threads(config_.intra_threads, topo_.num_routers());
  team_ = shards_;
  wire();
  for (int e = 0; e < topo_.num_endpoints(); ++e) {
    if (traffic_.is_active(e)) ++active_endpoints_;
  }
  // ---- workload layer: cache the pattern's flags and preallocate every
  // container the steady-state loop will touch.
  traffic_modulated_ = traffic_.modulates_rate();
  traffic_self_clocked_ = traffic_.self_clocked();
  stats_window_ = config_.stats_window;
  if (stats_window_ < 0) {
    throw std::invalid_argument("Network: stats_window must be >= 0");
  }
  if (stats_window_ > 0) {
    const std::int64_t total = config_.warmup_cycles + config_.measure_cycles +
                               config_.drain_cycles;
    const std::int64_t count =
        total > 0 ? (total - 1) / stats_window_ + 1 : 1;
    if (count > (std::int64_t{1} << 22)) {
      throw std::invalid_argument(
          "Network: stats_window " + std::to_string(stats_window_) + " needs " +
          std::to_string(count) +
          " window rows (cap 4194304) — widen the window");
    }
    for (auto& totals : shard_totals_) {
      totals.windows.assign(static_cast<std::size_t>(count), WindowStats{});
    }
  }
  if (traffic_self_clocked_) {
    // Per cycle a shard can complete at most as many deliveries as its
    // ejection lines hold, so that sum bounds the outbox high-water mark.
    completion_outbox_.resize(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      std::size_t cap = 0;
      for (int r = shard_ranges_[s].first; r < shard_ranges_[s].second; ++r) {
        cap += routers_[static_cast<std::size_t>(r)].ejection.capacity();
      }
      completion_outbox_[s].reserve(cap);
    }
    unlocked_scratch_.reserve(traffic_.completion_fanout());
  }
  init_active();
}

void Network::wire() {
  const Graph& g = topo_.graph();
  int nr = topo_.num_routers();
  num_routers_ = nr;
  routers_ = make_routers(nr);
  int buf_vc = config_.buffer_per_vc();

  // ---- ring capacities, derived once from the flow-control config --------
  // Flit channel: <= 1 flit matures per cycle, head popped as soon as it
  // matures (arrivals), so occupancy never exceeds the wire+pipeline
  // latency; +2 is slack for the push-after-pop ordering within a cycle.
  // A network link's incoming line additionally holds its staged-but-not-
  // departed packets (grants write them in with their final ready time).
  const std::size_t chan_cap = static_cast<std::size_t>(
      config_.channel_latency + config_.router_pipeline + 2);
  const std::size_t incoming_cap =
      chan_cap + static_cast<std::size_t>(config_.output_staging);
  // Credit line: <= alloc_iterations pushes per cycle (one grant per input
  // port per iteration), fully drained once mature, so occupancy is
  // bounded by alloc_iterations x (credit_delay + 1).
  const std::size_t credit_cap = static_cast<std::size_t>(
      config_.alloc_iterations * (config_.credit_delay + 1) + 2);

  // Dense neighbor -> output-port table (the O(1) port_of_neighbor the
  // allocation loop and UGAL's path costing rely on). Built before the
  // reverse wiring below, which already uses the fast lookup. Networks
  // beyond the dense limit keep the binary-search fallback so per-point
  // memory stays near-linear.
  neighbor_port_.clear();
  if (nr <= kDenseNeighborPortLimit) {
    neighbor_port_.assign(
        static_cast<std::size_t>(nr) * static_cast<std::size_t>(nr), -1);
    for (int r = 0; r < nr; ++r) {
      const auto& nbrs = g.neighbors(r);
      for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
        neighbor_port_[static_cast<std::size_t>(r) * static_cast<std::size_t>(nr) +
                       static_cast<std::size_t>(nbrs[static_cast<std::size_t>(i)])] =
            static_cast<std::int16_t>(i);
      }
    }
  }

  // ---- SoA arenas (docs/ARCHITECTURE.md, "hot-path memory layout") -------
  // Counting pass first: every variable-length per-router family gets one
  // capacity-exact arena for the whole fleet, then the per-router Spans are
  // carved out of it in router order. Ring payload slabs stay lazy (the
  // shared SlabPool), so the arenas hold exactly the always-resident state.
  const std::size_t nvc = static_cast<std::size_t>(config_.num_vcs);
  std::size_t total_ports = 0, total_vcs = 0, total_cache = 0, total_words = 0;
  for (int r = 0; r < nr; ++r) {
    const std::size_t deg = static_cast<std::size_t>(g.degree(r));
    const std::size_t eps = static_cast<std::size_t>(topo_.endpoints_at(r));
    const std::size_t ports = deg + eps;
    if (ports > 0x7fff) {
      throw std::invalid_argument(
          "Network: more than 32767 ports on one router is unsupported "
          "(port indices are 16-bit)");
    }
    total_ports += ports;
    // Injection inputs only ever buffer on VC 0, so they carry single-VC
    // spans instead of num_vcs worst-case buffers.
    total_vcs += deg * nvc + eps;
    total_cache += ports * nvc;
    total_words += ports + (ports + 63) / 64;  // vc_occupied + staging_nonempty
  }
  input_arena_.clear();
  input_arena_.resize(total_ports);
  output_arena_.clear();
  output_arena_.resize(total_ports);
  vc_arena_.clear();
  vc_arena_.resize(total_vcs);
  credit_arena_.assign(total_ports * nvc, 0);
  mask_arena_.assign(total_words, 0);
  route_arena_.assign(total_cache, RouteDecision{});
  // Charge the pool's reserve float so a straggler ring growing late (in
  // the zero-allocation guard window) pops a shelf instead of allocating.
  slab_pool_.preload();

  std::size_t port_base = 0, vc_base = 0, credit_base = 0, word_base = 0,
              cache_base = 0;
  for (int r = 0; r < nr; ++r) {
    RouterState& router = routers_[static_cast<std::size_t>(r)];
    int deg = g.degree(r);
    int eps = topo_.endpoints_at(r);
    const std::size_t ports = static_cast<std::size_t>(deg + eps);
    router.network_ports = deg;
    router.inputs = Span<InputPort>(input_arena_.data() + port_base, ports);
    router.outputs = Span<OutputPort>(output_arena_.data() + port_base, ports);
    router.vc_occupied =
        Span<std::uint64_t>(mask_arena_.data() + word_base, ports);
    word_base += ports;
    router.staging_nonempty =
        Span<std::uint64_t>(mask_arena_.data() + word_base, (ports + 63) / 64);
    word_base += (ports + 63) / 64;
    router.route_cache =
        Span<RouteDecision>(route_arena_.data() + cache_base, ports * nvc);
    cache_base += ports * nvc;
    const auto& nbrs = g.neighbors(r);
    for (std::size_t i = 0; i < ports; ++i) {
      InputPort& in = router.inputs[i];
      const bool network_input = i < static_cast<std::size_t>(deg);
      const std::size_t nv = network_input ? nvc : 1;
      in.vcs = Span<VcBuffer>(vc_arena_.data() + vc_base, nv);
      vc_base += nv;
      for (auto& b : in.vcs) b.init(buf_vc, &slab_pool_);
      // Network inputs receive their link's flit line locally (see
      // sim/router.hpp): the upstream allocation phase fills it.
      in.incoming.init(network_input ? incoming_cap : 0, &slab_pool_);
    }
    // Aggregated per-router event lines: ejection flits (one push per
    // ejection port per cycle, mature after chan_cap-ish latency) and
    // endpoint uplink credits (<= alloc_iterations per endpoint per cycle,
    // credit_delay deep).
    router.ejection.init(static_cast<std::size_t>(eps) * chan_cap,
                         &slab_pool_);
    router.ep_credits.init(static_cast<std::size_t>(eps) * credit_cap,
                           &slab_pool_);
    for (int i = 0; i < deg + eps; ++i) {
      OutputPort& out = router.outputs[static_cast<std::size_t>(i)];
      // Network ports model staging as a counter (the packet itself is
      // written straight to the downstream incoming line at grant time);
      // only ejection ports store staged packets.
      out.staging.reset(
          i < deg ? 0 : static_cast<std::size_t>(config_.output_staging),
          &slab_pool_);
      out.credit_return.init(i < deg ? credit_cap : 0, &slab_pool_);
      out.credits = Span<int>(credit_arena_.data() + credit_base, nvc);
      credit_base += nvc;
      if (i < deg) {
        out.dest_router = nbrs[static_cast<std::size_t>(i)];
        for (int& c : out.credits) c = buf_vc;
      } else {
        out.dest_router = -1;
        // Endpoints always consume: model as unbounded credit.
        for (int& c : out.credits) c = 1 << 28;
      }
    }
    port_base += ports;
  }
  // Reverse port wiring: input port i of r receives from neighbour i. Both
  // directions are recorded so arrivals can pull (input -> feeding output)
  // and allocation can return credits (input -> upstream credit line).
  for (int r = 0; r < nr; ++r) {
    const auto& nbrs = g.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      int u = nbrs[static_cast<std::size_t>(i)];
      int uport = port_of_neighbor(u, r);
      routers_[static_cast<std::size_t>(r)].outputs[static_cast<std::size_t>(i)]
          .dest_port = static_cast<std::int16_t>(uport);
      InputPort& in =
          routers_[static_cast<std::size_t>(r)].inputs[static_cast<std::size_t>(i)];
      in.src_router = u;
      in.src_port = static_cast<std::int16_t>(uport);
    }
  }
  injector_.init(topo_.num_endpoints(), buf_vc, config_.seed);

  routing_cacheable_ = routing_.cacheable_decisions();
  routing_follows_path_ = routing_.follows_packet_path();

  router_rngs_.clear();
  router_rngs_.reserve(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) {
    router_rngs_.push_back(
        rng_stream(config_.seed, kRouterStreamTag, static_cast<std::uint64_t>(r)));
  }

  // Contiguous router shards (endpoints follow their router). The split is
  // balanced but otherwise arbitrary: results do not depend on it.
  shard_ranges_.clear();
  for (std::size_t s = 0; s < shards_; ++s) {
    int lo = static_cast<int>(s * static_cast<std::size_t>(nr) / shards_);
    int hi = static_cast<int>((s + 1) * static_cast<std::size_t>(nr) / shards_);
    shard_ranges_.emplace_back(lo, hi);
  }
  shard_totals_.assign(shards_, ShardTotals{});
  shard_errors_.assign(shards_, nullptr);
  shard_of_router_.assign(static_cast<std::size_t>(nr), 0);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (int r = shard_ranges_[s].first; r < shard_ranges_[s].second; ++r) {
      shard_of_router_[static_cast<std::size_t>(r)] =
          static_cast<std::uint16_t>(s);
    }
  }

  // Persistent allocation scratch, sized for the widest router per shard.
  alloc_scratch_.assign(shards_, AllocScratch{});
  for (std::size_t s = 0; s < shards_; ++s) {
    std::size_t max_reqs = 0, max_outputs = 0, max_inputs = 0;
    for (int r = shard_ranges_[s].first; r < shard_ranges_[s].second; ++r) {
      const RouterState& router = routers_[static_cast<std::size_t>(r)];
      max_inputs = std::max(max_inputs, router.inputs.size());
      max_outputs = std::max(max_outputs, router.outputs.size());
      max_reqs = std::max(max_reqs, router.inputs.size() *
                                        static_cast<std::size_t>(config_.num_vcs));
    }
    AllocScratch& scratch = alloc_scratch_[s];
    scratch.heads.resize(max_reqs);
    scratch.sorted.resize(max_reqs);
    scratch.offsets.resize(max_outputs + 1);
    scratch.granted.resize(max_inputs);
  }
}

/* SF_HOT */ RouteDecision Network::head_decision(const RouterState& router, int r,
                                     const Packet& pkt) const {
  int next;
  int vc_link;
  if (routing_follows_path_) {
    // Inline default next_router/link_vc: follow pkt.path with VC = hop
    // index, no virtual dispatch. Same sanity guards as the virtual
    // default — a corrupted hop/path must surface as a named error, not
    // as an out-of-range output port fed to the allocator.
    const std::size_t hop = static_cast<std::size_t>(pkt.hop);
    if (hop >= pkt.path.size()) {
      throw std::logic_error("head_decision: hop out of range");
    }
    if (pkt.path[hop] != r) {
      throw std::logic_error("head_decision: packet not on its path");
    }
    next = hop + 1 < pkt.path.size() ? pkt.path[hop + 1] : -1;
    vc_link = pkt.hop;
  } else {
    next = routing_.next_router(*this, pkt, r);
    vc_link = next < 0 ? 0 : routing_.link_vc(pkt);
  }
  int op;
  if (next < 0) {
    op = router.network_ports + (pkt.dst_endpoint - topo_.first_endpoint(r));
    vc_link = 0;  // ejection ports have unbounded credit on VC 0
  } else {
    op = port_of_neighbor(r, next);
  }
  return RouteDecision{static_cast<std::int16_t>(op),
                       static_cast<std::int16_t>(vc_link)};
}


void Network::throw_not_adjacent(int router, int neighbor) const {
  throw std::invalid_argument("port_of_neighbor: not adjacent (" +
                              std::to_string(router) + ", " +
                              std::to_string(neighbor) + ")");
}

/* SF_HOT */ int Network::port_of_neighbor_sparse(int router, int neighbor) const {
  const auto& nbrs = topo_.graph().neighbors(router);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), neighbor);
  if (it == nbrs.end() || *it != neighbor) throw_not_adjacent(router, neighbor);
  return static_cast<int>(it - nbrs.begin());
}

/* SF_HOT */ void Network::arrivals_router(std::size_t shard, int r) {
  RouterState& router = routers_[static_cast<std::size_t>(r)];
  // Credits coming back from downstream consumption of my outputs.
  // Network ports only: nothing ever returns credits to an ejection port
  // (endpoints always consume), so polling them would be pure overhead.
  for (int p = 0; p < router.network_ports; ++p) {
    OutputPort& out = router.outputs[static_cast<std::size_t>(p)];
    while (auto vc = out.credit_return.pop_ready(cycle_)) {
      ++out.credits[static_cast<std::size_t>(*vc)];
      --out.consumed;
    }
  }
  // Flit lines ending at my inputs live *in* my inputs, so the readiness
  // poll walks my own contiguous state; front_ready/drop_front is the
  // copy-free path: the packet is copied exactly once, line slot to VC
  // buffer slot.
  for (int i = 0; i < router.network_ports; ++i) {
    InputPort& in = router.inputs[static_cast<std::size_t>(i)];
    if (const Packet* pkt = in.incoming.front_ready(cycle_)) {
      int vc = pkt->wire_vc;  // VC used on the link just traversed
      in.vcs[static_cast<std::size_t>(vc)].push(*pkt);
      router.vc_occupied[static_cast<std::size_t>(i)] |= std::uint64_t{1} << vc;
      in.incoming.drop_front();
    }
  }
  // My aggregated ejection line completes deliveries to my endpoints
  // (same per-cycle delivery set as per-port lines: at most one flit per
  // ejection port matures per cycle, in port order).
  while (const Packet* pkt = router.ejection.front_ready(cycle_)) {
    deliver(shard, *pkt);
    router.ejection.drop_front();
  }
  // Uplink credits for my endpoints, as events on the per-router line.
  int first_ep = topo_.first_endpoint(r);
  while (auto j = router.ep_credits.pop_ready(cycle_)) {
    ++injector_.credits(first_ep + *j);
  }
}

/* SF_HOT */ void Network::phase_arrivals(std::size_t shard) {
  build_step_list(shard);
  for_each_stepped(shard, [&](int r) { arrivals_router(shard, r); });
}

/* SF_HOT */ void Network::generate_packet(std::size_t shard, int e, int dst,
                              bool in_measurement, std::int64_t dep_stall) {
  auto ep = injector_.endpoint(e);  // reference bundle over the SoA columns
  Packet pkt;
  // Unique and schedule-independent: the endpoint's sequence number
  // strided by endpoint count.
  pkt.id = ep.next_seq++ * topo_.num_endpoints() + e;
  pkt.src_endpoint = e;
  pkt.dst_endpoint = dst;
  pkt.dst_router = static_cast<std::uint16_t>(topo_.endpoint_router(dst));
  pkt.t_generated = static_cast<std::int32_t>(cycle_);
  pkt.measured = in_measurement;
  if (pkt.measured) ++shard_totals_[shard].measured_generated;
  ep.source_queue.push_back(pkt);  // sf-lint: allow(hot-alloc) GrowRing: amortized doubling is the one sanctioned hot-queue growth (hotpath_test budgets it)
  if (stats_window_ > 0) {
    auto& windows = shard_totals_[shard].windows;
    WindowStats& w = windows[window_index(cycle_, windows.size())];
    ++w.generated;
    if (dep_stall > 0) {
      ++w.dep_stalled_sends;
      w.dep_stall_cycles += dep_stall;
    }
  }
}

/* SF_HOT */ void Network::injection_router(std::size_t shard, int r, bool in_measurement) {
  for (int j = 0; j < topo_.endpoints_at(r); ++j) {
    int e = topo_.first_endpoint(r) + j;
    auto ep = injector_.endpoint(e);  // reference bundle over the SoA columns
    if (traffic_self_clocked_) {
      // Self-clocked replay: the pattern decides when the next message is
      // eligible (FIFO order plus `after:` dependency delivery); no load
      // coin is consumed — the workload itself is the clock, so nothing is
      // planned: pending_eligible keeps this router busy and
      // apply_completions wakes it when a dependency delivers.
      std::int64_t dep_stall = 0;
      int dst = traffic_.next_send(e, cycle_, &dep_stall);
      if (dst >= 0) generate_packet(shard, e, dst, in_measurement, dep_stall);
    } else {
      bool hit = false;
      if (ep.next_arrival == kUnplannedArrival) {
        // Live draw from the endpoint's own stream, at cycle 0 and while
        // the source queue is backlogged. A hard-OFF cycle (multiplier 0)
        // consumes no draw, so the stream position depends only on ON-cycle
        // count — the invariant plan_arrival_from's batched draws rely on.
        if (!traffic_modulated_) {
          hit = ep.rng.bernoulli(load_);
        } else if (const double m = traffic_.rate_multiplier(e, cycle_); m > 0.0) {
          hit = rate_hit(m, ep.rng);
        }
      } else if (cycle_ == ep.next_arrival) {
        // A planned arrival materializes. Its Bernoulli draws were consumed
        // at plan time; the destination (and any routing) draws happen now,
        // on the same cycle and in the same order as a live hit's.
        hit = true;
        ep.next_arrival = kUnplannedArrival;
      }
      if (hit) {
        int dst = traffic_.destination(e, ep.rng);
        if (dst >= 0) generate_packet(shard, e, dst, in_measurement, 0);
      }
    }
    // Uplink: move the head of the source queue into the router's
    // injection buffer (VC 0) when a credit is available. Routing happens
    // here so UGAL sees the queue state at the moment of injection; that
    // state is frozen for the whole phase, so the endpoint order cannot
    // influence the decision.
    if (!ep.source_queue.empty() && ep.credits > 0) {
      Packet pkt = ep.source_queue.pop_front();
      --ep.credits;
      pkt.t_injected = static_cast<std::int32_t>(cycle_);
      routing_.route_at_injection(*this, pkt, ep.rng);
      RouterState& router = routers_[static_cast<std::size_t>(r)];
      int port = router.network_ports + j;
      router.inputs[static_cast<std::size_t>(port)].vcs[0].push(pkt);
      router.vc_occupied[static_cast<std::size_t>(port)] |= 1;
    }
    // An empty queue stays planned (or never-arriving), so a sleeping
    // endpoint's next arrival is a wake event, not a poll.
    if (!traffic_self_clocked_ && ep.source_queue.empty() &&
        ep.next_arrival == kUnplannedArrival) {
      plan_arrival_from(shard, r, e, cycle_ + 1);
    }
  }
}

/* SF_HOT */ void Network::phase_injection(std::size_t shard) {
  bool in_measurement = cycle_ >= config_.warmup_cycles &&
                        cycle_ < config_.warmup_cycles + config_.measure_cycles;
  for_each_stepped(shard,
                   [&](int r) { injection_router(shard, r, in_measurement); });
}

/* SF_HOT */ void Network::phase_allocation(std::size_t shard) {
  // Both internal-speedup iterations run back-to-back per router: routers
  // exchange nothing during allocation (credits pushed upstream carry
  // credit_delay >= 1, so they surface in a later cycle's arrivals), which
  // makes the per-router ordering equivalent to the per-iteration one.
  for_each_stepped(shard, [&](int r) { allocate_router(shard, r); });
}

// Requests are gathered per occupied input VC (the vc_occupied bitmask
// skips empty buffers without touching them) and counting-sorted by output
// port. For cacheable routings the (output port, link VC) decision is read
// from the flat per-router route cache — computed once when a packet
// becomes head, invalidated on pop — so next_router runs once per packet
// per router instead of once per waiting cycle; per-hop adaptive routings
// (FT-ANCA) re-derive it every iteration because their decision reads live
// queue state.
/* SF_HOT */ void Network::allocate_router(std::size_t shard, int r) {
  RouterState& router = routers_[static_cast<std::size_t>(r)];
  AllocScratch& scratch = alloc_scratch_[shard];
  const int num_inputs = static_cast<int>(router.inputs.size());
  const int num_outputs = static_cast<int>(router.outputs.size());
  const int nvc = config_.num_vcs;
  for (int iter = 0; iter < config_.alloc_iterations; ++iter) {
    std::fill(scratch.offsets.begin(),
              scratch.offsets.begin() + num_outputs + 1, 0);
    int n_heads = 0;
    for (int ip = 0; ip < num_inputs; ++ip) {
      // Visit only occupied VCs (ascending — the same order a full scan
      // would use). For cached decisions the gather touches just the
      // occupancy word and the flat route cache, never the buffer.
      std::uint64_t mask = router.vc_occupied[static_cast<std::size_t>(ip)];
      while (mask) {
        const int vc = ctz64(mask);
        mask &= mask - 1;
        const std::size_t ci =
            static_cast<std::size_t>(ip) * static_cast<std::size_t>(nvc) +
            static_cast<std::size_t>(vc);
        RouteDecision d = router.route_cache[ci];
        if (!(routing_cacheable_ && d.port >= 0)) {
          const Packet& pkt = router.inputs[static_cast<std::size_t>(ip)]
                                  .vcs[static_cast<std::size_t>(vc)]
                                  .front();
          d = head_decision(router, r, pkt);
          if (routing_cacheable_) router.route_cache[ci] = d;
        }
        scratch.heads[static_cast<std::size_t>(n_heads++)] =
            Request{ip, vc, d.port, d.vc_link};
        ++scratch.offsets[static_cast<std::size_t>(d.port) + 1];
      }
    }
    // No heads at all: nothing can be granted this iteration, and an
    // iteration without grants leaves every allocator input unchanged, so
    // the remaining iterations are no-ops too.
    if (n_heads == 0) break;
    // Counting-sort the requests by output port (stable: (ip, vc) order
    // within each output). After the prefix sum, offsets[op] is the begin
    // of op's range; the scatter advances it in place, leaving offsets[op]
    // == end of op's range (= begin of op+1's).
    for (int op = 0; op < num_outputs; ++op) {
      scratch.offsets[static_cast<std::size_t>(op) + 1] +=
          scratch.offsets[static_cast<std::size_t>(op)];
    }
    for (int i = 0; i < n_heads; ++i) {
      const Request& req = scratch.heads[static_cast<std::size_t>(i)];
      int& cursor = scratch.offsets[static_cast<std::size_t>(req.output_port)];
      scratch.sorted[static_cast<std::size_t>(cursor++)] = req;
    }
    std::fill(scratch.granted.begin(),
              scratch.granted.begin() + num_inputs, std::uint8_t{0});
    int grants = 0;
    for (int op = 0; op < num_outputs; ++op) {
      // Candidate check first: it reads only scratch-local offsets, so
      // outputs nobody requested never touch their OutputPort at all.
      int begin = op == 0 ? 0 : scratch.offsets[static_cast<std::size_t>(op) - 1];
      int n_req = scratch.offsets[static_cast<std::size_t>(op)] - begin;
      if (n_req == 0) continue;
      OutputPort& out = router.outputs[static_cast<std::size_t>(op)];
      if (out.staged >= config_.output_staging) continue;
      // Round-robin over this output's candidates.
      int start = out.rr_pointer % n_req;
      for (int k = 0; k < n_req; ++k) {
        const Request& req = scratch.sorted[static_cast<std::size_t>(
            begin + (start + k) % n_req)];
        if (scratch.granted[static_cast<std::size_t>(req.input_port)]) continue;
        if (out.credits[static_cast<std::size_t>(req.vc_link)] <= 0) continue;
        InputPort& in =
            router.inputs[static_cast<std::size_t>(req.input_port)];
        VcBuffer& buf = in.vcs[static_cast<std::size_t>(req.vc)];
        if (buf.empty()) continue;  // granted earlier this cycle
        // One copy: VC buffer slot to the packet's next resting place,
        // fields patched in place, then the buffer head is dropped and its
        // cached routing decision invalidated (the next packet is a new
        // head). For a network port that resting place is the DOWNSTREAM
        // incoming line directly: the staging stage drains exactly one
        // flit per cycle, so a packet granted with `staged` flits ahead of
        // it departs at cycle + staged and matures a wire+pipeline later —
        // the ready time is final at grant time, and per output the
        // readies are strictly increasing, preserving line FIFO order.
        // This phase is the line's sole producer (all grants to a link
        // happen in its one upstream router), and nothing reads incoming
        // lines during allocation.
        Packet* staged_pkt;
        if (op < router.network_ports) {
          const std::int64_t ready = cycle_ + out.staged +
                                     config_.channel_latency +
                                     config_.router_pipeline;
          staged_pkt = &routers_[static_cast<std::size_t>(out.dest_router)]
                            .inputs[static_cast<std::size_t>(out.dest_port)]
                            .incoming.push_slot(ready);
          // The downstream router must run arrivals when this flit matures,
          // even if it is asleep by then.
          schedule_wake(shard, out.dest_router, ready);
        } else {
          staged_pkt = &out.staging.push_slot();
        }
        Packet& staged = *staged_pkt;
        staged = buf.front();
        buf.drop_front();
        router.route_cache[static_cast<std::size_t>(req.input_port) *
                               static_cast<std::size_t>(nvc) +
                           static_cast<std::size_t>(req.vc)]
            .port = -1;
        if (buf.empty()) {
          router.vc_occupied[static_cast<std::size_t>(req.input_port)] &=
              ~(std::uint64_t{1} << req.vc);
        }
        --out.credits[static_cast<std::size_t>(req.vc_link)];
        ++out.consumed;
        staged.wire_vc = static_cast<std::int8_t>(req.vc_link);
        ++staged.hop;
        ++out.staged;
        router.staging_nonempty[static_cast<std::size_t>(op) / 64] |=
            std::uint64_t{1} << (op % 64);
        ++grants;
        ++shard_totals_[shard].flit_hops;
        scratch.granted[static_cast<std::size_t>(req.input_port)] = 1;
        out.rr_pointer = (start + k + 1) % n_req;
        if (req.input_port < router.network_ports) {
          routers_[static_cast<std::size_t>(in.src_router)]
              .outputs[static_cast<std::size_t>(in.src_port)]
              .credit_return.push(cycle_ + config_.credit_delay, req.vc);
          // Credit maturation must run on time even on a sleeping upstream
          // router: UGAL's queue_estimate reads `consumed` remotely, so a
          // stale counter would change adaptive decisions.
          schedule_wake(shard, in.src_router, cycle_ + config_.credit_delay);
        } else {
          router.ep_credits.push(cycle_ + config_.credit_delay,
                                 req.input_port - router.network_ports);
          // This router may drain to idle before the uplink credit matures.
          schedule_wake(shard, r, cycle_ + config_.credit_delay);
        }
        break;
      }
    }
    // An iteration that granted nothing leaves every allocator input
    // untouched, so all remaining iterations would replay it verbatim.
    if (grants == 0) break;
  }
}

/* SF_HOT */ void Network::transmission_router(std::size_t shard, int r) {
  const std::int64_t ready =
      cycle_ + config_.channel_latency + config_.router_pipeline;
  RouterState& router = routers_[static_cast<std::size_t>(r)];
  int num_words = static_cast<int>(router.staging_nonempty.size());
  for (int w = 0; w < num_words; ++w) {
    std::uint64_t mask = router.staging_nonempty[static_cast<std::size_t>(w)];
    while (mask) {
      const int op = w * 64 + ctz64(mask);
      mask &= mask - 1;
      OutputPort& out = router.outputs[static_cast<std::size_t>(op)];
      // One flit leaves the staging stage per cycle. Network-port
      // packets already sit in the downstream incoming line (written at
      // grant time with their final ready), so only the occupancy
      // counter advances here; ejection packets hop from the staging
      // ring onto the router's aggregated ejection line now, keeping
      // that line's pushes time-ordered across ports.
      if (op >= router.network_ports) {
        router.ejection.push_slot(ready) = out.staging.front();
        out.staging.drop_front();
        // The delivery must run when the flit matures, and nothing else
        // keeps this router awake once its buffers drain.
        schedule_wake(shard, r, ready);
      }
      if (--out.staged == 0) {
        router.staging_nonempty[static_cast<std::size_t>(w)] &=
            ~(std::uint64_t{1} << (op % 64));
      }
    }
  }
}

/* SF_HOT */ void Network::phase_transmission(std::size_t shard) {
  for_each_stepped(shard, [&](int r) { transmission_router(shard, r); });
  // The shard-local busy refresh reads only state this shard's phases
  // wrote (VC masks, staging counters, endpoint queues), so it needs no
  // barrier.
  update_busy(shard);
}

/* SF_HOT */ void Network::deliver(std::size_t shard, const Packet& pkt) {
  ShardTotals& totals = shard_totals_[shard];
  totals.stats.record_delivery(cycle_ - pkt.t_generated, cycle_ - pkt.t_injected,
                               pkt.measured);
  if (cycle_ >= config_.warmup_cycles &&
      cycle_ < config_.warmup_cycles + config_.measure_cycles) {
    ++totals.delivered_in_window;
  }
  if (stats_window_ > 0) {
    WindowStats& w = totals.windows[window_index(cycle_, totals.windows.size())];
    ++w.delivered;
    w.latency_sum += cycle_ - pkt.t_generated;
  }
  if (traffic_self_clocked_) {
    // Record the completion for the serial between-cycles pass. The message
    // sequence number is recovered from the packet id (seq * N + src), so
    // no Packet field is spent on it.
    push_reserved(completion_outbox_[shard], "completion outbox",
                  (static_cast<std::int64_t>(pkt.src_endpoint) << 32) |
                      (pkt.id / topo_.num_endpoints()));
  }
}

// Serial between-cycles completion pass: every delivery recorded during this
// cycle's arrivals unlocks its dependents in the pattern before the next
// cycle begins. Running it serially — even with one shard, where deliver()
// could have applied completions inline — gives every shard count the same
// uniform one-cycle eligibility deferral, which is what makes replay
// schedules bit-identical across them.
/* SF_HOT */ void Network::apply_completions() {
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::int64_t packed : completion_outbox_[s]) {
      const int src = static_cast<int>(packed >> 32);
      const std::int64_t seq = packed & 0xffffffff;
      unlocked_scratch_.clear();
      traffic_.on_delivered(src, seq, unlocked_scratch_);
      for (int e : unlocked_scratch_) {
        // Called serially, so pass the owner shard: the wake goes straight
        // to its wheel, never through an outbox.
        const int r = topo_.endpoint_router(e);
        schedule_wake(shard_of_router_[static_cast<std::size_t>(r)], r,
                      cycle_ + 1);
      }
    }
    completion_outbox_[s].clear();
  }
}

void Network::sync() {
  if (barrier_) barrier_->arrive_and_wait();
}

void Network::resize_team(int want) {
  std::size_t w = want < 1 ? 1 : static_cast<std::size_t>(want);
  if (w > shards_) w = shards_;
  if (w == team_) return;
  team_ = w;
  // Torn down here, recreated lazily by the next parallel step at the new
  // party count — team changes are rare by design (the point scheduler
  // only grows a point's team as sibling points finish).
  pool_.reset();
  barrier_.reset();
}

// A worker steps its contiguous shard sub-range through the four phases,
// finishing each phase over ALL its shards before the global barrier:
// allocation writes remote incoming/credit lines that other shards' later
// phases read, so the phases must stay globally aligned no matter how the
// shards are distributed over workers. Within a phase the per-shard order
// is immaterial (each shard only writes state it owns plus single-producer
// remote lines nobody reads during that phase), which is exactly why the
// trajectory is bit-identical for every team size. With team_ == shards_
// each worker owns one shard and this is the classic one-shard body.
/* SF_HOT */ void Network::step_worker(std::size_t worker) {
  const std::pair<std::size_t, std::size_t> range = worker_shards(worker);
  // A phase that throws poisons only its shard; the worker keeps arriving
  // at the remaining barriers so its peers never hang, and step() rethrows.
  auto guarded = [&](void (Network::*phase)(std::size_t)) {
    for (std::size_t shard = range.first; shard < range.second; ++shard) {
      if (shard_errors_[shard]) continue;
      try {
        (this->*phase)(shard);
      } catch (...) {
        shard_errors_[shard] = std::current_exception();
      }
    }
  };
  guarded(&Network::phase_arrivals);
  sync();
  guarded(&Network::phase_injection);
  sync();
  guarded(&Network::phase_allocation);
  sync();
  guarded(&Network::phase_transmission);
}

/* SF_HOT */ void Network::step() {
  // Execution-only: the provider can change how many workers step the fixed
  // shard set, never which shard owns what (see SimConfig::team_provider).
  if (config_.team_provider) resize_team(config_.team_provider());
  std::fill(shard_errors_.begin(), shard_errors_.end(), nullptr);
  if (team_ == 1) {
    step_worker(0);
  } else {
    if (!pool_) {
      // Dedicated team: team_ - 1 pool workers plus the calling thread.
      // Dedicated, because the region's barriers require every worker to be
      // scheduled (util/threadpool.hpp).
      pool_ = std::make_unique<ThreadPool>(team_ - 1);  // sf-lint: allow(hot-alloc) one-time lazy init after a team change, not steady state
      barrier_ = std::make_unique<Barrier>(team_);  // sf-lint: allow(hot-alloc) one-time lazy init after a team change, not steady state
    }
    run_region(*pool_, team_, [this](std::size_t w) { step_worker(w); });
  }
  for (auto& err : shard_errors_) {
    if (err) std::rethrow_exception(err);
  }
  // Merge cross-shard wake events serially, before ++cycle_, so every wheel
  // and heap is complete when fast_forward inspects them between steps.
  if (shards_ > 1) drain_wake_outboxes();
  if (traffic_self_clocked_) apply_completions();
  ++cycle_;
  ++cycles_stepped_;
  stats_dirty_ = true;
}

// ---- active-set bookkeeping -------------------------------------------------

void Network::init_active() {
  step_list_.assign(shards_, {});
  wheels_.assign(shards_, {});
  wake_heaps_.assign(shards_, {});
  wake_outbox_.assign(shards_, {});
  busy_.assign(shards_, {});
  // How far ahead each line schedules its wakes: a grant's flit matures
  // after at most output_staging - 1 queued flits plus wire and pipeline,
  // a delivery after wire and pipeline, a credit after credit_delay.
  const std::int64_t transit =
      static_cast<std::int64_t>(config_.channel_latency) +
      config_.router_pipeline;
  const bool far_flits = config_.output_staging - 1 + transit >= kWheelSlots;
  const bool far_ejections = transit >= kWheelSlots;
  const bool far_credits = config_.credit_delay >= kWheelSlots;
  for (std::size_t s = 0; s < shards_; ++s) {
    auto [lo, hi] = shard_ranges_[s];
    const std::size_t owned = static_cast<std::size_t>(hi - lo);
    const std::size_t words = (owned + 63) / 64;
    // Every router starts busy, so cycle 0 steps the whole network: each
    // endpoint's first injection pass draws live at cycle 0 and then plans
    // from cycle 1 (injection_router); self-clocked replay pops its
    // initially-eligible sends the same way. update_busy after cycle 0
    // clears every router without work.
    busy_[s].assign(words, 0);
    for (std::size_t local = 0; local < owned; ++local) {
      busy_[s][local / 64] |= std::uint64_t{1} << (local % 64);
    }
    wheels_[s].words = words;
    wheels_[s].rows.assign(static_cast<std::size_t>(kWheelSlots) * words, 0);
    step_list_[s].reserve(owned / 2 + 1);  // runs are separated by gaps
    // Far events targeting a router: at most one pending injector arrival
    // per endpoint (self-clocked unlock wakes are one cycle ahead, so they
    // take the wheel), plus — only for a line whose delay can reach
    // kWheelSlots — the un-matured entries of that line (each push
    // schedules exactly one wake at the entry's ready cycle, popped at that
    // cycle's build). Reserving the sum keeps the steady-state
    // push_heap/push_back allocation-free.
    std::size_t cap = 1, remote_ports = 0;
    for (int r = lo; r < hi; ++r) {
      const RouterState& router = routers_[static_cast<std::size_t>(r)];
      for (int i = 0; i < router.network_ports; ++i) {
        const int neighbour =
            router.outputs[static_cast<std::size_t>(i)].dest_router;
        if (neighbour < lo || neighbour >= hi) ++remote_ports;
        if (far_flits) {
          cap += router.inputs[static_cast<std::size_t>(i)].incoming.capacity();
        }
        if (far_credits) {
          cap += router.outputs[static_cast<std::size_t>(i)]
                     .credit_return.capacity();
        }
      }
      if (far_ejections) cap += router.ejection.capacity();
      if (far_credits) cap += router.ep_credits.capacity();
      cap += static_cast<std::size_t>(topo_.endpoints_at(r));
    }
    wake_heaps_[s].reserve(cap);
    // Outbox: cleared every cycle. Only allocation pushes into it — a flit
    // wake per grant to a neighbour in another shard, a credit wake per
    // grant from one — and per iteration each port grants at most once, so
    // it holds at most alloc_iterations x 2 x (ports whose neighbour lies
    // in another shard) events. A single shard has none and reserves
    // nothing.
    wake_outbox_[s].reserve(remote_ports *
                            static_cast<std::size_t>(config_.alloc_iterations) *
                            2);
  }
}

/* SF_HOT */ void Network::schedule_wake(std::size_t shard, int router,
                                         std::int64_t at) {
  const std::size_t owner = shard_of_router_[static_cast<std::size_t>(router)];
  if (owner == shard) {
    file_wake(owner, router, at);
  } else {
    push_reserved(wake_outbox_[shard], "wake outbox",
                  (at << 16) | static_cast<std::int64_t>(router & 0xffff));
  }
}

/* SF_HOT */ void Network::file_wake(std::size_t owner, int router, std::int64_t at) {
  if (at - cycle_ < kWheelSlots) {
    // credit_delay = 0 schedules a credit wake for the current cycle, whose
    // slot is already consumed; like a due heap event, it wakes the router
    // at the next cycle.
    const std::int64_t due = std::max(at, cycle_ + 1);
    WakeWheel& wheel = wheels_[owner];
    const std::size_t slot = static_cast<std::size_t>(due & (kWheelSlots - 1));
    const std::size_t local =
        static_cast<std::size_t>(router - shard_ranges_[owner].first);
    wheel.rows[slot * wheel.words + local / 64] |= std::uint64_t{1}
                                                   << (local % 64);
    wheel.occupied |= std::uint64_t{1} << slot;
    return;
  }
  auto& heap = wake_heaps_[owner];
  push_reserved(heap, "far wake heap",
                (at << 16) | static_cast<std::int64_t>(router & 0xffff));
  std::push_heap(heap.begin(), heap.end(), std::greater<std::int64_t>{});
}

/* SF_HOT */ void Network::drain_wake_outboxes() {
  for (auto& box : wake_outbox_) {
    for (std::int64_t event : box) {
      const int router = static_cast<int>(event & 0xffff);
      file_wake(shard_of_router_[static_cast<std::size_t>(router)], router,
                event >> 16);
    }
    box.clear();
  }
}

/* SF_HOT */ void Network::build_step_list(std::size_t shard) {
  const int lo = shard_ranges_[shard].first;
  // This cycle's wheel row is the woken mask; the step list consumes it
  // below, leaving the slot empty for cycle_ + kWheelSlots.
  WakeWheel& wheel = wheels_[shard];
  const std::size_t slot =
      static_cast<std::size_t>(cycle_ & (kWheelSlots - 1));
  std::uint64_t* woken = wheel.rows.data() + slot * wheel.words;
  wheel.occupied &= ~(std::uint64_t{1} << slot);
  // Far events due now. Stale or duplicate wakes (a busy router stepped at
  // its wake cycle anyway) just re-activate a router — stepping a quiet
  // router is a no-op, so they are harmless.
  auto& heap = wake_heaps_[shard];
  const std::int64_t limit = (cycle_ + 1) << 16;
  while (!heap.empty() && heap.front() < limit) {
    const int local = static_cast<int>(heap.front() & 0xffff) - lo;
    woken[static_cast<std::size_t>(local) / 64] |=
        std::uint64_t{1} << (local % 64);
    std::pop_heap(heap.begin(), heap.end(), std::greater<std::int64_t>{});
    heap.pop_back();
  }
  auto& runs = step_list_[shard];
  runs.clear();
  const auto& busy = busy_[shard];
  for (std::size_t w = 0; w < wheel.words; ++w) {
    std::uint64_t mask = woken[w] | busy[w];
    woken[w] = 0;
    while (mask) {
      const int r = lo + static_cast<int>(w) * 64 + ctz64(mask);
      mask &= mask - 1;
      // Ascending, so the phases visit routers in index order.
      if (!runs.empty() && runs.back().second == r) {
        ++runs.back().second;
      } else {
        push_reserved(runs, "step list", r, r + 1);
      }
    }
  }
}

/* SF_HOT */ bool Network::router_is_busy(int r) const {
  const RouterState& router = routers_[static_cast<std::size_t>(r)];
  for (std::uint64_t w : router.staging_nonempty) {
    if (w) return true;
  }
  for (std::uint64_t w : router.vc_occupied) {
    if (w) return true;
  }
  for (int j = 0; j < topo_.endpoints_at(r); ++j) {
    const int e = topo_.first_endpoint(r) + j;
    if (!injector_.source_queue(e).empty()) return true;
    // Self-clocked replay: an eligible pending send is work — the router
    // must step so injection can pop it (the FIFO gate allows at most one
    // pop per endpoint per cycle, so eligibility can outlive the queues).
    if (traffic_self_clocked_ && traffic_.pending_eligible(e)) return true;
  }
  return false;
}

/* SF_HOT */ void Network::update_busy(std::size_t shard) {
  const int lo = shard_ranges_[shard].first;
  auto& busy = busy_[shard];
  for_each_stepped(shard, [&](int r) {
    const int local = r - lo;
    const std::uint64_t bit = std::uint64_t{1} << (local % 64);
    if (router_is_busy(r)) {
      busy[static_cast<std::size_t>(local) / 64] |= bit;
    } else {
      busy[static_cast<std::size_t>(local) / 64] &= ~bit;
    }
  });
}

/* SF_HOT */ void Network::plan_arrival_from(std::size_t shard, int r, int e,
                                std::int64_t from) {
  auto ep = injector_.endpoint(e);  // reference bundle over the SoA columns
  if (load_ <= 0.0) {
    ep.next_arrival = kNeverArrives;
    return;
  }
  // Batch the per-cycle Bernoulli draws the sleeping endpoint would have
  // made — one draw per cycle, the exact sequence of live draws. Draws are
  // capped at the run's absolute last cycle: past it no packet can
  // materialize, so the leftover stream divergence is unobservable.
  const std::int64_t last = config_.warmup_cycles + config_.measure_cycles +
                            config_.drain_cycles;
  std::int64_t t = from;
  if (traffic_modulated_) {
    // Modulated stream: ON cycles draw one by one, the exact sequence
    // injection_router's live draws produce; an OFF cycle consumes no draw,
    // so the walk jumps to the pattern's off_until instead of querying each
    // silent cycle (rate_multiplier tolerates the monotone-with-gaps cycles
    // this batch walks).
    while (t < last) {
      const double m = traffic_.rate_multiplier(e, t);
      if (m <= 0.0) {
        t = traffic_.off_until(e, t);
      } else if (rate_hit(m, ep.rng)) {
        break;
      } else {
        ++t;
      }
    }
  } else {
    while (t < last && !ep.rng.bernoulli(load_)) ++t;
  }
  if (t >= last) {
    ep.next_arrival = kNeverArrives;
    return;
  }
  ep.next_arrival = t;
  schedule_wake(shard, r, t);
}

/* SF_HOT */ void Network::fast_forward(std::int64_t bound) {
  for (const auto& words : busy_) {
    for (std::uint64_t w : words) {
      if (w) return;  // someone has work every cycle: no idle stretch
    }
  }
  // Earliest pending wake: each far heap's top, and each wheel's first
  // occupied slot at or after cycle_ (rotate cycle_'s slot to bit 0; every
  // wheel event lies in [cycle_, cycle_ + kWheelSlots)).
  std::int64_t next = bound;
  const int slot = static_cast<int>(cycle_ & (kWheelSlots - 1));
  for (std::size_t s = 0; s < shards_; ++s) {
    const auto& heap = wake_heaps_[s];
    if (!heap.empty()) next = std::min(next, heap.front() >> 16);
    const std::uint64_t occupied = wheels_[s].occupied;
    if (occupied) {
      const std::uint64_t from_now =
          slot == 0 ? occupied : (occupied >> slot) | (occupied << (64 - slot));
      next = std::min(next, cycle_ + ctz64(from_now));
    }
  }
  if (next > cycle_) cycle_ = next;
}

const Stats& Network::stats() const {
  if (stats_dirty_) {
    merged_stats_ = Stats{};
    std::int64_t generated = 0;
    for (const auto& totals : shard_totals_) {
      merged_stats_.merge(totals.stats);
      generated += totals.measured_generated;
    }
    merged_stats_.set_measured_generated(generated);
    stats_dirty_ = false;
  }
  return merged_stats_;
}

bool Network::all_measured_delivered() const {
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  for (const auto& totals : shard_totals_) {
    generated += totals.measured_generated;
    delivered += totals.stats.measured_delivered();
  }
  return delivered >= generated;
}

std::int64_t Network::delivered_in_window() const {
  std::int64_t total = 0;
  for (const auto& totals : shard_totals_) total += totals.delivered_in_window;
  return total;
}

std::int64_t Network::flit_hops() const {
  std::int64_t total = 0;
  for (const auto& totals : shard_totals_) total += totals.flit_hops;
  return total;
}

std::int64_t Network::flits_in_flight() const {
  std::int64_t total = 0;
  for (const auto& router : routers_) {
    for (const auto& in : router.inputs) {
      total += in.occupancy() + static_cast<std::int64_t>(in.incoming.size());
    }
    for (const auto& out : router.outputs) {
      total += static_cast<std::int64_t>(out.staging.size());
    }
    total += static_cast<std::int64_t>(router.ejection.size());
  }
  return total;
}

void Network::reserve_measurement_stats() {
  for (std::size_t s = 0; s < shards_; ++s) {
    auto [lo, hi] = shard_ranges_[s];
    std::int64_t endpoints = 0;
    for (int r = lo; r < hi; ++r) endpoints += topo_.endpoints_at(r);
    shard_totals_[s].stats.reserve(
        static_cast<std::size_t>(endpoints * config_.measure_cycles));
  }
  // Charge the pool's full-depth float: at high stable load, hundreds of
  // rings cross new high-water marks long after any settle phase, and the
  // construction-time ~1 MiB float (64 slabs/class) is exhausted by the
  // first wave. kShelfDepth slabs per class up to the default byte ceiling
  // is ~16 MiB — noise next to the arenas, and only charged on this
  // opt-in measurement path, never at fleet-scale construction.
  slab_pool_.preload(SlabPool::kDefaultPreloadMaxBytes, SlabPool::kShelfDepth);
  // Back every lazy ring's FIRST slab eagerly: a ring whose first traffic
  // lands after the guard/bench settle phase then grows privately instead
  // of hitting the pool (whose preload float a low-load settle phase can
  // exhaust). Same opt-in trade as the stats reservation above — wasteful
  // as a default at fleet scale, where untouched rings costing nothing is
  // the whole point of the lazy tier.
  for (auto& router : routers_) {
    for (auto& in : router.inputs) {
      for (auto& b : in.vcs) b.prewarm();
      in.incoming.prewarm();
    }
    for (auto& out : router.outputs) {
      out.staging.prewarm();
      out.credit_return.prewarm();
    }
    router.ejection.prewarm();
    router.ep_credits.prewarm();
  }
}

SimResult Network::run() {
  // fast_forward runs at the top of each iteration, before the bounds
  // check: a jump straight to the bound ends the loop exactly where
  // per-cycle stepping would have, so result.cycles never depends on it.
  std::int64_t horizon = config_.warmup_cycles + config_.measure_cycles;
  while (cycle_ < horizon) {
    fast_forward(horizon);
    if (cycle_ >= horizon) break;
    step();
  }
  std::int64_t drain_end = horizon + config_.drain_cycles;
  while (!all_measured_delivered() && cycle_ < drain_end) {
    fast_forward(drain_end);
    if (cycle_ >= drain_end) break;
    step();
  }

  const Stats& merged = stats();
  SimResult result;
  result.offered_load = load_;
  result.avg_latency = merged.average_latency();
  result.avg_network_latency = merged.average_network_latency();
  result.p99_latency = merged.percentile_latency(0.99);
  result.delivered = merged.total_delivered();
  result.cycles = cycle_;
  result.cycles_stepped = cycles_stepped_;
  result.flit_hops = flit_hops();
  // Accepted throughput counts ejections *during* the measurement window
  // (Dally & Towles methodology); packets delivered later in the drain
  // improve latency statistics but not throughput.
  double denom = static_cast<double>(active_endpoints_) *
                 static_cast<double>(config_.measure_cycles);
  result.accepted_load =
      denom > 0 ? static_cast<double>(delivered_in_window()) / denom : 0.0;
  result.saturated = !merged.all_measured_delivered() ||
                     result.avg_latency > config_.latency_cap;
  result.stats_window = stats_window_;
  if (stats_window_ > 0 && cycle_ > 0) {
    // Merge per-shard rows elementwise and trim to the windows the run
    // actually reached; cycle_ is itself deterministic, so the trim is too.
    const std::size_t allocated = shard_totals_[0].windows.size();
    const std::size_t used = std::min(
        allocated,
        static_cast<std::size_t>((cycle_ - 1) / stats_window_) + 1);
    result.windows.assign(used, WindowStats{});
    for (const auto& totals : shard_totals_) {
      for (std::size_t i = 0; i < used; ++i) {
        result.windows[i].merge(totals.windows[i]);
      }
    }
  }
  return result;
}

}  // namespace slimfly::sim
