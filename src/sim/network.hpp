#pragma once
// The cycle-driven network engine: input-queued routers with virtual
// channels and credit-based flow control, Bernoulli endpoint injection,
// two switch-allocation iterations per cycle (internal speedup 2), and the
// warmup / measurement / drain methodology of the paper (Section V).
//
// Port layout per router r of degree d with e = endpoints_at(r):
//   inputs  [0, d) from neighbours, [d, d+e) injection from endpoints
//   outputs [0, d) to neighbours,   [d, d+e) ejection to endpoints
// Neighbour i (in sorted adjacency order) uses port i on both sides.
//
// ---- Step phases and the thread-safety contract ----------------------------
//
// A cycle is four explicit phases with a barrier between consecutive ones.
// Routers (and the endpoints attached to them) are sharded into contiguous
// ranges; within a phase each shard touches only state it exclusively owns,
// so SimConfig::intra_threads workers step the phases in parallel and the
// result is bit-identical to sequential stepping for every worker and shard
// count (docs/ARCHITECTURE.md spells out the full argument; the ctest
// network_parallel_test enforces it).
//
//   1. arrivals      Local: router r scans its own head-ready arrays and
//                    pops only the due lines — the credit_return lines of
//                    its network outputs and the incoming flit line stored
//                    at each of its inputs (filled by the upstream router's
//                    allocation — see sim/router.hpp for the receiver-side
//                    placement) — delivers from its own aggregated
//                    ejection line into its shard's Stats, and drains its
//                    ep_credits event line.
//                      writes: r's credits/inputs (incl. the occupancy
//                              mask and head-ready slots), r's ejection
//                              and ep_credits lines and their head slots,
//                              shard stats, ep credits.
//                      reads:  cycle_.
//   2. injection     Per endpoint of r: Bernoulli generation and uplink
//                    into r's injection buffer, drawing only from the
//                    endpoint's private RNG stream. route_at_injection
//                    (UGAL's queue comparison) reads output-queue state of
//                    arbitrary routers — legal because no output queue or
//                    credit count mutates during this phase, so any
//                    endpoint order sees identical snapshots.
//                    Only r's ready endpoints are visited (the set bits of
//                    its endpoint-ready mask, ascending, plus the planned
//                    arrivals that come due, found from r's
//                    earliest_arrival slot).
//                      writes: ep state, r's injection-port buffers,
//                              endpoint-ready mask and earliest_arrival,
//                              packet ids/seq, shard measured_generated.
//                      reads:  any router's outputs (frozen), cycle_.
//   3. allocation    Both alloc_iterations for router r back-to-back: pops
//                    r's input buffers, spends r's output credits and
//                    staging slots, and performs two kinds of remote
//                    pushes, each with a single producer and invisible
//                    until a later cycle's arrivals: freed-slot credits
//                    onto the upstream credit_return lines feeding r
//                    (credit_delay >= 1), and granted network packets
//                    onto the downstream incoming lines (final ready time
//                    = cycle + staged occupancy + wire latency, always
//                    >= next cycle; no shard reads any incoming line
//                    during this phase). next_port() may read r's own
//                    queue estimates (FT-ANCA adaptivity) — never another
//                    router's.
//                      writes: r's inputs/credits/staged/rr/route caches/
//                              masks, ejection-port staging rings, r's
//                              ep_credits line and ep_credits_ready slot,
//                              upstream credit_return lines and their
//                              credit_ready slots (sole producer),
//                              downstream incoming lines and their
//                              incoming_ready slots (sole producer).
//                      reads:  r's outputs, cycle_.
//   4. transmission  Advances r's staging counters (one flit per output
//                    per cycle; network packets already sit in the
//                    downstream incoming line) and moves ejection staging
//                    heads onto r's own aggregated ejection line.
//                      writes: r's staged counters/staging_nonempty masks,
//                              ejection staging rings, ejection line and
//                              its ejection_ready slot.
//                      reads:  cycle_.
//
// Serial between cycles: ++cycle_, the run() loop checks, and — for
// self-clocked traffic — apply_completions(): deliveries recorded by each
// shard during arrivals are fed back into the traffic pattern's dependency
// state here, even when shards_ == 1, so a message delivered at cycle T
// unlocks its dependents for injection at T+1 regardless of shard count
// (it also sets the unlocked endpoints' bits in their routers' ready masks).
// Anything not listed as writable in a phase must not be
// written there; widening a phase's write set requires re-auditing every
// cross-shard read above.
//
// ---- Workload layer --------------------------------------------------------
//
// TrafficPattern's workload hooks (traffic.hpp) plug in here:
//   * rate modulation (burst:) — the injection phase asks the pattern for a
//     per-endpoint multiplier each cycle; a zero multiplier consumes NO
//     Bernoulli draw, which keeps live draws (cycle 0 and backlogged
//     endpoints, querying every cycle) and planned draws (plan_arrival_from's
//     batched loop, which jumps to off_until past each silent cycle) on one
//     stream. The unmodulated path never asks (the flag is cached at
//     construction).
//   * self-clocked replay (trace:/allreduce:) — injection pops eligible
//     sends from the pattern instead of drawing coins; deliveries flow back
//     through per-shard completion outboxes (drained serially, above); an
//     endpoint with an eligible head keeps its ready bit, and a delivery
//     sets the bits and wakes the routers of the endpoints it unlocks.
//   * windowed stats (SimConfig::stats_window) — per-shard WindowStats rows
//     (preallocated; merged by elementwise sums) giving the time-resolved
//     generated/delivered/latency/dependency-stall view.
//
// ---- Stepping: the active set ----------------------------------------------
//
// There is one set of phase functions: each phase walks its shard's step
// list, the routers with work this cycle. Each shard keeps (a) a busy
// bitmask over its routers — busy iff any input VC is occupied, any staging
// counter is nonzero, or an attached endpoint has work left (a nonempty
// source queue or an eligible self-clocked head; read from the router's
// occupancy, staging and endpoint-ready masks, never by walking ports or
// endpoints) —
// and (b) its future wakes, fed by every event with a known maturity cycle:
// granted flits (downstream incoming-line ready), returning credits
// (upstream credit_return ready — keeps UGAL's remote queue_estimate reads
// exact on sleeping routers), ejection-line readies, endpoint uplink
// credits, and injector next-arrival cycles (planned: the Bernoulli draws a
// sleeping endpoint would make are batched at plan time, jumping over OFF
// segments via TrafficPattern::off_until; the destination/routing draws stay
// at the materialize cycle, so every stream consumes values in exactly the
// order of a per-cycle live draw). Wakes fewer than kWheelSlots cycles ahead
// go into a timing wheel of per-cycle bitmask rows (one OR each, duplicates
// merged); farther ones — planned arrivals, and line events only under very
// long delays — into a min-heap. Every router starts busy, so cycle 0 steps
// them all: the first injection pass draws live and then plans from cycle 1.
// Arrivals rebuild the list from the busy mask, the current wheel row and
// the due heap events, and transmission refreshes the busy bits. A cycle
// is idle when no router is busy and no wheel slot or far-heap event is
// due at it; one helper (next_event) finds the first cycle that is not.
// run() fast-forwards cycle_ to it. step() still advances exactly one
// cycle, so step-level instrumentation sees every cycle, but on an idle
// cycle it runs no phase and does not count the cycle in cycles_stepped:
// stepping cycle by cycle and run()'s jumps step the same cycles.
//
// Stepping a quiet router is always a no-op, so spurious wakes are safe;
// only a *missed* wake could change results — which is why every remote
// push above doubles as a wake-event source. The pinned stepping-stress
// suite (examples/suites/golden_stepping.json) holds the outputs a
// visit-every-router scan produced on the cases that stress this
// bookkeeping hardest.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/injector.hpp"
#include "sim/router.hpp"
#include "sim/span.hpp"
#include "sim/routing/routing.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace slimfly::sim {

class Network {
 public:
  /// All references must outlive the Network.
  Network(const Topology& topo, RoutingAlgorithm& routing,
          TrafficPattern& traffic, const SimConfig& config, double offered_load);

  /// Advances one cycle: all four phases, sharded when intra_threads > 1,
  /// or none when the cycle is idle (see "Stepping" above).
  void step();

  /// Runs warmup + measurement + drain and returns the summary.
  SimResult run();

  std::int64_t cycle() const { return cycle_; }
  /// Cycles whose phases actually executed; cycle() - cycles_stepped() is
  /// the idle count, whether run() jumped over those cycles or step()
  /// passed them one by one.
  std::int64_t cycles_stepped() const { return cycles_stepped_; }
  /// Aggregated measurement view (per-shard accumulators merged on demand).
  const Stats& stats() const;

  // ---- Introspection used by routing algorithms -------------------------
  /// Congestion estimate for an output port: staging occupancy plus
  /// credits consumed downstream.
  /* SF_HOT */ int queue_estimate(int router, int port) const {
    return routers_[static_cast<std::size_t>(router)].queue_estimate(port);
  }

  /// Resolved intra-point worker count (>= 1, capped by router count).
  /// This is the SHARD count — the unit of state ownership, fixed at
  /// wire() so results never depend on how many workers execute them.
  std::size_t intra_threads() const { return shards_; }

  /// Total flits currently buffered in the network (test/debug hook).
  std::int64_t flits_in_flight() const;
  /// Crossbar traversals granted so far (one per packet per router) — the
  /// hot path's unit of work (the benchmark's network.step_ns_per_flit_hop
  /// divides stepping time by it).
  std::int64_t flit_hops() const;

  /// Test hook: throws std::logic_error naming the router, port and cycle
  /// when a stepping summary disagrees with the state it summarizes — a
  /// readiness slot with its line's head, an occupancy or staging bit with
  /// its buffer or stage, an endpoint-ready bit with its endpoint, or a
  /// planned arrival with the earliest_arrival slot.
  /// Walks every router; call it between steps.
  void audit_summaries() const;

  /// Pre-reserves the per-shard latency pools for the full measurement
  /// window (active endpoints x measure_cycles samples) and backs every
  /// router-side ring at its full logical capacity (not the source queues,
  /// whose bound is the whole horizon). Opt-in hook for the
  /// allocation-guard test: it makes the measurement phase allocation-free
  /// at the cost of upper-bound reservations, which would be wasteful as a
  /// default at paper scale and low load.
  void reserve_measurement_stats();

 private:
  void wire();
  /// One worker's slice of a cycle: its contiguous shard sub-range through
  /// all four phases, with the global barrier between phases (a worker
  /// finishes phase k for ALL its shards before any worker enters k+1 —
  /// required because allocation writes remote lines that later phases
  /// read). With team_ == shards_ this is exactly the old one-shard body.
  void step_worker(std::size_t worker);
  /// Shard sub-range [first, second) owned by `worker` this cycle.
  std::pair<std::size_t, std::size_t> worker_shards(std::size_t worker) const {
    return {worker * shards_ / team_, (worker + 1) * shards_ / team_};
  }
  /// Applies the team provider's verdict (clamped to [1, shards_]); tears
  /// down the pool/barrier on change so step() recreates them at the new
  /// party count. Rare by design: the point scheduler only grows teams.
  void resize_team(int want);
  void sync();  ///< barrier between phases; no-op when sequential
  /// Calls fn(r) for every router on the shard's step list, ascending.
  template <class Fn>
  void for_each_stepped(std::size_t shard, Fn&& fn) {
    for (const auto& [first, last] : step_list_[shard]) {
      for (int r = first; r < last; ++r) fn(r);
    }
  }
  /// The four phases, each walking the shard's step list.
  void phase_arrivals(std::size_t shard);
  void phase_injection(std::size_t shard);
  void phase_allocation(std::size_t shard);
  void phase_transmission(std::size_t shard);
  /// Per-router phase bodies.
  void arrivals_router(std::size_t shard, int r);
  void transmission_router(std::size_t shard, int r);
  void injection_router(std::size_t shard, int r, bool in_measurement);
  /// Sets the ready bit of every endpoint of r whose planned arrival is
  /// this cycle, and recomputes r's earliest_arrival over the plans ahead.
  void mark_due_arrivals(int r);
  /* SF_HOT */ static void mark_ready(RouterState& router, int j) {
    router.endpoint_ready[static_cast<std::size_t>(j) / 64] |=
        std::uint64_t{1} << (j % 64);
  }
  /// Index of input `ip`'s VC `vc` in RouterState::occupied.
  /* SF_HOT */ std::size_t occupancy_bit(int ip, int vc) const {
    return (static_cast<std::size_t>(ip) << vc_shift_) +
           static_cast<std::size_t>(vc);
  }
  /* SF_HOT */ void set_occupied(RouterState& router, int ip, int vc) const {
    const std::size_t b = occupancy_bit(ip, vc);
    router.occupied[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  /* SF_HOT */ void clear_occupied(RouterState& router, int ip, int vc) const {
    const std::size_t b = occupancy_bit(ip, vc);
    router.occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
  /// One router's allocator (both internal-speedup iterations).
  void allocate_router(std::size_t shard, int r);
  void deliver(std::size_t shard, const Packet& pkt);
  bool all_measured_delivered() const;  ///< cheap per-cycle drain check
  std::int64_t delivered_in_window() const;

  // ---- workload layer ----------------------------------------------------
  /// Creates one packet from endpoint e to dst at cycle_ — the single
  /// generation body shared by both injection modes (Bernoulli and
  /// self-clocked); `dep_stall` feeds the windowed dependency-stall
  /// counters.
  void generate_packet(std::size_t shard, int e, int dst, bool in_measurement,
                       std::int64_t dep_stall);
  /// The one Bernoulli draw of a cycle whose rate multiplier m is positive
  /// (a zero multiplier draws nothing). Shared verbatim by
  /// injection_router's live draw and plan_arrival_from's batched draws.
  /* SF_HOT */ bool rate_hit(double m, Rng& rng) const {
    return rng.bernoulli(std::min(1.0, load_ * m));
  }
  /// Drains the per-shard completion outboxes into the traffic pattern
  /// (serially, between cycles) and wakes unlocked endpoints' routers.
  void apply_completions();
  /* SF_HOT */ std::size_t window_index(std::int64_t cycle, std::size_t count) const {
    const auto idx = static_cast<std::size_t>(cycle / stats_window_);
    return idx < count ? idx : count - 1;
  }

  // ---- active-set bookkeeping -------------------------------------------
  /// Sizes the busy masks, wake wheels, far heaps, outboxes and step lists
  /// for their worst case (once, at construction).
  void init_active();
  /// Ensures `router` is stepped at cycle `at` (a wake for the current
  /// cycle, from credit_delay = 0, lands on the next). Own-shard events go
  /// straight into the producing shard's wheel or far heap (single writer
  /// during phases); cross-shard events land in the producer's outbox,
  /// merged serially by step() after the parallel region.
  void schedule_wake(std::size_t shard, int router, std::int64_t at);
  /// Files an event into its owner's wheel (less than kWheelSlots cycles
  /// ahead) or far heap.
  void file_wake(std::size_t owner, int router, std::int64_t at);
  void drain_wake_outboxes();
  /// Takes the current wheel slot's row as the woken mask, adds every due
  /// far-heap event, and merges it with the busy mask into the shard's
  /// index-ordered step list.
  void build_step_list(std::size_t shard);
  /// Recomputes busy bits for the routers this shard just stepped.
  void update_busy(std::size_t shard);
  bool router_is_busy(int r) const;
  /// Recomputes endpoint e's ready bit from the endpoint itself: a
  /// non-empty source queue, an eligible self-clocked head, or an
  /// unplanned live draw (construction and audit_summaries only; stepping
  /// keeps the mask).
  bool endpoint_ready_of(int e) const;
  /// Batches the endpoint's Bernoulli draws for cycles >= `from` until the
  /// first hit, records it in EndpointState::next_arrival, and schedules
  /// the wake and r's earliest_arrival. Draws past the run's absolute end
  /// are capped (unobservable).
  void plan_arrival_from(std::size_t shard, int r, int e, std::int64_t from);
  /// The first cycle at or after cycle_ that is not idle: cycle_ itself
  /// when any router is busy, else the earliest pending wake — a far-heap
  /// top or the first occupied wheel slot — clamped to `bound`.
  std::int64_t next_event(std::int64_t bound) const;
  /// Jumps cycle_ to next_event(bound) (run() only).
  void fast_forward(std::int64_t bound);

  const Topology& topo_;
  RoutingAlgorithm& routing_;
  TrafficPattern& traffic_;
  SimConfig config_;
  double load_;

  // ---- SoA arenas (docs/ARCHITECTURE.md, "hot-path memory layout") ------
  // One capacity-exact allocation per state family for the whole fleet,
  // sized by a counting pass in wire(); every Span member of RouterState /
  // InputPort / OutputPort points into these. Never resized after wire().
  std::vector<InputPort> input_arena_;
  std::vector<OutputPort> output_arena_;
  std::vector<LazyRing<Packet>> vc_arena_;  ///< num_vcs per network input, 1 per injection input
  std::vector<int> credit_arena_;         ///< num_vcs per output port
  std::vector<std::int32_t> ready_arena_;  ///< incoming_ready + credit_ready slots
  std::vector<std::uint64_t> mask_arena_; ///< occupied + staging_nonempty words
  std::vector<RouteDecision> route_arena_;

  std::vector<RouterState> routers_;
  Injector injector_;
  std::int64_t cycle_ = 0;
  int active_endpoints_ = 0;
  int num_routers_ = 0;
  /// log2 of the occupancy bitmask's per-input VC stride (num_vcs rounded
  /// up to a power of two; see RouterState::occupied).
  int vc_shift_ = 0;
  /// Routing keeps the default next_port/link_vc: a head's decision is a
  /// pure function of its packet, computed inline from pkt.path with no
  /// virtual dispatch and cached per VC (see allocate_router).
  bool routing_follows_path_ = false;

  // ---- sharding ---------------------------------------------------------
  // Shard s owns routers [shard_ranges_[s].first, .second) and their
  // endpoints. All counters below are per-shard so phases never contend on
  // a shared accumulator; merging is order-independent (integer sums and
  // a latency pool consumed only via sort/sum/max), hence bit-identical
  // results for any shard count.
  struct ShardTotals {
    Stats stats;
    std::int64_t measured_generated = 0;
    std::int64_t delivered_in_window = 0;
    std::int64_t flit_hops = 0;  ///< crossbar grants in this shard
    /// Windowed rows (stats_window > 0 only), preallocated for the whole
    /// run; merged into SimResult::windows by elementwise sums.
    std::vector<WindowStats> windows;
  };
  std::size_t shards_ = 1;
  /// Workers executing the shards this cycle (team size). Shards are the
  /// ownership unit and never change after wire(); the team is pure
  /// execution and may change between cycles (the point scheduler).
  std::size_t team_ = 1;
  std::vector<std::pair<int, int>> shard_ranges_;
  std::vector<std::uint16_t> shard_of_router_;
  /// Routers each phase visits this cycle [shard] — the busy|woken ones —
  /// as ascending [first, last) runs of global ids. Runs rather than single
  /// ids keep a busy stretch a counted loop.
  std::vector<std::vector<std::pair<int, int>>> step_list_;
  std::vector<ShardTotals> shard_totals_;
  std::vector<std::exception_ptr> shard_errors_;
  std::unique_ptr<ThreadPool> pool_;   ///< team_-1 dedicated workers
  std::unique_ptr<Barrier> barrier_;   ///< team_ parties, one per phase gap
  mutable Stats merged_stats_;
  mutable bool stats_dirty_ = true;

  // Persistent per-shard allocation scratch, sized once at wire() for the
  // widest router in the shard's range (so the per-cycle allocation loop
  // reuses flat storage instead of rebuilding nested vectors):
  //   heads   — one head-of-line request per non-empty (input port, VC)
  //   sorted  — the same requests counting-sorted by output port (stable,
  //             so each output sees its candidates in (port, VC) order —
  //             identical to the old per-output bucket push_back order)
  //   offsets — per-output [begin, end) ranges into `sorted`
  //   granted — per-input-port grant flag for the 1-grant-per-input rule
  struct Request {
    int input_port;
    int vc;
    int output_port;
    int vc_link;
  };
  struct AllocScratch {
    std::vector<Request> heads;
    std::vector<Request> sorted;
    std::vector<int> offsets;
    std::vector<std::uint8_t> granted;
  };
  std::vector<AllocScratch> alloc_scratch_;  // [shard]

  // ---- active-set state (sized once by init_active; the steady-state loop
  // pushes within the reserved capacities, and a push past one throws) ----
  std::int64_t cycles_stepped_ = 0;
  /// Near wakes (fewer than kWheelSlots cycles ahead) go into a per-shard
  /// timing wheel (Varghese & Lauck, SOSP '87): slot `at % kWheelSlots` is
  /// a bitmask row over the shard's routers, so scheduling is one OR and a
  /// router woken twice for one cycle is stored once; `occupied` marks the
  /// nonempty slots. Stored events always lie in [cycle_, cycle_ +
  /// kWheelSlots), so a slot never mixes two cycles. alignas keeps each
  /// shard's `occupied` word off its neighbours' cache lines.
  static constexpr std::int64_t kWheelSlots = 64;
  struct alignas(64) WakeWheel {
    std::uint64_t occupied = 0;       ///< bit k: slot k's row is nonzero
    std::size_t words = 0;            ///< row width, ceil(owned routers / 64)
    std::vector<std::uint64_t> rows;  ///< kWheelSlots rows of `words` words
  };
  static_assert(kWheelSlots == 64, "WakeWheel::occupied is one 64-bit word");
  std::vector<WakeWheel> wheels_;
  /// Far wakes: per-shard min-heap (std::push_heap/pop_heap with
  /// std::greater) of packed (cycle << 16) | router events — planned
  /// arrivals, and line events only under delays of kWheelSlots cycles or
  /// more. Router ids fit 16 bits (the constructor enforces <= 65536
  /// routers), cycles fit 31 (ditto).
  std::vector<std::vector<std::int64_t>> wake_heaps_;
  /// Cross-shard wake events, indexed by the *producing* shard.
  std::vector<std::vector<std::int64_t>> wake_outbox_;
  /// Busy bitmasks over shard-LOCAL router indices (local indexing keeps
  /// shard-boundary routers out of shared words; the wheel rows use the
  /// same indexing).
  std::vector<std::vector<std::uint64_t>> busy_;

  // ---- workload-layer state (sized once at construction; the steady-state
  // loop stays allocation-free) -------------------------------------------
  bool traffic_modulated_ = false;    ///< cached traffic_.modulates_rate()
  bool traffic_self_clocked_ = false; ///< cached traffic_.self_clocked()
  std::int64_t stats_window_ = 0;     ///< cached config_.stats_window
  /// Per-shard delivered-message records, packed (src << 32) | seq; filled
  /// by deliver() during arrivals (shard-owned), drained serially by
  /// apply_completions(). Reserved to the shard's ejection-line capacity.
  std::vector<std::vector<std::int64_t>> completion_outbox_;
  /// Scratch for TrafficPattern::on_delivered, reserved to
  /// completion_fanout(). Touched only in the serial completion pass.
  std::vector<int> unlocked_scratch_;

  /// Head-of-line decision for `pkt` at router r: the output port
  /// (network or ejection) and the VC on the outgoing link. Inlines the
  /// default follow-the-path protocol when the routing declared it. A
  /// network port outside r's range, or an ejection away from dst_router,
  /// throws std::logic_error naming the router and port.
  RouteDecision head_decision(const RouterState& router, int r,
                              const Packet& pkt) const;
};

}  // namespace slimfly::sim
