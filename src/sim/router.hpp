#pragma once
// Input-queued router state: per-(port, VC) input buffers, per-output
// staging queues with credit counters, and the flit/credit delay lines of
// the attached channels. The allocation logic lives in Network (it needs
// global state for arrivals and credits).
//
// Every piece of state here has exactly one writer per step phase (see the
// phase/thread-safety contract in sim/network.hpp). Data placement is
// chosen so each phase's *polling* is local and only *real traffic* pays a
// remote touch:
//   * the flit line of a network link lives at the RECEIVING InputPort
//     (`incoming`): arrivals polls its own inputs instead of chasing a
//     pointer into the upstream router's outputs every cycle, and the
//     upstream allocation (the sole producer of that line, in a phase where
//     nobody reads it) does one remote write per granted flit — with its
//     final ready time, since the staging stage drains exactly one flit per
//     cycle (see OutputPort::staged);
//   * an OutputPort's credit_return line is filled by the one downstream
//     router its link feeds (allocation) and drained locally by the owner
//     (arrivals).
// That single-producer/single-consumer structure is what makes
// router-sharded stepping race-free without any locking.
//
// What a stepped router polls is summarized so that the poll costs per
// event, not per port: the head ready cycles of its per-port lines sit in
// two int32 arrays (incoming_ready, credit_ready — written by the line's
// producer, see sim/channel.hpp) and those of its two per-router lines in
// two int32 fields (ejection_ready, ep_credits_ready), so every line's
// head slot lives in its router; its non-empty input VCs sit in one bitmask,
// its non-empty staging stages in another, and its endpoints with work this
// cycle in a third (with the earliest planned arrival beside it).
// Network::audit_summaries() checks every summary against the state it
// summarizes.
//
// Layout (docs/ARCHITECTURE.md, "hot-path memory layout"): the variable-
// length families — input ports, output ports, per-VC buffers, per-VC
// credit counters, route cache, readiness arrays, bitmasks — are Spans
// into Network-owned SoA arenas sized capacity-exact at wire(), one
// allocation per family for the whole fleet instead of one std::vector per
// port. Every queue is a LazyRing (sim/ring.hpp) whose capacity is fixed
// at wire() — a VC buffer's is buffer_per_vc, so a push past it is a
// credit-protocol violation and throws — and whose slab grows from the
// heap at most once per doubling: steady-state stepping performs zero heap
// allocations, while RSS tracks occupancy instead of worst-case capacity.

#include <cstdint>
#include <vector>

#include "sim/channel.hpp"
#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "sim/ring.hpp"
#include "sim/span.hpp"

namespace slimfly::sim {

struct OutputPort {
  // Hot members first: the arrivals credit poll and the allocation grant
  // path touch credit_return / credits / consumed / staging every cycle;
  // wiring metadata trails behind.
  /// VCs credited back to this port (network ports only); its head slot
  /// is RouterState::credit_ready[port].
  TimedLine<int> credit_return;
  Span<int> credits;               ///< per-VC slots free downstream
  /// Credits consumed downstream across all VCs, maintained incrementally
  /// (+1 on every grant that spends a credit, -1 on every credit return) so
  /// UGAL's queue_estimate reads it in O(1) instead of scanning the VCs.
  int consumed = 0;
  int rr_pointer = 0;              ///< round-robin over input (port,vc)
  /// Occupancy of the staging stage (between crossbar and channel). For a
  /// NETWORK port this is the whole staging model: because the stage
  /// drains exactly one flit per cycle, a granted packet's departure cycle
  /// is cycle + staged, so the grant writes the packet straight into the
  /// downstream incoming line with its final ready time and staging never
  /// stores packets. Ejection ports keep a real ring (below) because the
  /// per-router ejection line needs time-ordered pushes across ports.
  int staged = 0;
  LazyRing<Packet> staging;        ///< ejection ports only (see `staged`)

  int dest_router = -1;  ///< -1 => ejection port to an endpoint
  /// Input port index at dest_router (16-bit: the constructor bounds the
  /// per-router port count far below 2^15).
  std::int16_t dest_port = -1;
};

struct InputPort {
  /// Per-VC buffers, each of capacity buffer_per_vc — a full num_vcs span
  /// for network inputs, a single-VC span for injection inputs (endpoint
  /// uplinks only ever enter on VC 0; paying num_vcs worst-case slabs per
  /// endpoint was pure capacity slack).
  Span<LazyRing<Packet>> vcs;
  /// Flits on (or staged for) the network link ending here. Filled by the
  /// upstream router's allocation phase (its sole producer) at grant time
  /// with the packet's final ready cycle, drained by this router's
  /// arrivals — placing the line at the receiver keeps the readiness poll
  /// local. Its head slot is RouterState::incoming_ready[port]. Unused
  /// (capacity 0) on injection ports.
  TimedLine<Packet> incoming;
  /// Upstream (router, output port) feeding this input, or (-1, -1) for
  /// injection ports.
  int src_router = -1;
  std::int16_t src_port = -1;
  /* SF_HOT */ int occupancy() const {
    int total = 0;
    for (const auto& b : vcs) total += static_cast<int>(b.size());
    return total;
  }
};

/// Cached head-of-line routing decision for one (input port, VC) buffer:
/// the output port and link VC its head packet requests — the port read
/// from the packet's route (pkt.path[pkt.hop]) or returned by the
/// routing's next_port(), or an ejection port at the end. port < 0 means
/// "not cached" — recompute from the packet. Kept in a flat per-router
/// array (not beside each VC ring) so the allocation gather reads one small
/// contiguous cache instead of touching every buffer every iteration.
struct RouteDecision {
  std::int16_t port = -1;
  std::int16_t vc_link = 0;
};

struct RouterState {
  Span<InputPort> inputs;    ///< [0,deg) network + [deg, deg+p) injection
  Span<OutputPort> outputs;  ///< [0,deg) network + [deg, deg+p) ejection
  /// Router degree in the graph. Network port i (input and output) links
  /// to neighbour i in sorted adjacency order, so a route's port for this
  /// router is Graph::neighbor_index(r, next) and must be below this.
  int network_ports = 0;

  /// Head ready cycle of each network input's incoming line and of each
  /// network output's credit_return line ([0, network_ports) each;
  /// kLineIdle when the line is empty): the lines' one copy of their head
  /// state. Arrivals scans them and touches a line only when it is due.
  Span<std::int32_t> incoming_ready;
  Span<std::int32_t> credit_ready;
  /// Head ready cycle of the ejection and ep_credits lines below, the same
  /// kind of slot for the two per-router lines.
  std::int32_t ejection_ready = kLineIdle;
  std::int32_t ep_credits_ready = kLineIdle;
  /// Bit (ip << vc_shift) + vc set <=> inputs[ip].vcs[vc] is non-empty,
  /// where 1 << vc_shift is num_vcs rounded up to a power of two (bounds
  /// SimConfig::num_vcs to 64). The allocation gather and the busy check
  /// read these few words instead of one word per input port.
  Span<std::uint64_t> occupied;
  /// route_cache[ip * num_vcs + vc]: cached decision of that buffer's head
  /// (see RouteDecision). Invalidated on pop; only written for routings
  /// with follows_packet_path().
  Span<RouteDecision> route_cache;

  /// staging_nonempty[op / 64] bit (op % 64) set <=> outputs[op].staged
  /// is nonzero: transmission walks set bits instead of touching every
  /// OutputPort every cycle. Set on grant (allocation), cleared when the
  /// staging stage drains (transmission) — both phases of the owning router.
  Span<std::uint64_t> staging_nonempty;
  /// endpoint_ready[j / 64] bit (j % 64) set <=> attached endpoint j has
  /// work in the next injection pass: a non-empty source queue, an
  /// unplanned live draw (cycle 0), a planned arrival coming due, or
  /// (self-clocked replay) an eligible head message. Injection walks only
  /// the set bits, in ascending order, and rewrites each one it visits;
  /// due arrivals are marked from `earliest_arrival`, and the serial
  /// completion pass sets the bit of every endpoint a delivery unlocks —
  /// the only other way eligibility changes. Padding bits stay clear.
  Span<std::uint64_t> endpoint_ready;
  /// A lower bound on the planned next_arrival of every attached endpoint
  /// (INT64_MAX when none is planned): injection scans the endpoints'
  /// plans only on a cycle at or past it.
  std::int64_t earliest_arrival = INT64_MAX;

  /// Flits in flight to this router's endpoints, aggregated across its
  /// ejection ports (transmission pushes in port order; arrivals drains
  /// everything mature — same per-cycle delivery set as per-port lines,
  /// with one poll per router instead of one per ejection port). Its head
  /// slot is ejection_ready.
  TimedLine<Packet> ejection;
  /// Uplink credits returning to this router's endpoints: events of
  /// endpoint-local index j, pushed by this router's own allocation when
  /// it drains an injection buffer, drained by its own arrivals. Replaces
  /// a per-endpoint delay line that had to be polled every cycle. Its head
  /// slot is ep_credits_ready.
  TimedLine<int> ep_credits;

  /// Congestion estimate for UGAL: staging occupancy plus credits consumed
  /// downstream (an upper bound on the downstream queue for this port).
  /* SF_HOT */ int queue_estimate(int port) const {
    const OutputPort& out = outputs[static_cast<std::size_t>(port)];
    return out.staged + out.consumed;
  }
};

/// Builds the router state array for a topology graph; wiring of
/// dest_router/dest_port/ejection ports (and the arena spans every Span
/// member points into) is done by Network.
std::vector<RouterState> make_routers(int num_routers);

}  // namespace slimfly::sim
