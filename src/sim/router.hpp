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
//     (`incoming`): arrivals polls its own contiguous inputs instead of
//     chasing a pointer into the upstream router's outputs every cycle,
//     and the upstream allocation (the sole producer of that line, in a
//     phase where nobody reads it) does one remote write per granted
//     flit — with its final ready time, since the staging stage drains
//     exactly one flit per cycle (see OutputPort::staged);
//   * an OutputPort's credit_return line is filled by the one downstream
//     router its link feeds (allocation) and drained locally by the owner
//     (arrivals).
// That single-producer/single-consumer structure is what makes
// router-sharded stepping race-free without any locking.
//
// Layout (docs/ARCHITECTURE.md, "hot-path memory layout"): the variable-
// length families — input ports, output ports, per-VC buffers, per-VC
// credit counters, route cache, occupancy bitmasks — are Spans into
// Network-owned SoA arenas sized capacity-exact at wire(), one allocation
// per family for the whole fleet instead of one std::vector per port.
// Queue capacities are fixed at wire() too, but their slabs are LazyRing-
// backed: steady-state stepping performs zero heap allocations, while RSS
// tracks occupancy instead of worst-case capacity.

#include <cstdint>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/channel.hpp"
#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "sim/ring.hpp"
#include "sim/span.hpp"

namespace slimfly::sim {

/// Credit and endpoint-credit event lines store their ready cycle in 32
/// bits — the Network constructor bounds the cycle horizon below 2^31, so
/// the narrow slot halves the dominant fleet-scale event-line footprint.
using CreditLine = DelayLine<int, std::int32_t>;

struct OutputPort {
  // Hot members first: the arrivals credit poll and the allocation grant
  // path touch credit_return / credits / consumed / staging every cycle;
  // wiring metadata trails behind.
  CreditLine credit_return;        ///< VCs credited back to this port
  Span<int> credits;               ///< per-VC slots free downstream
  /// Credits consumed downstream across all VCs, maintained incrementally
  /// (+1 on every grant that spends a credit, -1 on every credit return) so
  /// UGAL's queue_estimate is O(1) instead of a per-call VC scan.
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

  int consumed_credits() const { return consumed; }
};

struct InputPort {
  /// Per-VC buffers — a full num_vcs span for network inputs, a single-VC
  /// span for injection inputs (endpoint uplinks only ever enter on VC 0;
  /// paying num_vcs worst-case slabs per endpoint was pure capacity
  /// slack).
  Span<VcBuffer> vcs;
  /// Flits on (or staged for) the network link ending here. Filled by the
  /// upstream router's allocation phase (its sole producer) at grant time
  /// with the packet's final ready cycle, drained by this router's
  /// arrivals — placing the line at the receiver makes the every-cycle
  /// readiness poll a local, contiguous access. Unused (capacity 0) on
  /// injection ports.
  DelayLine<Packet> incoming;
  /// Upstream (router, output port) feeding this input, or (-1, -1) for
  /// injection ports.
  int src_router = -1;
  std::int16_t src_port = -1;
  /* SF_HOT */ int occupancy() const {
    int total = 0;
    for (const auto& b : vcs) total += b.size();
    return total;
  }
};

/// Cached head-of-line routing decision for one (input port, VC) buffer:
/// the output port and link VC its head packet requests. port < 0 means
/// "not cached" — recompute from the packet. Kept in a flat per-router
/// array (not inside VcBuffer) so the allocation gather reads one small
/// contiguous cache instead of touching every buffer every iteration.
struct RouteDecision {
  std::int16_t port = -1;
  std::int16_t vc_link = 0;
};

struct RouterState {
  Span<InputPort> inputs;    ///< [0,deg) network + [deg, deg+p) injection
  Span<OutputPort> outputs;  ///< [0,deg) network + [deg, deg+p) ejection
  int network_ports = 0;     ///< router degree in the graph

  /// vc_occupied[ip] bit vc set <=> inputs[ip].vcs[vc] is non-empty
  /// (bounds SimConfig::num_vcs to 64). Lets the allocation gather visit
  /// only occupied buffers.
  Span<std::uint64_t> vc_occupied;
  /// route_cache[ip * num_vcs + vc]: cached decision of that buffer's head
  /// (see RouteDecision). Invalidated on pop; only written for routings
  /// with cacheable_decisions().
  Span<RouteDecision> route_cache;

  /// staging_nonempty[op / 64] bit (op % 64) set <=> outputs[op].staging
  /// is non-empty: transmission walks set bits instead of touching every
  /// OutputPort every cycle. Set on grant (allocation), cleared when the
  /// staging ring drains (transmission) — both phases of the owning router.
  Span<std::uint64_t> staging_nonempty;

  /// Flits in flight to this router's endpoints, aggregated across its
  /// ejection ports (transmission pushes in port order; arrivals drains
  /// everything mature — same per-cycle delivery set as per-port lines,
  /// with one poll per router instead of one per ejection port).
  DelayLine<Packet> ejection;
  /// Uplink credits returning to this router's endpoints: events of
  /// endpoint-local index j, pushed by this router's own allocation when
  /// it drains an injection buffer, drained by its own arrivals. Replaces
  /// a per-endpoint delay line that had to be polled every cycle.
  CreditLine ep_credits;

  /// Congestion estimate for UGAL: staging occupancy plus credits consumed
  /// downstream (an upper bound on the downstream queue for this port).
  /* SF_HOT */ int queue_estimate(int port) const {
    const OutputPort& out = outputs[static_cast<std::size_t>(port)];
    return out.staged + out.consumed_credits();
  }
};

/// Builds the router state array for a topology graph; wiring of
/// dest_router/dest_port/ejection ports (and the arena spans every Span
/// member points into) is done by Network.
std::vector<RouterState> make_routers(int num_routers);

}  // namespace slimfly::sim
