#pragma once
// Endpoint-side state: the source queue (it absorbs the backlog past
// saturation, so offered load stays well-defined there), the credit
// counter for the single uplink into the router's injection port, and the
// endpoint's private RNG stream. Generation draws (Bernoulli arrivals,
// traffic destinations, routing path sampling) come from `rng`, never from
// a shared generator, so the injection phase is deterministic under any
// endpoint processing order — the keystone of router-parallel stepping
// (sim/network.hpp). Allocation draws nothing (every shipped routing is
// deterministic there). Contract: a stream may only be drawn from by the
// shard owning its endpoint, and only during injection.
//
// Storage is SoA: one capacity-exact array per field instead of an array
// of endpoint structs. The injection phase walks a router's endpoints
// checking credits and planned arrivals every stepped cycle —
// with a million endpoints those polls now stream through dense int
// arrays instead of striding over struct padding, and each field costs
// exactly its own width. Endpoints are numbered contiguously per router
// (topology first_endpoint order), so each stepping shard owns contiguous
// slices of every array — the same ownership split as the router state.
//
// The source queue is a LazyRing like every other hot-path queue. Its
// logical capacity is the run horizon (warmup + measure + drain cycles):
// at most one packet enters it per stepped cycle, so that is a true
// occupancy bound even past saturation, where the backlog grows every
// cycle. Its slab doubles toward the bound as the backlog deepens; below
// saturation it settles at a small stable size and the steady-state loop
// never allocates.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/channel.hpp"
#include "sim/packet.hpp"
#include "sim/ring.hpp"
#include "util/rng.hpp"

namespace slimfly::sim {

/// Reference bundle over one endpoint's SoA columns — call sites keep the
/// `ep.credits` field syntax while the storage stays columnar.
struct EndpointRef {
  LazyRing<Packet>& source_queue;
  int& credits;                    ///< slots free in the injection buffer
  Rng& rng;                        ///< private stream, seeded from (seed, id)
  std::int64_t& next_seq;          ///< per-endpoint packet sequence number
  /// The planned cycle of the next Bernoulli arrival while the source
  /// queue is empty (kUnplanned = not planned — the first injection pass
  /// at cycle 0 and backlog mode draw live per cycle; INT64_MAX = never,
  /// for load 0). Pure scheduling state: planned draws are the live draws,
  /// batched, so it is never observable in results.
  std::int64_t& next_arrival;
  // (Returning uplink credits ride the owning router's ep_credits event
  // line — see sim/router.hpp — so idle endpoints are never polled.)
};

class Injector {
 public:
  /// Seeds every endpoint's RNG stream deterministically from `seed` and
  /// the endpoint id — independent of thread schedule by construction —
  /// and bounds every source queue at `queue_capacity` packets.
  void init(int num_endpoints, int initial_credits, std::uint64_t seed,
            std::size_t queue_capacity);

  /* SF_HOT */ EndpointRef endpoint(int e) {
    const auto i = static_cast<std::size_t>(e);
    return EndpointRef{source_queue_[i], credits_[i], rng_[i], next_seq_[i],
                       next_arrival_[i]};
  }
  /* SF_HOT */ const LazyRing<Packet>& source_queue(int e) const {
    return source_queue_[static_cast<std::size_t>(e)];
  }
  /* SF_HOT */ int& credits(int e) {
    return credits_[static_cast<std::size_t>(e)];
  }

 private:
  std::vector<LazyRing<Packet>> source_queue_;
  std::vector<int> credits_;
  std::vector<Rng> rng_;
  std::vector<std::int64_t> next_seq_;
  std::vector<std::int64_t> next_arrival_;
};

}  // namespace slimfly::sim
