#pragma once
// Endpoint-side state: the unbounded source queue (so offered load is
// well-defined even past saturation), the credit counter for the single
// uplink into the router's injection port, and the endpoint's private RNG
// stream. Generation draws (Bernoulli arrivals, traffic destinations,
// routing path sampling) come from `rng`, never from a shared generator,
// so the injection phase is deterministic under any endpoint processing
// order — the keystone of router-parallel stepping (sim/network.hpp).
//
// Storage is SoA: one capacity-exact array per field instead of an array
// of endpoint structs. The injection phase walks a router's endpoints
// checking credits and (active mode) planned arrivals every cycle —
// with a million endpoints those polls now stream through dense int
// arrays instead of striding over struct padding, and each field costs
// exactly its own width. Endpoints are numbered contiguously per router
// (topology first_endpoint order), so each stepping shard owns contiguous
// slices of every array — the same ownership split as the router state.
//
// The source queue is a GrowRing, the one hot-path queue that may allocate:
// past saturation it must absorb unbounded offered load, so it doubles
// amortized; below saturation it settles at a small stable capacity and
// the steady-state loop never allocates.

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
  GrowRing<Packet>& source_queue;
  int& credits;                    ///< slots free in the injection buffer
  Rng& rng;                        ///< private stream, seeded from (seed, id)
  std::int64_t& next_seq;          ///< per-endpoint packet sequence number
  /// Active stepping mode only: the planned cycle of the next Bernoulli
  /// arrival while the source queue is empty (kUnplanned = not planned —
  /// the first injection pass at cycle 0 and backlog mode draw live per
  /// cycle; INT64_MAX = never, for load 0). The full scan ignores it, so
  /// the field is pure scheduling state and never observable in results.
  std::int64_t& next_arrival;
  // (Returning uplink credits ride the owning router's ep_credits event
  // line — see sim/router.hpp — so idle endpoints are never polled.)
};

class Injector {
 public:
  /// Seeds every endpoint's RNG stream deterministically from `seed` and
  /// the endpoint id — independent of thread schedule by construction.
  void init(int num_endpoints, int initial_credits, std::uint64_t seed);

  /* SF_HOT */ EndpointRef endpoint(int e) {
    const auto i = static_cast<std::size_t>(e);
    return EndpointRef{source_queue_[i], credits_[i], rng_[i], next_seq_[i],
                       next_arrival_[i]};
  }
  /* SF_HOT */ GrowRing<Packet>& source_queue(int e) {
    return source_queue_[static_cast<std::size_t>(e)];
  }
  /* SF_HOT */ const GrowRing<Packet>& source_queue(int e) const {
    return source_queue_[static_cast<std::size_t>(e)];
  }
  /* SF_HOT */ int& credits(int e) {
    return credits_[static_cast<std::size_t>(e)];
  }
  /* SF_HOT */ Rng& rng(int e) { return rng_[static_cast<std::size_t>(e)]; }
  /* SF_HOT */ std::int64_t& next_arrival(int e) {
    return next_arrival_[static_cast<std::size_t>(e)];
  }
  int num_endpoints() const { return static_cast<int>(credits_.size()); }

  /// Total packets waiting in source queues (saturation indicator).
  std::int64_t backlog() const;

 private:
  std::vector<GrowRing<Packet>> source_queue_;
  std::vector<int> credits_;
  std::vector<Rng> rng_;
  std::vector<std::int64_t> next_seq_;
  std::vector<std::int64_t> next_arrival_;
};

}  // namespace slimfly::sim
