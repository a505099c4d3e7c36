#pragma once
// UGAL — Universal Globally-Adaptive Load-balanced routing (paper Section
// IV-C; Singh's thesis). At injection the algorithm compares the minimal
// path against `candidates` random Valiant paths:
//
//  * UGAL-L (local)  — cost = path hops * source-router output queue length
//    for the path's first link (only locally observable state),
//  * UGAL-G (global) — cost = sum of the output queue lengths along the
//    whole path (idealized global knowledge).
//
// The paper finds 4 Valiant candidates empirically best; that is the
// default. An optional intermediate sampler supports Dragonfly-style
// "Valiant to a random group" candidates (see dragonfly_routing.hpp).

#include <functional>

#include "sim/routing/valiant.hpp"

namespace slimfly::sim {

enum class UgalMode { Local, Global };

class UgalRouting : public PathFollowingRouting {
 public:
  /// `valiant_path(src, dst, rng, out)` draws one non-minimal candidate
  /// into `out` as ports from src; pass {} to use plain router-Valiant.
  using CandidateSampler =
      std::function<void(int, int, Rng&, InlinePath&)>;

  UgalRouting(const Topology& topo, const DistanceOracle& dist, UgalMode mode,
              int candidates = 4, CandidateSampler sampler = {});

  std::string name() const override {
    return mode_ == UgalMode::Local ? "UGAL-L" : "UGAL-G";
  }
  int max_hops() const override { return 2 * dist_.diameter(); }

  void route_at_injection(Network& net, Packet& pkt, Rng& rng) override;

 private:
  /// Cost of the port path `path` from router `src` (0 for an empty one).
  double path_cost(const Network& net, int src, const InlinePath& path) const;

  const Topology& topo_;
  const DistanceOracle& dist_;
  UgalMode mode_;
  int candidates_;
  ValiantRouting valiant_;
  CandidateSampler sampler_;
};

}  // namespace slimfly::sim
