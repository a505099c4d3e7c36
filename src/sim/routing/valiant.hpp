#pragma once
// Valiant random routing (paper Section IV-B): route minimally to a random
// intermediate router, then minimally to the destination. Load-balances
// adversarial traffic at the cost of up to doubled path length. The
// optional hop limit implements the paper's "at most 3 hops" variant
// (which the paper found to increase latency by restricting path choice).

#include <optional>

#include "sim/routing/routing.hpp"
#include "topo/topology.hpp"

namespace slimfly::sim {

class ValiantRouting : public PathFollowingRouting {
 public:
  ValiantRouting(const Topology& topo, const DistanceOracle& dist,
                 std::optional<int> hop_limit = std::nullopt)
      : topo_(topo), dist_(dist), hop_limit_(hop_limit) {}

  std::string name() const override { return hop_limit_ ? "VAL-3" : "VAL"; }
  int max_hops() const override {
    return hop_limit_ ? *hop_limit_ : 2 * dist_.diameter();
  }

  void route_at_injection(Network& net, Packet& pkt, Rng& rng) override;

  /// Builds one Valiant path from src_router into `path`, one port per hop
  /// (used by UGAL to draw candidates).
  void build_path(int src_router, int dst_router, Rng& rng,
                  InlinePath& path) const;

 private:
  const Topology& topo_;
  const DistanceOracle& dist_;
  std::optional<int> hop_limit_;
};

}  // namespace slimfly::sim
