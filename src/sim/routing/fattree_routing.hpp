#pragma once
// Adaptive Nearest Common Ancestor routing for fat trees (FT-ANCA, paper
// Section V; Gomez et al., IPDPS'07). Per-hop adaptive on the way up —
// every up-port reaches the destination, so the least-loaded one is chosen
// — and deterministic on the way down from the nearest common ancestor.
// The up/down order is acyclic, so hop-indexed VCs stay deadlock-free.

#include "sim/routing/routing.hpp"
#include "topo/fattree.hpp"

namespace slimfly::sim {

class FatTreeAncaRouting : public RoutingAlgorithm {
 public:
  explicit FatTreeAncaRouting(const FatTree3& topo) : topo_(topo) {}

  std::string name() const override { return "ANCA"; }
  int max_hops() const override { return FatTree3::kDiameter; }

  /// Per-hop adaptive: nothing to decide at injection.
  void route_at_injection(Network& net, Packet& pkt, Rng& rng) override;

  int next_port(const Network& net, const Packet& pkt,
                int current_router) const override;

  // follows_packet_path() stays at the base-class false: both next_port
  // and link_vc are overridden, and the upward decision reads live queue
  // estimates, so it must be re-derived every allocation iteration.

  /// Up/down routes are acyclic, so any per-packet VC is deadlock-free;
  /// hashing the packet id over all VCs avoids single-VC HOL blocking
  /// (with VC = hop index every fat-tree link would see exactly one VC).
  int link_vc(const Packet& pkt) const override {
    return static_cast<int>(pkt.id % FatTree3::kDiameter);
  }

 private:
  /// Upper bound on a switch's upward ports (k/2 for a k-port fat tree);
  /// bounds the stack-allocated candidate list in adaptive_up.
  static constexpr std::size_t kMaxUpPorts = 256;

  /// Least-loaded upward port of `router` (at `level`).
  int adaptive_up(const Network& net, const Packet& pkt, int router,
                  int level) const;

  const FatTree3& topo_;
};

}  // namespace slimfly::sim
