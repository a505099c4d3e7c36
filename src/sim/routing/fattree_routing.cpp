#include "sim/routing/fattree_routing.hpp"

#include <limits>
#include <stdexcept>

#include "sim/network.hpp"

namespace slimfly::sim {

void FatTreeAncaRouting::route_at_injection(Network& net, Packet& pkt, Rng& rng) {
  (void)net;
  (void)rng;
  pkt.path.clear();  // per-hop routed
}

/* SF_HOT */ int FatTreeAncaRouting::adaptive_up(const Network& net, const Packet& pkt,
                                    int router, int level) const {
  // All upward neighbours reach every destination; pick the least-loaded
  // output port (ANCA's adaptivity). The scan starts at a packet-dependent
  // offset so that ties (ubiquitous at low load, where every queue estimate
  // is zero) spread traffic instead of herding onto the first port. The
  // candidate list lives on the stack: this runs in the allocation hot
  // loop, which must not allocate (docs/ARCHITECTURE.md).
  int ups[kMaxUpPorts];
  std::size_t n_ups = 0;
  const std::vector<int>& nbrs = topo_.graph().neighbors(router);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (topo_.level(nbrs[i]) == level + 1) {
      if (n_ups >= kMaxUpPorts) {
        throw std::logic_error("FT-ANCA: more than kMaxUpPorts upward ports");
      }
      ups[n_ups++] = static_cast<int>(i);
    }
  }
  if (n_ups == 0) throw std::logic_error("FT-ANCA: no upward neighbour");
  std::size_t offset = static_cast<std::size_t>(
      (pkt.id + pkt.src_endpoint + 31 * router) % static_cast<int>(n_ups));
  int best = -1;
  int best_queue = std::numeric_limits<int>::max();
  for (std::size_t k = 0; k < n_ups; ++k) {
    int port = ups[(k + offset) % n_ups];
    int q = net.queue_estimate(router, port);
    if (q < best_queue) {
      best_queue = q;
      best = port;
    }
  }
  return best;
}

/* SF_HOT */ int FatTreeAncaRouting::next_port(const Network& net, const Packet& pkt,
                                  int current_router) const {
  int dst = pkt.dst_router;  // always an edge switch
  if (current_router == dst) return -1;
  int level = topo_.level(current_router);
  int dst_pod = topo_.pod(dst);
  switch (level) {
    case 0:
      // Edge switch other than the destination: go up adaptively.
      return adaptive_up(net, pkt, current_router, 0);
    case 1:
      // Down to the destination edge when it is in this pod, else up.
      if (topo_.pod(current_router) == dst_pod) {
        return topo_.graph().neighbor_index(current_router, dst);
      }
      return adaptive_up(net, pkt, current_router, 1);
    case 2: {
      // Core (j, l) connects to aggregation j in every pod; descend into the
      // destination pod.
      int j = topo_.index_in_level(current_router) / topo_.p();
      int agg = topo_.pods() * topo_.p() + dst_pod * topo_.p() + j;
      return topo_.graph().neighbor_index(current_router, agg);
    }
    default:
      throw std::logic_error("FT-ANCA: bad level");
  }
}

}  // namespace slimfly::sim
