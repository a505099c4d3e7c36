#include "sim/routing/minimal.hpp"

namespace slimfly::sim {

/* SF_HOT */ void MinimalRouting::route_at_injection(Network& net, Packet& pkt, Rng& rng) {
  (void)net;
  const int src = topo_.endpoint_router(pkt.src_endpoint);
  pkt.path.clear();
  dist_.sample_minimal_path(topo_.graph(), src, pkt.dst_router, rng, pkt.path);
}

}  // namespace slimfly::sim
