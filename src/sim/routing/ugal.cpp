#include "sim/routing/ugal.hpp"

#include <limits>

#include "sim/network.hpp"

namespace slimfly::sim {

UgalRouting::UgalRouting(const Topology& topo, const DistanceOracle& dist,
                         UgalMode mode, int candidates, CandidateSampler sampler)
    : topo_(topo),
      dist_(dist),
      mode_(mode),
      candidates_(candidates),
      valiant_(topo, dist),
      sampler_(std::move(sampler)) {}

/* SF_HOT */ double UgalRouting::path_cost(const Network& net, int src,
                                          const InlinePath& path) const {
  if (path.empty()) return 0.0;
  const double hops = static_cast<double>(path.size());
  if (mode_ == UgalMode::Local) {
    // Length of the local output queue toward the first hop, weighted by
    // path length (Section IV-C2).
    return hops * (1.0 + net.queue_estimate(src, path[0]));
  }
  // Global: sum of output queues along the path plus the hop count as a
  // zero-load tie-breaker (Section IV-C1), walking the ports forward from
  // the source router.
  const Graph& g = topo_.graph();
  double cost = hops;
  int router = src;
  for (std::size_t i = 0; i < path.size(); ++i) {
    cost += net.queue_estimate(router, path[i]);
    router = g.neighbors(router)[static_cast<std::size_t>(path[i])];
  }
  return cost;
}

/* SF_HOT */ void UgalRouting::route_at_injection(Network& net, Packet& pkt, Rng& rng) {
  const int src = topo_.endpoint_router(pkt.src_endpoint);
  const int dst = pkt.dst_router;
  // Minimal candidate. Both candidate buffers live on the stack (InlinePath
  // is inline storage), so candidate comparison allocates nothing.
  InlinePath best;
  dist_.sample_minimal_path(topo_.graph(), src, dst, rng, best);
  double best_cost = path_cost(net, src, best);

  InlinePath candidate;
  for (int c = 0; c < candidates_; ++c) {
    candidate.clear();
    if (sampler_) {
      sampler_(src, dst, rng, candidate);
    } else {
      valiant_.build_path(src, dst, rng, candidate);
    }
    double cost = path_cost(net, src, candidate);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  }
  pkt.path = best;
}

}  // namespace slimfly::sim
