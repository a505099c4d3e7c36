#include "sim/routing/valiant.hpp"

namespace slimfly::sim {

/* SF_HOT */ void ValiantRouting::build_path(int src_router, int dst_router, Rng& rng,
                                InlinePath& path) const {
  int nr = topo_.num_routers();
  for (int attempt = 0; attempt < 64; ++attempt) {
    path.clear();
    if (src_router != dst_router) {
      // Random intermediate distinct from both ends (Section IV-B).
      int via = src_router;
      while (via == src_router || via == dst_router) via = rng.next_int(0, nr - 1);
      try {
        dist_.sample_minimal_path(topo_.graph(), src_router, via, rng, path);
        dist_.sample_minimal_path(topo_.graph(), via, dst_router, rng, path);
      } catch (const PathOverflowError&) {
        // Hop-limited variant: a walk that outgrows the inline path is a
        // fortiori over the limit — count it as a failed attempt so the
        // totality machinery below still runs. Plain Valiant propagates:
        // there a too-long walk means the topology/routing pair is
        // unsupported, and a named error beats silently resampling.
        if (!hop_limit_) throw;
        continue;
      }
    }
    if (!hop_limit_ || static_cast<int>(path.size()) <= *hop_limit_) return;
  }
  // Hop-limited variant: fall back to a minimal path when sampling keeps
  // exceeding the limit (rare; keeps the algorithm total).
  path.clear();
  dist_.sample_minimal_path(topo_.graph(), src_router, dst_router, rng, path);
}

/* SF_HOT */ void ValiantRouting::route_at_injection(Network& net, Packet& pkt, Rng& rng) {
  (void)net;
  build_path(topo_.endpoint_router(pkt.src_endpoint), pkt.dst_router, rng,
             pkt.path);
}

}  // namespace slimfly::sim
