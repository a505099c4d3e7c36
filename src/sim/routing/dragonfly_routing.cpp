#include "sim/routing/dragonfly_routing.hpp"

namespace slimfly::sim {

UgalRouting::CandidateSampler dragonfly_group_sampler(const Dragonfly& topo,
                                                      const DistanceOracle& dist) {
  const Dragonfly* df = &topo;
  const DistanceOracle* dt = &dist;
  // The sampler runs once per injected packet under UGAL-L.
  return /* SF_HOT */ [df, dt](int src, int dst, Rng& rng, InlinePath& path) {
    path.clear();
    if (src == dst) return;
    int groups = df->groups();
    int src_group = df->group_of(src);
    int dst_group = df->group_of(dst);
    int via_group = src_group;
    if (groups > 2) {
      // Random intermediate group distinct from source and destination
      // groups (Kim et al., Section 4); falls back to router-Valiant when
      // only two groups exist.
      while (via_group == src_group || via_group == dst_group) {
        via_group = rng.next_int(0, groups - 1);
      }
    }
    int via = via_group * df->a() + rng.next_int(0, df->a() - 1);
    if (via != src) dt->sample_minimal_path(df->graph(), src, via, rng, path);
    if (via != dst) dt->sample_minimal_path(df->graph(), via, dst, rng, path);
  };
}

std::unique_ptr<UgalRouting> make_dragonfly_ugal_l(const Dragonfly& topo,
                                                   const DistanceOracle& dist,
                                                   int candidates) {
  return std::make_unique<UgalRouting>(topo, dist, UgalMode::Local, candidates,
                                       dragonfly_group_sampler(topo, dist));
}

}  // namespace slimfly::sim
