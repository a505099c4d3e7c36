#include "analysis/channelload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace slimfly::analysis {

double analytic_channel_load_d2(int num_routers, int k_net, int concentration) {
  double nr = num_routers;
  double p = concentration;
  return (2.0 * nr - k_net - 2.0) * p * p / static_cast<double>(k_net);
}

int balanced_concentration_d2(int num_routers, int k_net) {
  double nr = num_routers;
  double p = static_cast<double>(k_net) * nr / (2.0 * nr - k_net - 2.0);
  return static_cast<int>(std::lround(p));
}

ChannelLoadStats measured_channel_load(const Topology& topo) {
  const Graph& g = topo.graph();
  int n = g.num_vertices();
  // One slot per directed channel in CSR order: channel u->v sits at
  // offset[u] + neighbor_index(u, v).
  std::vector<std::size_t> offset(static_cast<std::size_t>(n) + 1, 0);
  for (int u = 0; u < n; ++u) {
    offset[static_cast<std::size_t>(u) + 1] =
        offset[static_cast<std::size_t>(u)] + static_cast<std::size_t>(g.degree(u));
  }
  std::vector<double> load(offset.back(), 0.0);

  std::vector<int> dist(static_cast<std::size_t>(n));
  std::vector<double> sigma(static_cast<std::size_t>(n));
  std::vector<double> acc(static_cast<std::size_t>(n));
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));

  double p = topo.concentration();
  for (int s = 0; s < topo.num_endpoint_routers(); ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(acc.begin(), acc.end(), 0.0);
    order.clear();

    // BFS with shortest-path counting (Brandes-style).
    dist[static_cast<std::size_t>(s)] = 0;
    sigma[static_cast<std::size_t>(s)] = 1.0;
    std::size_t head = 0;
    order.push_back(s);
    while (head < order.size()) {
      int v = order[head++];
      for (int w : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(w)] < 0) {
          dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
          order.push_back(w);
        }
        if (dist[static_cast<std::size_t>(w)] ==
            dist[static_cast<std::size_t>(v)] + 1) {
          sigma[static_cast<std::size_t>(w)] += sigma[static_cast<std::size_t>(v)];
        }
      }
    }

    // demand at t = p_s * p_t flow units for ordered endpoint pair count.
    for (int t : order) {
      if (t == s) continue;
      if (topo.endpoints_at(t) > 0) acc[static_cast<std::size_t>(t)] = p * p;
    }
    // Reverse-order accumulation: split incoming flow over predecessors
    // proportionally to their shortest-path counts.
    for (std::size_t i = order.size(); i-- > 1;) {
      int v = order[i];
      double flow = acc[static_cast<std::size_t>(v)];
      if (flow <= 0.0) continue;
      for (int u : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(u)] + 1 != dist[static_cast<std::size_t>(v)]) {
          continue;
        }
        double share = flow * sigma[static_cast<std::size_t>(u)] /
                       sigma[static_cast<std::size_t>(v)];
        load[offset[static_cast<std::size_t>(u)] +
             static_cast<std::size_t>(g.neighbor_index(u, v))] += share;
        acc[static_cast<std::size_t>(u)] += share;
      }
    }
  }

  ChannelLoadStats stats;
  double total = 0.0;
  double maximum = 0.0;
  // Accumulate in fixed (u, then adjacency) order — the slot order — since
  // double summation is order-sensitive. Channels that carry no flow add
  // an exact +0.0.
  for (double l : load) {
    total += l;
    maximum = std::max(maximum, l);
  }
  // Average over all directed channels (2 per undirected link), including
  // channels that carry no flow.
  double channels = 2.0 * static_cast<double>(g.num_edges());
  stats.average = channels > 0 ? total / channels : 0.0;
  stats.maximum = maximum;
  return stats;
}

}  // namespace slimfly::analysis
