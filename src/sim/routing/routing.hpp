#pragma once
// Routing algorithm interface (paper Section IV) and the all-pairs
// distance table shared by every algorithm.
//
// Most algorithms are source-routed: the full route — one output port per
// hop — is chosen at injection (where UGAL's queue comparison happens) and
// the packet then follows it with VC = hop index, which guarantees
// deadlock freedom because VCs increase strictly along every path (Gopal's
// scheme, Section IV-D). Fat-tree ANCA overrides next_port() for per-hop
// adaptivity; its up/down structure is acyclic so the same VC discipline
// applies.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "topo/graph.hpp"
#include "util/rng.hpp"

namespace slimfly::sim {

class Network;

/// Hop-distance oracle: the query interface every routing algorithm
/// consumes. Implementations must return EXACT shortest-path hop counts —
/// the minimal-path walk relies on dist() dropping by exactly one per
/// step, and simulate() sizes the VC set from diameter(), so an off-by-one
/// here silently changes results. The dense DistanceTable below is the BFS
/// reference implementation; the per-family oracles
/// (sim/routing/oracle.hpp) answer the same queries from adjacency,
/// coordinates, or level rules without the O(N^2) table.
///
/// RNG contract: every sample_minimal_path is an instantiation of the one
/// walk, walk_minimal_path() below — one reservoir scan over the sorted
/// adjacency list per non-final hop, nothing drawn for the final hop. An
/// override supplies only the walk's two tests (is v adjacent; is this
/// neighbour one hop closer), so every oracle with exact distances draws
/// the same candidates in the same order as the dense table, which is
/// what keeps golden trajectories stable across OracleMode.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Exact shortest-path hop count between routers u and v.
  virtual int dist(int u, int v) const = 0;
  /// Exact graph diameter (max over all pairs of dist).
  virtual int diameter() const = 0;

  /// Appends a uniformly-sampled minimal path from u to v onto `out`, one
  /// output port per hop (the port of hop i is the next router's index in
  /// the current router's adjacency list). No-op when u == v. The default
  /// runs walk_minimal_path() over virtual dist().
  virtual void sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                   InlinePath& out) const;
};

/// The one minimal-path walk. From u it steps greedily toward v: at each
/// router x != v, `last_hop(x)` says whether v is adjacent to x (then the
/// walk ends with x's port toward v, drawing nothing); otherwise it
/// reservoir-samples one next hop uniformly among the neighbours w of x
/// (sorted adjacency order) for which `closer(w)` holds, i.e. that are one
/// hop closer to v than x, and records the drawn neighbour's adjacency
/// index as the hop's port. last_hop(x) runs once per router before any
/// closer() call there, so a hook pair may cache x's distance in shared
/// state for closer().
template <class LastHop, class Closer>
/* SF_HOT */ void walk_minimal_path(const Graph& g, int u, int v, Rng& rng,
                                    InlinePath& out, LastHop last_hop, Closer closer) {
  int current = u;
  while (current != v) {
    if (last_hop(current)) {
      const int port = g.neighbor_index(current, v);
      if (port < 0) throw std::logic_error("sample_minimal_path: last hop not adjacent");
      out.push_back(port);
      break;
    }
    const std::vector<int>& nbrs = g.neighbors(current);
    int chosen = -1;
    int seen = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (closer(nbrs[i])) {
        ++seen;
        if (rng.next_below(static_cast<std::uint32_t>(seen)) == 0) {
          chosen = static_cast<int>(i);
        }
      }
    }
    if (chosen < 0) throw std::logic_error("sample_minimal_path: no progress");
    out.push_back(chosen);
    current = nbrs[static_cast<std::size_t>(chosen)];
  }
}

/// All-pairs hop distances with minimal-path sampling — the dense BFS
/// reference oracle and the small-N fast path (row-cached sampling).
class DistanceTable : public DistanceOracle {
 public:
  explicit DistanceTable(const Graph& g);

  int dist(int u, int v) const override {
    return table_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(v)];
  }
  int diameter() const override { return diameter_; }

  void sample_minimal_path(const Graph& g, int u, int v, Rng& rng,
                           InlinePath& out) const override;

 private:
  int n_;
  int diameter_ = 0;
  std::vector<std::uint8_t> table_;
};

/// Follow-the-path, the one copy: the port of the packet's current hop, or
/// -1 once it has taken every hop of its path (it is at dst_router, eject).
/* SF_HOT */ inline int follow_path(const Packet& pkt) {
  const std::size_t hop = static_cast<std::size_t>(pkt.hop);
  return hop < pkt.path.size() ? pkt.path[hop] : -1;
}

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  virtual std::string name() const = 0;
  /// Largest number of links any produced path can traverse (defines the
  /// number of VCs needed for deadlock freedom).
  virtual int max_hops() const = 0;

  /// Called once when the packet enters its source router; source-routed
  /// algorithms fill pkt.path here with one output port per hop, starting
  /// at the source router (Topology::endpoint_router(pkt.src_endpoint)).
  virtual void route_at_injection(Network& net, Packet& pkt, Rng& rng) = 0;

  /// Output port of `current_router` for the packet's next hop (a network
  /// port, i.e. an adjacency index), or -1 to eject. The default follows
  /// pkt.path.
  virtual int next_port(const Network& net, const Packet& pkt,
                        int current_router) const {
    (void)net;
    (void)current_router;
    return follow_path(pkt);
  }

  /// True when this algorithm keeps the DEFAULT next_port (follow
  /// pkt.path) and DEFAULT link_vc (VC = hop index). The head-of-line
  /// decision is then a pure function of the packet, so the allocator
  /// computes it inline, with no virtual calls, and caches it per input VC
  /// until the packet is popped instead of re-deriving it every cycle the
  /// packet waits. Defaults to FALSE, the always-correct choice: a
  /// subclass overriding next_port()/link_vc() is never silently
  /// bypassed, and per-hop adaptive decisions that read live queue state,
  /// like FT-ANCA's, legitimately change while a packet waits, so caching
  /// them would change results. Source-routed algorithms opt in (see
  /// PathFollowingRouting below).
  virtual bool follows_packet_path() const { return false; }

  /// Virtual channel for the link the packet is about to take. The default
  /// (VC = hop index, Gopal's scheme) is deadlock-free on any topology
  /// because VCs strictly increase along a path. Algorithms whose physical
  /// routes are acyclic (fat-tree up/down) may spread packets over all
  /// max_hops() VCs instead, avoiding single-VC head-of-line blocking.
  virtual int link_vc(const Packet& pkt) const { return pkt.hop; }
};

/// Base for source-routed algorithms that keep the default
/// next_port/link_vc (follow pkt.path, VC = hop index): opts into the
/// allocator's inline, devirtualized path following and its head-of-line
/// decision cache. Derive from RoutingAlgorithm directly when overriding
/// either virtual — the conservative default there keeps a forgotten flag
/// from silently bypassing your logic.
class PathFollowingRouting : public RoutingAlgorithm {
 public:
  bool follows_packet_path() const override { return true; }
};

}  // namespace slimfly::sim
