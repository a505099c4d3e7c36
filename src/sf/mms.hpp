#pragma once
// Slim Fly over McKay–Miller–Širáň graphs (paper Section II-B) — the
// primary contribution of the paper.
//
// For a prime power q = 4w + delta (delta in {-1, 0, +1}):
//   routers  (s, x, y) in {0,1} x GF(q) x GF(q)      Nr = 2 q^2
//   (0,x,y) ~ (0,x,y')  iff  y - y' in X             (Eq. 1)
//   (1,m,c) ~ (1,m,c')  iff  c - c' in X'            (Eq. 2)
//   (0,x,y) ~ (1,m,c)   iff  y = m x + c             (Eq. 3)
//   network radix k' = (3q - delta)/2, diameter 2.
//
// Balanced concentration (full global bandwidth, Section II-B2) is
// p = ceil(k'/2); pass a different p for over/undersubscribed variants
// (Section V-E).

#include <memory>

#include "sf/generators.hpp"
#include "topo/topology.hpp"

namespace slimfly::sf {

class SlimFlyMMS : public Topology {
 public:
  /// concentration 0 selects the balanced p = ceil(k'/2).
  explicit SlimFlyMMS(int q, int concentration = 0);

  std::string name() const override;
  std::string symbol() const override { return "SF"; }

  int q() const { return q_; }
  int delta() const { return delta_; }
  /// Network radix k' = (3q - delta)/2.
  int k_net() const { return (3 * q_ - delta_) / 2; }
  /// Balanced concentration ceil(k'/2) for this q.
  static int balanced_concentration(int q);

  /// Router id for (subgraph, x, y); subgraph in {0, 1}.
  int router_id(int subgraph, int x, int y) const {
    return subgraph * q_ * q_ + x * q_ + y;
  }
  int subgraph_of(int r) const { return r / (q_ * q_); }
  int x_of(int r) const { return (r % (q_ * q_)) / q_; }
  int y_of(int r) const { return r % q_; }

  const GeneratorSets& generators() const { return generators_; }

  // Physical packaging (Section VI-A): rack x pairs subgroup (0,x,*) with
  // subgroup (1,x,*) — q racks of 2q routers, 2q cables between any two
  // racks.
  int num_racks() const override { return q_; }
  int rack_of_router(int r) const override { return x_of(r); }

 private:
  struct Built {
    Graph graph;
    GeneratorSets gens;
  };
  static Built build(int q);
  SlimFlyMMS(Built built, int q, int concentration);

  int q_;
  int delta_;
  GeneratorSets generators_;
};

}  // namespace slimfly::sf
