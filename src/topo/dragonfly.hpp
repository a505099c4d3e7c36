#pragma once
// Dragonfly (Kim, Dally, Scott, Abts, ISCA'08; Cray Cascade class).
//
// g groups of a routers; routers inside a group form a clique; each router
// has h global ports. For the canonical maximum size g = a*h + 1 every pair
// of groups is joined by exactly one global link (palmtree arrangement).
// Smaller g (used by the paper's Table IV case study) distributes the a*h
// global ports of each group evenly over the g-1 peer groups: `base` links
// to every peer plus one extra link along a circulant pattern, keeping every
// router at exactly h global links.
//
// The balanced configuration of the paper is a = 2p = 2h (Section III).

#include "topo/topology.hpp"

namespace slimfly {

class Dragonfly : public Topology {
 public:
  /// p endpoints/router, a routers/group, h global ports/router, g groups.
  /// Requires 2 <= g <= a*h + 1 and (a*h) % (g-1) produced links realizable
  /// (checked at construction).
  Dragonfly(int p, int a, int h, int g);

  /// Balanced Dragonfly a = 2p = 2h at maximum size g = a*h + 1.
  static std::unique_ptr<Dragonfly> balanced(int p);

  std::string name() const override;
  std::string symbol() const override { return "DF"; }

  int a() const { return a_; }
  int h() const { return h_; }
  int groups() const { return g_; }
  int group_of(int r) const { return r / a_; }

  static constexpr int kDiameter = 3;  // local-global-local

 private:
  static Graph build(int a, int h, int g);
  int a_, h_, g_;
};

}  // namespace slimfly
