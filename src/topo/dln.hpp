#pragma once
// DLN random shortcut topology (Koibuchi et al., ISCA'12).
//
// A ring of Nr routers augmented with random shortcut links until every
// router reaches the target network radix k'. The paper denotes these
// DLN-2-y (2 ring links + y shortcuts per router). Construction uses a
// seeded RNG so results are reproducible; a configuration is retried with a
// fresh permutation when the random matching dead-ends (rare).

#include "topo/topology.hpp"

namespace slimfly {

class Dln : public Topology {
 public:
  /// Shared by the constructor default and the registry's seed= fallback,
  /// so "dln:..." without seed= and a direct Dln(...) build the same graph.
  static constexpr std::uint64_t kDefaultSeed = 1;

  /// Ring of `num_routers` with shortcuts up to degree `network_radix`.
  /// network_radix >= 3; concentration p per the paper's balancing rule.
  Dln(int num_routers, int network_radix, int concentration,
      std::uint64_t seed = kDefaultSeed);

  std::string name() const override;
  std::string symbol() const override { return "DLN"; }

 private:
  static Graph build(int n, int k_net, std::uint64_t seed);
  int k_net_;
};

}  // namespace slimfly
