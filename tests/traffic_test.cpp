#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sf/mms.hpp"
#include "sim/traffic.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"

namespace slimfly::sim {
namespace {

TEST(Uniform, NeverSelf) {
  auto t = make_uniform(16);
  Rng rng(1);
  for (int s = 0; s < 16; ++s) {
    for (int trial = 0; trial < 50; ++trial) {
      int d = t->destination(s, rng);
      EXPECT_NE(d, s);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, 16);
    }
  }
}

TEST(Uniform, CoversAllDestinations) {
  auto t = make_uniform(8);
  Rng rng(2);
  std::vector<int> hits(8, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    ++hits[static_cast<std::size_t>(t->destination(0, rng))];
  }
  EXPECT_EQ(hits[0], 0);
  for (int d = 1; d < 8; ++d) EXPECT_GT(hits[static_cast<std::size_t>(d)], 150);
}

TEST(Shuffle, RotatesAddressBits) {
  auto t = make_shuffle(16);  // 16 active, 4 bits
  Rng rng(1);
  EXPECT_EQ(t->destination(0b0001, rng), 0b0010);
  EXPECT_EQ(t->destination(0b1000, rng), 0b0001);
  EXPECT_EQ(t->destination(0b1010, rng), 0b0101);
  EXPECT_EQ(t->destination(0b0000, rng), -1);  // fixed point -> idle
}

TEST(Shuffle, DeactivatesBeyondPowerOfTwo) {
  auto t = make_shuffle(20);  // active = 16
  Rng rng(1);
  for (int s = 16; s < 20; ++s) {
    EXPECT_EQ(t->destination(s, rng), -1);
    EXPECT_FALSE(t->is_active(s));
  }
}

TEST(BitReversal, ReversesBits) {
  auto t = make_bit_reversal(16);
  Rng rng(1);
  EXPECT_EQ(t->destination(0b0001, rng), 0b1000);
  EXPECT_EQ(t->destination(0b0011, rng), 0b1100);
  EXPECT_EQ(t->destination(0b0110, rng), -1);  // palindrome -> self -> idle
}

TEST(BitComplement, Complements) {
  auto t = make_bit_complement(16);
  Rng rng(1);
  EXPECT_EQ(t->destination(0b0000, rng), 0b1111);
  EXPECT_EQ(t->destination(0b1010, rng), 0b0101);
  // Complement never fixes a point: all 16 active.
  for (int s = 0; s < 16; ++s) EXPECT_TRUE(t->is_active(s));
}

TEST(BitPermutations, AreInvolutionsOrPermutations) {
  // Destination maps must be injective on the active set.
  for (auto* factory : {&make_shuffle, &make_bit_reversal, &make_bit_complement}) {
    auto t = (*factory)(32);
    Rng rng(1);
    std::vector<int> seen(32, 0);
    for (int s = 0; s < 32; ++s) {
      int d = t->destination(s, rng);
      if (d >= 0) ++seen[static_cast<std::size_t>(d)];
    }
    for (int d = 0; d < 32; ++d) EXPECT_LE(seen[static_cast<std::size_t>(d)], 1);
  }
}

TEST(Shift, MatchesPaperDefinition) {
  auto t = make_shift(100);
  Rng rng(3);
  for (int s = 0; s < 100; ++s) {
    for (int trial = 0; trial < 20; ++trial) {
      int d = t->destination(s, rng);
      int base = s % 50;
      EXPECT_TRUE(d == base || d == base + 50) << "s=" << s << " d=" << d;
      EXPECT_NE(d, s);
    }
  }
}

TEST(WorstCaseSf, OverloadsSingleLinks) {
  sf::SlimFlyMMS topo(5);
  auto t = make_worst_case_sf(topo);
  Rng rng(4);
  // Pattern is a fixed endpoint map; count how many distinct source routers
  // target the most popular router: that is the link-overload factor.
  std::vector<int> router_hits(static_cast<std::size_t>(topo.num_routers()), 0);
  int active = 0;
  for (int e = 0; e < topo.num_endpoints(); ++e) {
    int d = t->destination(e, rng);
    if (d < 0) continue;
    ++active;
    EXPECT_NE(topo.endpoint_router(d), topo.endpoint_router(e));
    ++router_hits[static_cast<std::size_t>(topo.endpoint_router(d))];
  }
  EXPECT_GT(active, topo.num_endpoints() / 3);  // construction covers most routers
  int max_hits = *std::max_element(router_hits.begin(), router_hits.end());
  // Some router receives from >= 3 full routers' worth of endpoints.
  EXPECT_GE(max_hits, 3 * topo.concentration());
}

TEST(WorstCaseSf, SendersUseTwoHopPaths) {
  sf::SlimFlyMMS topo(5);
  auto t = make_worst_case_sf(topo);
  Rng rng(5);
  std::vector<int> dv;
  auto dist_ok = [&](int e, int d) {
    bfs_distances(topo.graph(), topo.endpoint_router(e), dv);
    int dd = dv[static_cast<std::size_t>(topo.endpoint_router(d))];
    return dd >= 1 && dd <= 2;
  };
  for (int e = 0; e < topo.num_endpoints(); e += 5) {
    int d = t->destination(e, rng);
    if (d >= 0) {
      EXPECT_TRUE(dist_ok(e, d));
    }
  }
}

TEST(WorstCaseSf, EndpointMapPinnedBeyondSlimFly) {
  // The Figure 9 construction runs on any graph. Pinned per topology: the
  // active-endpoint count and an FNV-1a hash of the endpoint -> destination
  // map (-1 for idle endpoints, 4 little-endian bytes each).
  struct Pin {
    const char* spec;
    int active;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"slimfly:q=7", 558, 0xc790efaa3240473aull},
      {"torus:dims=4x4x4", 48, 0x8517eb23bb39f163ull},
      {"hypercube:n=6", 48, 0x2d2bb5b6ec0b5ce3ull},
      {"dln:n=36,k=6,p=2", 64, 0x334f98c668a6aaa3ull},
  };
  for (const Pin& pin : pins) {
    auto net = topo::make(pin.spec);
    auto t = make_worst_case_sf(*net);
    Rng rng(1);
    int active = 0;
    std::uint64_t hash = 1469598103934665603ull;
    for (int e = 0; e < net->num_endpoints(); ++e) {
      if (t->is_active(e)) ++active;
      const auto d = static_cast<std::uint32_t>(t->destination(e, rng));
      for (int b = 0; b < 4; ++b) {
        hash ^= (d >> (8 * b)) & 0xffu;
        hash *= 1099511628211ull;
      }
    }
    EXPECT_EQ(active, pin.active) << pin.spec;
    EXPECT_EQ(hash, pin.hash) << pin.spec;
  }
}

TEST(WorstCaseDf, TargetsSuccessorGroup) {
  auto df = Dragonfly::balanced(2);
  auto t = make_worst_case_df(*df);
  Rng rng(6);
  for (int e = 0; e < df->num_endpoints(); ++e) {
    int src_group = df->group_of(df->endpoint_router(e));
    int d = t->destination(e, rng);
    EXPECT_EQ(df->group_of(df->endpoint_router(d)),
              (src_group + 1) % df->groups());
  }
}

TEST(WorstCaseFt, CrossesPods) {
  FatTree3 ft(3, FatTreeVariant::PaperSlim);
  auto t = make_worst_case_ft(ft);
  Rng rng(7);
  for (int e = 0; e < ft.num_endpoints(); ++e) {
    int d = t->destination(e, rng);
    EXPECT_NE(ft.pod(ft.endpoint_router(e)), ft.pod(ft.endpoint_router(d)));
  }
}

}  // namespace
}  // namespace slimfly::sim
