#include "sf/mms.hpp"

#include <stdexcept>

#include "gf/gf.hpp"

namespace slimfly::sf {

SlimFlyMMS::Built SlimFlyMMS::build(int q) {
  if (!is_valid_mms_q(q)) {
    throw std::invalid_argument("SlimFlyMMS: q must be a prime power with q mod 4 != 2");
  }
  gf::Field field(q);
  GeneratorSets gens = make_generators(field);

  Graph graph(2 * q * q);
  auto id = [q](int s, int x, int y) { return s * q * q + x * q + y; };

  // Eq. (1): (0,x,y) ~ (0,x,y') iff y - y' in X. X is symmetric, so adding
  // y' = y - e for every e in X covers both directions.
  for (int x = 0; x < q; ++x) {
    for (int y = 0; y < q; ++y) {
      for (int e : gens.x) {
        int y2 = field.sub(y, e);
        if (y < y2) graph.add_edge(id(0, x, y), id(0, x, y2));
      }
      // Eq. (2): (1,m,c) ~ (1,m,c') iff c - c' in X'.
      for (int e : gens.xprime) {
        int c2 = field.sub(y, e);
        if (y < c2) graph.add_edge(id(1, x, y), id(1, x, c2));
      }
    }
  }
  // Eq. (3): (0,x,y) ~ (1,m,c) iff y = m*x + c.
  for (int m = 0; m < q; ++m) {
    for (int c = 0; c < q; ++c) {
      for (int x = 0; x < q; ++x) {
        int y = field.add(field.mul(m, x), c);
        graph.add_edge(id(0, x, y), id(1, m, c));
      }
    }
  }
  graph.finalize();
  return Built{std::move(graph), std::move(gens)};
}

int SlimFlyMMS::balanced_concentration(int q) {
  int k_net = (3 * q - delta_of_q(q)) / 2;
  return (k_net + 1) / 2;  // ceil(k'/2), Section II-B2
}

SlimFlyMMS::SlimFlyMMS(Built built, int q, int concentration)
    : Topology(std::move(built.graph),
               concentration == 0 ? balanced_concentration(q) : concentration,
               2 * q * q),
      q_(q),
      delta_(delta_of_q(q)),
      generators_(std::move(built.gens)) {}

SlimFlyMMS::SlimFlyMMS(int q, int concentration)
    : SlimFlyMMS(build(q), q, concentration) {}

std::string SlimFlyMMS::name() const {
  return "Slim Fly MMS (q=" + std::to_string(q_) +
         ", k'=" + std::to_string(k_net()) + ", p=" + std::to_string(concentration()) + ")";
}

}  // namespace slimfly::sf
