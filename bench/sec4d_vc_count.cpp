// Section IV-D: virtual channels needed for deadlock freedom.
//  * Hop-indexed VCs: 2 for SF minimal, 4 for SF adaptive (analytic).
//  * DFSSSP-style channel-dependency layering for generic deployments:
//    few VCs for SF, notably more for sparse DLN random topologies.

#include "bench_common.hpp"

#include "sim/routing/dfsssp.hpp"
#include "topo/dln.hpp"
#include "topo/hypercube.hpp"

namespace slimfly::bench {
namespace {

void run() {
  Table table({"network", "routers", "scheme", "VCs"});
  auto row = [&](const std::string& name, int nr, const std::string& scheme,
                 const std::string& vcs) {
    table.add_row({name, Table::num(static_cast<std::int64_t>(nr)), scheme, vcs});
  };
  // dfsssp_vc_count reports 0 layers when it needs more than max_layers.
  constexpr int kMaxLayers = 32;
  auto layering = [&](const std::string& name, const Graph& g) {
    const int vcs = sim::dfsssp_vc_count(g, kMaxLayers).vcs_used;
    row(name, g.num_vertices(), "DFSSSP layering",
        vcs > 0 ? Table::num(vcs) : ">" + std::to_string(kMaxLayers));
  };

  // Analytic hop-index scheme (Gopal): #VCs = max hops.
  row("SF (any q)", 0, "hop-index, minimal (D=2)", "2");
  row("SF (any q)", 0, "hop-index, UGAL/VAL (<=4 hops)", "4");

  for (int q : {5, 7, 9, 11}) {
    sf::SlimFlyMMS topo(q);
    layering("SF q=" + std::to_string(q), topo.graph());
  }
  // DLN analogues of the paper's 338/1682-endpoint random networks.
  for (auto [nr, k] : std::vector<std::pair<int, int>>{
           {113, 5}, {338, 5}, {338, 8}, {561, 5}}) {
    Dln dln(nr, k, 3);
    layering("DLN Nr=" + std::to_string(nr) + " k'=" + std::to_string(k), dln.graph());
  }
  Hypercube hc(8);
  layering("HC n=8", hc.graph());

  print_table("sec4d", "Deadlock-freedom VC requirements (Section IV-D)", table);
}

}  // namespace
}  // namespace slimfly::bench

int main() {
  slimfly::bench::run();
  return 0;
}
