#pragma once
// Umbrella header: the full public API of the Slim Fly library.
//
//   #include "slimfly.hpp"
//
//   slimfly::sf::SlimFlyMMS sf(19);           // N = 10830, k' = 29, D = 2
//   auto routing = slimfly::sim::make_routing_spec("UGAL-L:c=4", sf);
//   auto traffic = slimfly::sim::make_uniform(sf.num_endpoints());
//   auto result  = slimfly::sim::simulate(sf, *routing.algorithm, *traffic,
//                                         {}, 0.5);
//
// Whole evaluations as data (all cores, deterministic):
//
//   slimfly::exp::ExperimentSpec spec = slimfly::exp::ExperimentSpec::cross(
//       "study", {"slimfly:q=19", "torus:dims=8x8x8"}, {"MIN", "UGAL-L"},
//       {"uniform", "stencil3d"}, {0.1, 0.5, 0.9}, {});
//   auto results = slimfly::exp::ExperimentEngine().run(spec);

#include "analysis/channelload.hpp"
#include "analysis/metrics.hpp"
#include "analysis/connectivity.hpp"
#include "analysis/moore.hpp"
#include "analysis/partition.hpp"
#include "analysis/resilience.hpp"
#include "cost/cables.hpp"
#include "cost/costmodel.hpp"
#include "cost/layout.hpp"
#include "cost/power.hpp"
#include "cost/routers.hpp"
#include "exp/experiment.hpp"
#include "gf/gf.hpp"
#include "sf/bdf.hpp"
#include "sf/delorme.hpp"
#include "sf/enumerate.hpp"
#include "sf/layout.hpp"
#include "sf/mms.hpp"
#include "sf/sfgrouped.hpp"
#include "sim/routing/dfsssp.hpp"
#include "sim/simulation.hpp"
#include "topo/dln.hpp"
#include "topo/augmented.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/flatbutterfly.hpp"
#include "topo/hypercube.hpp"
#include "topo/io.hpp"
#include "topo/longhop.hpp"
#include "topo/registry.hpp"
#include "topo/torus.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
