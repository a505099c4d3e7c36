#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "sf/mms.hpp"
#include "sim/simulation.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"

namespace slimfly {
namespace {

sim::SimConfig tiny_config() {
  sim::SimConfig cfg;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 100;
  cfg.drain_cycles = 2000;
  cfg.seed = 7;
  return cfg;
}

exp::ExperimentSpec tiny_spec() {
  exp::ExperimentSpec spec;
  spec.name = "tiny";
  spec.loads = {0.1, 0.3};
  spec.config = tiny_config();
  spec.series = {{"slimfly:q=5", "MIN", "uniform", "SF-MIN"},
                 {"slimfly:q=5", "VAL", "uniform", "SF-VAL"},
                 {"fattree:k=4", "FT-ANCA", "uniform", "FT"}};
  return spec;
}

void expect_identical(const std::vector<exp::RunResult>& a,
                      const std::vector<exp::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].series_index, b[i].series_index);
    EXPECT_EQ(a[i].load, b[i].load);
    EXPECT_EQ(a[i].seed, b[i].seed);
    // Bit-identical simulation, not approximately equal: every point owns
    // its Network/Rng/traffic, so the thread schedule must not matter.
    EXPECT_EQ(a[i].result.avg_latency, b[i].result.avg_latency);
    EXPECT_EQ(a[i].result.avg_network_latency, b[i].result.avg_network_latency);
    EXPECT_EQ(a[i].result.p99_latency, b[i].result.p99_latency);
    EXPECT_EQ(a[i].result.accepted_load, b[i].result.accepted_load);
    EXPECT_EQ(a[i].result.delivered, b[i].result.delivered);
    EXPECT_EQ(a[i].result.saturated, b[i].result.saturated);
  }
}

TEST(ExperimentEngine, ParallelMatchesSequentialBitIdentical) {
  auto spec = tiny_spec();
  exp::ExperimentEngine sequential(1);
  exp::ExperimentEngine parallel(4);
  auto seq = sequential.run(spec);
  auto par = parallel.run(spec);
  ASSERT_FALSE(seq.empty());
  expect_identical(seq, par);
}

TEST(ExperimentEngine, RepeatedRunsIdentical) {
  auto spec = tiny_spec();
  exp::ExperimentEngine engine(2);
  expect_identical(engine.run(spec), engine.run(spec));
}

TEST(ExperimentEngine, ResultsOrderedBySeriesThenLoad) {
  auto spec = tiny_spec();
  exp::ExperimentEngine engine(4);
  auto results = engine.run(spec);
  for (std::size_t i = 1; i < results.size(); ++i) {
    bool ordered = results[i - 1].series_index < results[i].series_index ||
                   (results[i - 1].series_index == results[i].series_index &&
                    results[i - 1].load < results[i].load);
    EXPECT_TRUE(ordered) << "result " << i << " out of order";
  }
}

TEST(ExperimentEngine, PerPointWallTimeRecorded) {
  auto spec = tiny_spec();
  exp::ExperimentEngine engine(2);
  for (const auto& r : engine.run(spec)) {
    EXPECT_GT(r.wall_seconds, 0.0);
  }
}

TEST(ExperimentEngine, IncompatibleSeriesThrows) {
  auto spec = tiny_spec();
  spec.series.push_back({"slimfly:q=5", "FT-ANCA", "uniform", "bad"});
  exp::ExperimentEngine engine(1);
  EXPECT_THROW(engine.run(spec), std::invalid_argument);
}

TEST(ExperimentEngine, PointFailingAtRunTimeThrowsAfterTheGrid) {
  // An allreduce series validates by name but learns that its ranks exceed
  // the topology's endpoints only when its points build their traffic.
  // Beside good series on a parallel engine, the failing points poison only
  // themselves, and run() returns by throwing the error, which names the
  // rank count. Two grids: a wide one (16 points over 4 workers) and a
  // narrow one (2 points over 4 workers, so teams grow from spares).
  const exp::SeriesSpec oversized{"slimfly:q=5", "MIN",
                                  "allreduce:ranks=1000", "A"};
  auto wide = tiny_spec();
  wide.loads = {0.05, 0.1, 0.2, 0.3};
  wide.series.insert(wide.series.begin() + 1, oversized);
  auto narrow = tiny_spec();
  narrow.loads = {0.1};
  narrow.series = {narrow.series.front(), oversized};
  for (const exp::ExperimentSpec& spec : {wide, narrow}) {
    exp::ExperimentEngine engine(4);
    try {
      engine.run(spec);
      FAIL() << "expected invalid_argument (" << spec.series.size()
             << " series)";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ranks=1000"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentEngine, MissingTraceFileFailsBeforeAnyPoint) {
  // The trace series comes second, so a run that opened the file only when
  // its points ran would finish the uniform series first.
  const std::string missing = "no/such/trace.json";
  auto spec = tiny_spec();
  spec.series = {spec.series.front(),
                 {"slimfly:q=5", "MIN", "trace:file=" + missing, "T"}};
  exp::ExperimentEngine engine(1);
  int points = 0;
  try {
    engine.run(spec, [&](const exp::PreparedSeries&, const exp::RunResult&) {
      ++points;
    });
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(points, 0);
}

TEST(ExperimentSpec, CrossFiltersIncompatibleCombos) {
  auto spec = exp::ExperimentSpec::cross(
      "x", {"slimfly:q=5", "dragonfly:p=2,a=4,h=2", "fattree:k=4"},
      sim::routing_names(), {"uniform", "worstcase", "worst-ft"}, {0.1},
      tiny_config());
  ASSERT_FALSE(spec.series.empty());
  for (const auto& s : spec.series) {
    const std::string family = topo::validate_spec(s.topology);
    const std::string need =
        sim::routing_requirement(sim::routing_kind_from_string(s.routing));
    EXPECT_TRUE(need.empty() || need == family)
        << s.routing << " on " << s.topology;
    const std::string tneed = sim::traffic_requirement(s.traffic);
    EXPECT_TRUE(tneed.empty() || tneed == family)
        << s.traffic << " on " << s.topology;
  }
  // DF-UGAL-L appears exactly once per Dragonfly traffic combo, never on
  // the other topologies.
  for (const auto& s : spec.series) {
    if (s.routing == "DF-UGAL-L") {
      EXPECT_EQ("dragonfly", topo::validate_spec(s.topology));
    }
    if (s.routing == "FT-ANCA") {
      EXPECT_EQ("fattree", topo::validate_spec(s.topology));
    }
  }
}

TEST(ExperimentSpec, PointSeedDeterministicAndSpread) {
  auto spec = tiny_spec();
  EXPECT_EQ(exp::point_seed(spec, 0, 0), exp::point_seed(spec, 0, 0));
  EXPECT_NE(exp::point_seed(spec, 0, 0), exp::point_seed(spec, 0, 1));
  EXPECT_NE(exp::point_seed(spec, 0, 0), exp::point_seed(spec, 1, 0));
  auto other = spec;
  other.config.seed = 8;
  EXPECT_NE(exp::point_seed(spec, 0, 0), exp::point_seed(other, 0, 0));
}

TEST(ExperimentEngine, ThreadsFromEnv) {
  setenv("SF_THREADS", "3", 1);
  EXPECT_EQ(exp::threads_from_env(), 3u);
  exp::ExperimentEngine engine;
  EXPECT_EQ(engine.threads(), 3u);
  setenv("SF_THREADS", "0", 1);
  EXPECT_EQ(exp::threads_from_env(), 0u);
  // Negatives, junk, and absurd counts all mean "auto", never a
  // wrapped-around or astronomical worker count.
  setenv("SF_THREADS", "-1", 1);
  EXPECT_EQ(exp::threads_from_env(), 0u);
  setenv("SF_THREADS", "lots", 1);
  EXPECT_EQ(exp::threads_from_env(), 0u);
  setenv("SF_THREADS", "99999", 1);
  EXPECT_EQ(exp::threads_from_env(), 0u);
  unsetenv("SF_THREADS");
  EXPECT_EQ(exp::threads_from_env(), 0u);
  exp::ExperimentEngine defaulted;
  EXPECT_GE(defaulted.threads(), 1u);
}

// ---- registry round-trips ---------------------------------------------------

TEST(TopologyRegistry, RoundTripEveryFamily) {
  auto examples = topo::example_specs();
  ASSERT_EQ(examples.size(), topo::registry_names().size());
  for (const auto& spec : examples) {
    const std::string family = topo::validate_spec(spec);
    EXPECT_TRUE(topo::is_registered(family)) << spec;
    auto topo = topo::make(spec);
    ASSERT_NE(topo, nullptr) << spec;
    EXPECT_EQ(topo::family_of(*topo), family) << spec;
    EXPECT_FALSE(topo->name().empty()) << spec;
    EXPECT_GT(topo->num_endpoints(), 0) << spec;
  }
}

TEST(TopologyRegistry, RejectsMalformedSpecs) {
  EXPECT_THROW(topo::make("nosuch:q=5"), std::invalid_argument);
  EXPECT_THROW(topo::make("slimfly"), std::invalid_argument);        // missing q
  EXPECT_THROW(topo::make("slimfly:q=x"), std::invalid_argument);    // not an int
  EXPECT_THROW(topo::make("slimfly:q=5,zz=1"), std::invalid_argument);
  EXPECT_THROW(topo::make("torus:dims=4x"), std::invalid_argument);
  EXPECT_THROW(topo::make(":q=5"), std::invalid_argument);
}

TEST(SpecGrammar, OneSpellingPerValue) {
  // exp::point_seed hashes the raw spec strings, so a setting with two
  // spellings would draw two stream sets. All three spec kinds read through
  // util/spec.hpp: integers are plain digits (no sign, whitespace, radix
  // prefix or leading zeros), decimals are spelled the way
  // exp::json::number prints them, and empty, duplicate and trailing-comma
  // parameters are rejected.
  enum Kind { kTopology, kRouting, kTraffic };
  struct Case {
    Kind kind;
    const char* spec;
    bool canonical;
  };
  const Case cases[] = {
      {kTopology, "hypercube:n=+6", false},
      {kTopology, "hypercube:n=-6", false},
      {kTopology, "torus:dims= 8x8", false},
      {kTopology, "torus:dims=8x 8", false},
      {kTopology, "slimfly:q= 5", false},
      {kTopology, "slimfly:q=5 ", false},
      {kTopology, "slimfly:q=0x5", false},
      {kTopology, "hypercube:n=06", false},
      {kTopology, "dln:n=36,k=6,p=2,seed=007", false},
      {kTopology, "hypercube:n=6,", false},
      {kTopology, "hypercube:n=6,n=6", false},
      {kTopology, "hypercube:", false},
      {kTopology, "slimfly:q=99999999999", false},  // beyond int, at parse
      {kRouting, "UGAL-L:c=08", false},
      {kRouting, "UGAL-L:c=2,c=8", false},
      {kRouting, "VAL:hoplimit=3,", false},
      {kRouting, "UGAL-G:c=+8", false},
      {kTraffic, "burst:on=040,off=100,mult=2", false},
      {kTraffic, "hotspot:frac=0.05,heat=8,seed=007", false},
      {kTraffic, "burst:on=40,off=100,mult=2.50", false},
      {kTraffic, "hotspot:frac=.05,heat=8", false},
      {kTraffic, "hotspot:frac=5e-2,heat=8", false},
      {kTraffic, "hotspot:frac=0.05,heat=8.0", false},
      {kTraffic, "burst:on=40,off=100,mult=2,mult=2", false},
      {kTraffic, "allreduce:ranks=16,", false},
      // number() takes the shorter of plain and exponent notation.
      {kTraffic, "burst:on=40,off=100,mult=1000000", false},
      {kTraffic, "burst:on=40,off=100,mult=100000", false},
      {kTraffic, "hotspot:frac=0.0001,heat=8", false},
      {kTraffic, "burst:on=40,off=100,mult=1e4", false},
      {kTopology, "augmented:q=5,extra=2,p=0", true},  // bare 0 is canonical
      {kTopology, "hypercube:n=6", true},
      {kTopology, "torus:dims=8x8", true},
      {kTopology, "dln:n=36,k=6,p=2,seed=7", true},
      {kRouting, "UGAL-L:c=8", true},
      {kRouting, "VAL:hoplimit=3", true},
      {kTraffic, "burst:on=40,off=100,mult=2.5", true},
      {kTraffic, "hotspot:frac=0.05,heat=8,seed=7", true},
      {kTraffic, "burst:on=40,off=100,mult=1e+06", true},
      {kTraffic, "burst:on=40,off=100,mult=1e+05", true},
      {kTraffic, "burst:on=40,off=100,mult=10000", true},
      {kTraffic, "hotspot:frac=1e-04,heat=8", true},
      {kTraffic, "hotspot:frac=0.001,heat=8", true},
      {kTraffic, "hotspot:frac=0.05,heat=8,base=burst:on=50;off=450;mult=10",
       true},
  };
  for (const Case& c : cases) {
    auto read = [&c] {
      switch (c.kind) {
        case kTopology: topo::validate_spec(c.spec); break;
        case kRouting: sim::parse_routing_spec(c.spec); break;
        case kTraffic: sim::validate_traffic_spec(c.spec); break;
      }
    };
    if (c.canonical) {
      EXPECT_NO_THROW(read()) << c.spec;
    } else {
      EXPECT_THROW(read(), std::invalid_argument) << c.spec;
    }
  }
}

TEST(TopologyRegistry, ExoticFamiliesValidateTheirSpecs) {
  // Missing required keys.
  EXPECT_THROW(topo::make("dln:n=36,k=6"), std::invalid_argument);   // no p
  EXPECT_THROW(topo::make("dln:k=6,p=2"), std::invalid_argument);    // no n
  EXPECT_THROW(topo::make("longhop:n=5"), std::invalid_argument);    // no extra
  EXPECT_THROW(topo::make("augmented:q=5"), std::invalid_argument);  // no extra
  // Zero/negative radix, degree, or concentration.
  EXPECT_THROW(topo::make("dln:n=36,k=0,p=2"), std::invalid_argument);
  EXPECT_THROW(topo::make("dln:n=36,k=-3,p=2"), std::invalid_argument);
  EXPECT_THROW(topo::make("dln:n=36,k=36,p=2"), std::invalid_argument);
  EXPECT_THROW(topo::make("dln:n=4,k=3,p=2"), std::invalid_argument);
  EXPECT_THROW(topo::make("dln:n=36,k=6,p=0"), std::invalid_argument);
  EXPECT_THROW(topo::make("longhop:n=0,extra=2"), std::invalid_argument);
  EXPECT_THROW(topo::make("longhop:n=21,extra=2"), std::invalid_argument);
  EXPECT_THROW(topo::make("longhop:n=5,extra=27"), std::invalid_argument);
  // Within the structural ceiling but beyond the balanced-weight candidate
  // pool: make() must throw a named error, never index past the pool.
  EXPECT_THROW(topo::make("longhop:n=6,extra=43"), std::invalid_argument);
  EXPECT_THROW(topo::make("longhop:n=5,extra=2,p=0"), std::invalid_argument);
  EXPECT_THROW(topo::make("augmented:q=5,extra=0"), std::invalid_argument);
  EXPECT_THROW(topo::make("augmented:q=6,extra=2"), std::invalid_argument);  // q not an MMS prime power
  // Unknown keys.
  EXPECT_THROW(topo::make("dln:n=36,k=6,p=2,zz=1"), std::invalid_argument);
  EXPECT_THROW(topo::make("longhop:n=5,extra=2,q=3"), std::invalid_argument);
  EXPECT_THROW(topo::make("augmented:q=5,extra=2,n=9"), std::invalid_argument);
  // Malformed seeds (signs and junk are not canonical digits).
  EXPECT_THROW(topo::make("dln:n=36,k=6,p=2,seed=-1"), std::invalid_argument);
  EXPECT_THROW(topo::make("longhop:n=5,extra=2,seed=1x"), std::invalid_argument);
  // The error names the offending spec so CLI users can self-serve.
  try {
    topo::make("dln:n=36,k=36,p=2");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dln:n=36,k=36,p=2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("k must be"), std::string::npos) << msg;
  }
  // Semantic errors escaping a constructor get the spec prefixed by make(),
  // so a failing cell in a wide suite is identifiable from the message.
  try {
    topo::make("augmented:q=6,extra=2");  // q=6 is not an MMS prime power
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("augmented:q=6,extra=2"), std::string::npos) << msg;
  }
  try {
    topo::make("dln:n=55,k=53,p=1");  // deterministic matching exhaustion
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dln:n=55,k=53,p=1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seed=1"), std::string::npos) << msg;
  }
}

TEST(TopologyRegistry, SeedIsPartOfSpecIdentity) {
  // A spec string fully identifies the instance: same seed, same graph —
  // and because exp::point_seed hashes the whole spec string, it also
  // identifies the traffic streams every run point draws.
  auto a1 = topo::make("dln:n=36,k=6,p=2,seed=5");
  auto a2 = topo::make("dln:n=36,k=6,p=2,seed=5");
  EXPECT_EQ(a1->graph().edges(), a2->graph().edges());
  auto b = topo::make("dln:n=36,k=6,p=2,seed=6");
  EXPECT_NE(a1->graph().edges(), b->graph().edges());
  // Default seeds are pinned and shared with the constructors'
  // kDefaultSeed, so omitting seed= matches both the explicit spelling and
  // a direct construction.
  auto d1 = topo::make("dln:n=36,k=6,p=2");
  auto d2 = topo::make("dln:n=36,k=6,p=2,seed=1");
  EXPECT_EQ(d1->graph().edges(), d2->graph().edges());
  EXPECT_EQ(topo::make("longhop:n=5,extra=2")->graph().edges(),
            topo::make("longhop:n=5,extra=2,seed=7")->graph().edges());
  EXPECT_EQ(topo::make("augmented:q=5,extra=2")->graph().edges(),
            topo::make("augmented:q=5,extra=2,seed=11")->graph().edges());
  auto l1 = topo::make("longhop:n=5,extra=2,seed=9");
  auto l2 = topo::make("longhop:n=5,extra=2,seed=9");
  EXPECT_EQ(l1->graph().edges(), l2->graph().edges());
  auto g1 = topo::make("augmented:q=5,extra=2,seed=3");
  auto g2 = topo::make("augmented:q=5,extra=2,seed=3");
  EXPECT_EQ(g1->graph().edges(), g2->graph().edges());
  auto g3 = topo::make("augmented:q=5,extra=2,seed=4");
  EXPECT_NE(g1->graph().edges(), g3->graph().edges());
}

TEST(TopologyRegistry, AugmentedTakesAnyBaseSpec) {
  // base=<spec> port-augments any registry topology; the nested spec
  // spells its ',' as ';' so the outer parameter list still splits cleanly.
  auto torus = topo::make("augmented:base=torus:dims=4x4,extra=2");
  EXPECT_EQ(topo::family_of(*torus), "augmented");
  EXPECT_EQ(torus->num_endpoints(), topo::make("torus:dims=4x4")->num_endpoints());
  auto with_conc = topo::make("augmented:base=torus:dims=4x4;c=2,extra=2");
  EXPECT_EQ(with_conc->num_endpoints(),
            topo::make("torus:dims=4x4,c=2")->num_endpoints());
  EXPECT_NO_THROW(topo::make("augmented:base=hypercube:n=5,extra=1"));
  // validate_spec recursively validates the translated base without
  // constructing, so structural errors surface on --emit-config paths too.
  EXPECT_NO_THROW(topo::validate_spec("augmented:base=torus:dims=4x4;c=2,extra=2"));
  EXPECT_THROW(topo::validate_spec("augmented:base=nosuch:q=1,extra=2"),
               std::invalid_argument);
  EXPECT_THROW(topo::validate_spec("augmented:base=torus:dims=4x,extra=2"),
               std::invalid_argument);
  // Exactly one base spelling: base= excludes the legacy q=/p= shorthand.
  EXPECT_THROW(topo::validate_spec("augmented:base=torus:dims=4x4,q=5,extra=2"),
               std::invalid_argument);
  EXPECT_THROW(topo::make("augmented:base=torus:dims=4x4,p=2,extra=2"),
               std::invalid_argument);
  EXPECT_THROW(topo::make("augmented:extra=2"), std::invalid_argument);
  // The legacy shorthand is sugar for an explicit Slim Fly base: same
  // default seed, same graph.
  EXPECT_EQ(topo::make("augmented:q=5,extra=2")->graph().edges(),
            topo::make("augmented:base=slimfly:q=5,extra=2")->graph().edges());
  // Seed identity extends to base= specs.
  EXPECT_EQ(topo::make("augmented:base=hypercube:n=5,extra=1")->graph().edges(),
            topo::make("augmented:base=hypercube:n=5,extra=1,seed=11")
                ->graph()
                .edges());
}

TEST(RoutingRegistry, GenericStackSupportsExoticFamilies) {
  // MIN/VAL/UGAL-L/UGAL-G only need Graph + DistanceTable, so every new
  // comparison family must pass routing_supported and actually build.
  for (const char* spec : {"dln:n=36,k=6,p=2", "longhop:n=5,extra=2",
                           "augmented:q=5,extra=2"}) {
    auto topo = topo::make(spec);
    for (sim::RoutingKind kind :
         {sim::RoutingKind::Minimal, sim::RoutingKind::Valiant,
          sim::RoutingKind::UgalL, sim::RoutingKind::UgalG}) {
      EXPECT_TRUE(sim::routing_supported(kind, *topo)) << spec;
      auto bundle = sim::make_routing(kind, *topo);
      ASSERT_NE(bundle.algorithm, nullptr) << spec;
      EXPECT_GE(bundle.algorithm->max_hops(), 1) << spec;
    }
    // Topology-restricted routings refuse with a self-serve message naming
    // the topology and its family, never an assert.
    EXPECT_FALSE(sim::routing_supported(sim::RoutingKind::DragonflyUgalL, *topo));
    EXPECT_FALSE(sim::routing_supported(sim::RoutingKind::FatTreeAnca, *topo));
    try {
      sim::make_routing(sim::RoutingKind::DragonflyUgalL, *topo);
      FAIL() << "expected invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("DF-UGAL-L"), std::string::npos) << msg;
      EXPECT_NE(msg.find(topo::family_of(*topo)), std::string::npos) << msg;
    }
  }
}

TEST(RoutingRegistry, RoundTripEveryName) {
  auto names = sim::routing_names();
  EXPECT_EQ(names.size(), 6u);
  for (const auto& name : names) {
    EXPECT_EQ(sim::to_string(sim::routing_kind_from_string(name)), name);
  }
  EXPECT_THROW(sim::routing_kind_from_string("NOPE"), std::invalid_argument);
}

TEST(RoutingRegistry, SupportMatchesRequirement) {
  sf::SlimFlyMMS sf(5);
  Dragonfly df(2, 4, 2, 9);
  FatTree3 ft(4);
  EXPECT_TRUE(sim::routing_supported(sim::RoutingKind::Minimal, sf));
  EXPECT_TRUE(sim::routing_supported(sim::RoutingKind::DragonflyUgalL, df));
  EXPECT_FALSE(sim::routing_supported(sim::RoutingKind::DragonflyUgalL, sf));
  EXPECT_TRUE(sim::routing_supported(sim::RoutingKind::FatTreeAnca, ft));
  EXPECT_FALSE(sim::routing_supported(sim::RoutingKind::FatTreeAnca, df));
  // A bare routing spec builds the named routing.
  auto bundle = sim::make_routing_spec("UGAL-G", sf);
  EXPECT_EQ(bundle.algorithm->name(), "UGAL-G");
}

TEST(RoutingRegistry, ErrorsNameTheOffendingSpec) {
  // CLI users must be able to self-serve from the message alone: it names
  // the string they typed and the valid alternatives, not just an enum.
  try {
    sim::routing_kind_from_string("UGAL");  // plausible typo
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"UGAL\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("UGAL-L"), std::string::npos) << msg;
    EXPECT_NE(msg.find("FT-ANCA"), std::string::npos) << msg;
  }
  // Routing on the wrong topology: the message names the topology it
  // actually got and its registry family.
  sf::SlimFlyMMS sf(5);
  try {
    sim::make_routing(sim::RoutingKind::FatTreeAnca, sf);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("FT-ANCA"), std::string::npos) << msg;
    EXPECT_NE(msg.find(sf.name()), std::string::npos) << msg;
    EXPECT_NE(msg.find("slimfly"), std::string::npos) << msg;
  }
}

TEST(TrafficRegistry, RoundTripEveryName) {
  sf::SlimFlyMMS sf(5);
  Dragonfly df(2, 4, 2, 9);
  FatTree3 ft(4);
  for (const auto& name : sim::traffic_names()) {
    const std::string need = sim::traffic_requirement(name);
    const Topology& topo = need == "dragonfly"
                               ? static_cast<const Topology&>(df)
                               : need == "fattree"
                                     ? static_cast<const Topology&>(ft)
                                     : static_cast<const Topology&>(sf);
    auto pattern = sim::make_traffic(name, topo);
    ASSERT_NE(pattern, nullptr) << name;
    // name() maps back into the registry ("worstcase" dispatches onto the
    // concrete worst-* entry; every other name round-trips exactly).
    auto again = sim::make_traffic(pattern->name(), topo);
    EXPECT_EQ(again->name(), pattern->name()) << name;
    if (name != "worstcase") {
      EXPECT_EQ(pattern->name(), name);
    }
  }
  EXPECT_THROW(sim::make_traffic("nosuch", sf), std::invalid_argument);
  EXPECT_THROW(sim::make_traffic("worst-df", sf), std::invalid_argument);
  EXPECT_THROW(sim::make_traffic("worst-ft", df), std::invalid_argument);
}

}  // namespace
}  // namespace slimfly
