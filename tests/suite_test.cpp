#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/json.hpp"
#include "exp/suite.hpp"
#include "sf/mms.hpp"
#include "sim/simulation.hpp"

namespace slimfly {
namespace {

std::string source_path(const std::string& rel) {
  return std::string(SLIMFLY_SOURCE_DIR) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Expects `fn` to throw an invalid_argument whose message contains every
/// needle — the named-error contract: a user can fix the input from the
/// message alone.
template <typename Fn>
void expect_throws_named(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message \"" << msg << "\" lacks \"" << needle << "\"";
    }
  }
}

/// expect_throws_named for parse_suite (or a later expansion step).
void expect_parse_error(const std::string& text,
                        const std::vector<std::string>& needles) {
  SCOPED_TRACE(text);
  expect_throws_named([&] { exp::suite_to_spec(exp::parse_suite(text)); },
                      needles);
}

// ---- checked-in suites ------------------------------------------------------

TEST(SuiteFiles, EveryCheckedInSuiteParsesAndExpands) {
  // Every file, so a new suite is covered the day it lands; expansion
  // validates spec strings only, so even scale_smoke's q=103 is cheap. The
  // benchmark's suites are read too: a grammar change that breaks one
  // fails here, not in the benchmark run.
  std::size_t checked = 0;
  for (const char* dir : {"examples/suites", "benchmark/suites"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(source_path(dir))) {
      if (entry.path().extension() != ".json") continue;
      const std::string path = entry.path().string();
      exp::Suite suite = exp::load_suite_file(path);
      for (const std::string& scale : suite.scale_names()) {
        exp::ExperimentSpec spec = exp::suite_to_spec(suite, scale);
        EXPECT_FALSE(spec.series.empty()) << path << " scale " << scale;
      }
      exp::ExperimentSpec spec = exp::suite_to_spec(suite);
      EXPECT_FALSE(spec.series.empty()) << path;
      EXPECT_FALSE(spec.loads.empty()) << path;
      ++checked;
    }
  }
  EXPECT_GE(checked, 16u);
}

TEST(SuiteFiles, Fig06aScalesExpandToExpectedPointCounts) {
  exp::Suite suite =
      exp::load_suite_file(source_path("examples/suites/fig06a.json"));
  exp::ExperimentSpec small = exp::suite_to_spec(suite, "small");
  exp::ExperimentSpec paper = exp::suite_to_spec(suite, "paper");
  // The Figure 6 grid: 6 series (SF x 4 routings, DF, FT) x 10 loads at
  // both scales — only the topologies and cycle windows change.
  EXPECT_EQ(small.series.size(), 6u);
  EXPECT_EQ(paper.series.size(), 6u);
  EXPECT_EQ(small.series.size() * small.loads.size(), 60u);
  EXPECT_EQ(paper.series.size() * paper.loads.size(), 60u);
  EXPECT_EQ(small.series[0].topology, "slimfly:q=7");
  EXPECT_EQ(paper.series[0].topology, "slimfly:q=19");
  EXPECT_EQ(small.config.warmup_cycles, 800);
  EXPECT_EQ(paper.config.warmup_cycles, 3000);
  EXPECT_EQ(paper.config.drain_cycles, 40000);
  // Default scale is small.
  EXPECT_EQ(exp::suite_to_spec(suite).series[0].topology, "slimfly:q=7");
}

TEST(SuiteFiles, AblationSuitesCarryParameterizedRoutings) {
  exp::Suite ugal =
      exp::load_suite_file(source_path("examples/suites/abl_ugal.json"));
  exp::ExperimentSpec small = exp::suite_to_spec(ugal, "small");
  exp::ExperimentSpec paper = exp::suite_to_spec(ugal, "paper");
  // 4 candidate counts x {local, global} x {uniform, worst-sf}.
  EXPECT_EQ(small.series.size(), 16u);
  EXPECT_EQ(paper.series.size(), 16u);
  EXPECT_EQ(small.series.size() * small.loads.size(), 80u);
  sim::RoutingSpec parsed = sim::parse_routing_spec(small.series[0].routing);
  EXPECT_EQ(parsed.ugal_candidates, 1);

  exp::Suite val =
      exp::load_suite_file(source_path("examples/suites/abl_valiant.json"));
  exp::ExperimentSpec vspec = exp::suite_to_spec(val);
  ASSERT_EQ(vspec.series.size(), 4u);
  EXPECT_EQ(vspec.series[2].routing, "VAL:hoplimit=3");
  EXPECT_EQ(*sim::parse_routing_spec("VAL:hoplimit=3").val_hop_limit, 3);
}

TEST(SuiteFiles, Fig08beOversubscribesTheBalancedConcentration) {
  // Figures 8b-8e: the balanced Slim Fly plus concentrations p+1 and p+3,
  // at both scales, each under all four SF routings x {uniform, worst-sf}.
  exp::Suite suite =
      exp::load_suite_file(source_path("examples/suites/fig08be.json"));
  for (const auto& [scale, q] : {std::pair<std::string, int>{"small", 7},
                                 std::pair<std::string, int>{"paper", 19}}) {
    exp::ExperimentSpec spec = exp::suite_to_spec(suite, scale);
    ASSERT_EQ(spec.series.size(), 24u) << scale;
    const int p = sf::SlimFlyMMS::balanced_concentration(q);
    for (std::size_t i = 0; i < spec.series.size(); ++i) {
      const int extra = std::array<int, 3>{0, 1, 3}[i / 8];
      EXPECT_EQ(spec.series[i].topology,
                "slimfly:q=" + std::to_string(q) +
                    ",p=" + std::to_string(p + extra))
          << scale << " series " << i;
    }
  }
}

TEST(SuiteFiles, Fig08aCarriesPerSeriesBufferOverrides) {
  exp::Suite suite =
      exp::load_suite_file(source_path("examples/suites/fig08a_buffers.json"));
  exp::ExperimentSpec spec = exp::suite_to_spec(suite);
  ASSERT_EQ(spec.series.size(), 6u);
  EXPECT_EQ(spec.series[0].config_overrides.at("buffer_per_port"), 8.0);
  EXPECT_EQ(spec.series[5].config_overrides.at("buffer_per_port"), 256.0);
  // Overrides feed the per-point seed: same axes, different buffers, so
  // the six series must not share streams.
  EXPECT_NE(exp::point_seed(spec, 0, 0), exp::point_seed(spec, 1, 0));
}

// ---- round-trip -------------------------------------------------------------

TEST(SuiteRoundTrip, SerializeParseReproducesSpec) {
  exp::ExperimentSpec spec;
  spec.name = "rt";
  spec.loads = {0.1, 0.25};
  spec.config.seed = 42;
  spec.config.warmup_cycles = 77;
  spec.config.buffer_per_port = 48;
  spec.truncate_at_saturation = false;
  spec.series = {{"slimfly:q=5", "UGAL-L:c=2", "uniform", "lab", {}},
                 {"slimfly:q=5", "VAL", "worst-sf", "", {{"num_vcs", 8.0}}}};

  exp::Suite suite = exp::suite_from_spec(spec, 3);
  const std::string text = exp::serialize_suite(suite);
  exp::Suite reparsed = exp::parse_suite(text);
  EXPECT_EQ(reparsed.threads, 3u);
  exp::ExperimentSpec back = exp::suite_to_spec(reparsed);

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.loads, spec.loads);
  EXPECT_EQ(back.truncate_at_saturation, spec.truncate_at_saturation);
  EXPECT_EQ(back.config.seed, spec.config.seed);
  EXPECT_EQ(back.config.warmup_cycles, spec.config.warmup_cycles);
  EXPECT_EQ(back.config.buffer_per_port, spec.config.buffer_per_port);
  EXPECT_EQ(back.config.num_vcs, spec.config.num_vcs);
  EXPECT_EQ(back.config.latency_cap, spec.config.latency_cap);
  ASSERT_EQ(back.series.size(), spec.series.size());
  for (std::size_t i = 0; i < spec.series.size(); ++i) {
    EXPECT_EQ(back.series[i].topology, spec.series[i].topology);
    EXPECT_EQ(back.series[i].routing, spec.series[i].routing);
    EXPECT_EQ(back.series[i].traffic, spec.series[i].traffic);
    EXPECT_EQ(back.series[i].label, spec.series[i].label);
    EXPECT_EQ(back.series[i].config_overrides,
              spec.series[i].config_overrides);
  }
  // Identical series + config => identical per-point seeds, hence
  // bit-identical runs without executing anything here.
  EXPECT_EQ(exp::point_seed(back, 1, 1), exp::point_seed(spec, 1, 1));
}

TEST(SuiteRoundTrip, SpecThatWouldNotLoadIsRefusedWithTheLoadersError) {
  // `sweep --emit-config` writes suite_from_spec's output; a spec the loader
  // would reject must fail here, with the loader's message, not be written.
  exp::ExperimentSpec spec;
  spec.name = "emit";
  spec.loads = {0.5};
  spec.series = {{"hypercube:n=06", "MIN", "uniform", "", {}}};
  expect_throws_named([&] { exp::suite_from_spec(spec); },
                      {"hypercube:n=06", "key \"n\" needs a canonical integer"});
  spec.series = {{"slimfly:q=5", "FT-ANCA", "uniform", "", {}}};
  expect_throws_named([&] { exp::suite_from_spec(spec); },
                      {"routing FT-ANCA cannot run on topology slimfly:q=5"});
  spec.series = {{"hypercube:n=6", "MIN", "uniform", "", {}}};
  for (const double bad : {std::nan(""), 0.0, 1.5,
                           std::numeric_limits<double>::infinity()}) {
    spec.loads = {bad, 0.5};
    expect_throws_named([&] { exp::suite_from_spec(spec); },
                        {"loads must be positive and at most 1"});
  }
  spec.loads = {0.5};
  EXPECT_NO_THROW(exp::suite_from_spec(spec));
}

// ---- negative / fuzz --------------------------------------------------------

TEST(SuiteParser, MalformedJsonNamesLineAndColumn) {
  expect_parse_error("{", {"line 1", "unexpected end of input"});
  expect_parse_error("", {"unexpected end of input"});
  expect_parse_error("[1, 2]", {"expected a suite object"});
  expect_parse_error("{\"suite\": }", {"col 11", "unexpected character"});
  expect_parse_error("{} trailing", {"trailing characters"});
  expect_parse_error("{\"suite\": \"x\", \"suite\": \"y\"}",
                     {"duplicate object key \"suite\""});
  expect_parse_error("{\"suite\": \"a\nb\"}", {"raw control character"});
  // "01" parses as "0" then chokes on the stray digit (no leading zeros).
  expect_parse_error("{\"suite\": 01}", {"col 12", "expected ',' or '}'"});
}

TEST(SuiteParser, UnknownNamesAreNamedErrorsNeverDefaults) {
  const char* base =
      "{\"suite\": \"x\", \"loads\": [0.1], \"series\": "
      "[{\"topology\": \"%T%\", \"routing\": \"%R%\", \"traffic\": \"%F%\"}]}";
  auto with = [&](const std::string& t, const std::string& r,
                  const std::string& f) {
    std::string text = base;
    text.replace(text.find("%T%"), 3, t);
    text.replace(text.find("%R%"), 3, r);
    text.replace(text.find("%F%"), 3, f);
    return text;
  };
  // Unknown registry names: the message carries the PR 2 registry errors.
  expect_parse_error(with("nosuch:q=5", "MIN", "uniform"), {"nosuch"});
  expect_parse_error(with("slimfly:q=5", "UGAL", "uniform"),
                     {"unknown routing \"UGAL\"", "UGAL-L", "FT-ANCA"});
  expect_parse_error(with("slimfly:q=5", "MIN", "unifrom"),
                     {"unknown traffic pattern \"unifrom\"", "SPEC_GRAMMAR"});
  // Bad routing parameters.
  expect_parse_error(with("slimfly:q=5", "UGAL-L:c=0", "uniform"),
                     {"UGAL-L:c=0", "1..64"});
  expect_parse_error(with("slimfly:q=5", "VAL:hoplimit=x", "uniform"),
                     {"hoplimit", "1..255"});
  expect_parse_error(with("slimfly:q=5", "MIN:c=4", "uniform"),
                     {"unknown parameter \"c\" for MIN"});
  // Incompatible explicit series are rejected, not silently skipped.
  expect_parse_error(with("slimfly:q=5", "FT-ANCA", "uniform"),
                     {"FT-ANCA", "slimfly:q=5"});
  expect_parse_error(with("slimfly:q=5", "MIN", "worst-df"),
                     {"worst-df", "slimfly:q=5"});
}

TEST(SuiteParser, StructuralErrorsAreNamed) {
  expect_parse_error("{\"suite\": \"x\", \"loads\": [0.1], \"zzz\": 1, "
                     "\"series\": [{\"topology\": \"slimfly:q=5\", "
                     "\"routing\": \"MIN\", \"traffic\": \"uniform\"}]}",
                     {"unknown key \"zzz\""});
  expect_parse_error("{\"suite\": \"x/y\", \"loads\": [0.1]}",
                     {"not a valid tag"});
  expect_parse_error("{\"suite\": \"x\", \"loads\": []}",
                     {"empty load list"});
  expect_parse_error("{\"suite\": \"x\", \"loads\": [-0.1]}",
                     {"must be positive"});
  expect_parse_error("{\"suite\": \"x\", \"loads\": [0.1]}",
                     {"\"series\", \"cross\", or both"});
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"config\": {\"zz\": 1}, "
      "\"series\": [{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\"}]}",
      {"unknown config key \"zz\"", "buffer_per_port"});
  // There is one stepping mode, so no suite key picks it: an "engine" key
  // (base or per series) is an unknown config key, named.
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"config\": "
      "{\"engine\": \"active\"}, \"series\": [{\"topology\": "
      "\"slimfly:q=5\", \"routing\": \"MIN\", \"traffic\": \"uniform\"}]}",
      {"unknown config key \"engine\"", "stats_window"});
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"series\": "
      "[{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\", \"config\": {\"engine\": \"cycle\"}}]}",
      {"unknown config key \"engine\""});
  // Likewise the distance oracle: the program picks it, so an "oracle" key
  // (base or per series) is an unknown config key, named.
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"config\": "
      "{\"oracle\": \"family\"}, \"series\": [{\"topology\": "
      "\"slimfly:q=5\", \"routing\": \"MIN\", \"traffic\": \"uniform\"}]}",
      {"unknown config key \"oracle\"", "stats_window"});
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"series\": "
      "[{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\", \"config\": {\"oracle\": \"table\"}}]}",
      {"unknown config key \"oracle\""});
  // The point scheduler is the engine's own, not a suite key.
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"scheduler\": \"static\", "
      "\"series\": [{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\"}]}",
      {"unknown key \"scheduler\""});
  // The engine picks the intra-point split: intra_threads survives only as
  // 0 (older suite files say "auto"); any other value is a named error, at
  // suite and scale level alike.
  const std::string series_block =
      "\"series\": [{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\"}]}";
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"config\": "
      "{\"intra_threads\": 2}, " + series_block,
      {"\"intra_threads\" can only be 0", "engine picks"});
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"scales\": {\"small\": "
      "{\"config\": {\"intra_threads\": 1}}}, " + series_block,
      {"scales.small.config", "\"intra_threads\" can only be 0"});
  const exp::Suite zero = exp::parse_suite(
      "{\"suite\": \"x\", \"loads\": [0.1], \"config\": "
      "{\"intra_threads\": 0}, " + series_block);
  EXPECT_EQ(exp::suite_to_spec(zero).config.intra_threads, 1);
  EXPECT_EQ(exp::serialize_suite(exp::suite_from_spec(exp::suite_to_spec(zero), 0))
                .find("intra_threads"),
            std::string::npos);
  // Per-series config blocks must not smuggle run-level keys.
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"series\": "
      "[{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\", \"config\": {\"seed\": 3}}]}",
      {"unknown config key \"seed\"", "experiment-level"});
  // Scale references must be declared.
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"series\": "
      "[{\"topology\": {\"big\": \"slimfly:q=5\"}, \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\"}]}",
      {"scale \"big\"", "not declared"});
  expect_parse_error(
      "{\"suite\": \"x\", \"scale\": \"paper\", \"loads\": [0.1], "
      "\"series\": [{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\"}]}",
      {"default scale \"paper\"", "not declared"});
  expect_parse_error(
      "{\"suite\": \"x\", \"loads\": [0.1], \"threads\": 9999, \"series\": "
      "[{\"topology\": \"slimfly:q=5\", \"routing\": \"MIN\", "
      "\"traffic\": \"uniform\"}]}",
      {"threads", "0..4096"});
  // Wrong value kinds name the path and both kinds.
  expect_parse_error("{\"suite\": 5, \"loads\": [0.1]}",
                     {"suite", "expected string, got number"});
  expect_parse_error("{\"suite\": \"x\", \"loads\": 0.1}",
                     {"loads", "expected array, got number"});
}

TEST(SuiteParser, UnknownScaleAtExpansionListsAvailable) {
  exp::Suite suite =
      exp::load_suite_file(source_path("examples/suites/fig06a.json"));
  try {
    exp::suite_to_spec(suite, "huge");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"huge\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("small"), std::string::npos) << msg;
    EXPECT_NE(msg.find("paper"), std::string::npos) << msg;
  }
}

TEST(SuiteParser, FuzzTruncationsAndMutationsNeverCrash) {
  const std::string valid =
      read_file(source_path("examples/suites/golden_mini.json"));
  ASSERT_FALSE(valid.empty());
  // Every prefix: either parses (only possible once the closing '}' is in;
  // shorter prefixes are cut documents) or throws invalid_argument;
  // anything else (crash, other exception type) fails the test harness.
  const std::size_t closing = valid.rfind('}');
  ASSERT_NE(closing, std::string::npos);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    try {
      exp::parse_suite(valid.substr(0, len));
      if (len <= closing) {
        ADD_FAILURE() << "truncated prefix of length " << len << " parsed";
      }
    } catch (const std::invalid_argument&) {
    }
  }
  // Single-character mutations: must yield success or invalid_argument.
  const std::string mutations = "{}[]\",:x0\x01";
  for (std::size_t i = 0; i < valid.size(); i += 7) {
    for (char m : mutations) {
      std::string text = valid;
      text[i] = m;
      try {
        exp::parse_suite(text);
      } catch (const std::invalid_argument&) {
      }
    }
  }
  // Deep nesting is bounded, not stack-exhausting.
  std::string deep(10000, '[');
  EXPECT_THROW(exp::json::parse(deep), std::invalid_argument);
  try {
    exp::json::parse(deep);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
}

TEST(RoutingSpecs, ParseAndConstructParameterized) {
  sim::RoutingSpec spec = sim::parse_routing_spec("UGAL-G:c=8");
  EXPECT_EQ(spec.kind, sim::RoutingKind::UgalG);
  EXPECT_EQ(spec.ugal_candidates, 8);
  EXPECT_FALSE(sim::parse_routing_spec("MIN").val_hop_limit.has_value());
  EXPECT_THROW(sim::parse_routing_spec("UGAL-L:c=65"), std::invalid_argument);
  EXPECT_THROW(sim::parse_routing_spec("UGAL-L:"), std::invalid_argument);
  EXPECT_THROW(sim::parse_routing_spec("VAL:hoplimit="),
               std::invalid_argument);
  EXPECT_THROW(sim::parse_routing_spec("NOPE:c=4"), std::invalid_argument);
}

}  // namespace
}  // namespace slimfly
