#pragma once
// Suite files — whole experiment suites as first-class, versioned JSON
// artifacts instead of command lines (ROADMAP follow-up; the regression
// firewall of docs/SPEC_GRAMMAR.md §"Suite files").
//
// A suite is an ExperimentSpec plus everything the CLI used to carry out of
// band: a tag, named scales (the old SF_BENCH_SCALE env knob folded into the
// file), per-scale topology grids and config windows, scheduling hints, and
// per-series SimConfig overrides. `sweep --config file.json` runs one;
// `sweep --emit-config` exports any CLI invocation back into one; the
// checked-in suites live under examples/suites/.
//
// Schema (full reference in docs/SPEC_GRAMMAR.md):
//
//   {
//     "suite": "fig06a",                      // required; BENCH_<suite>.json
//     "description": "...",                   // optional
//     "scale": "small",                       // default scale name
//     "scales": {                             // optional named scales
//       "small": {"config": {...}, "loads": [...]},
//       "paper": {"config": {...}}
//     },
//     "loads": [0.05, 0.1, ...],              // default load grid
//     "config": {"seed": 1, ...},             // SimConfig overrides
//     "truncate_at_saturation": true,
//     "threads": 0,                           // across-point hint; 0 = auto
//     "series": [
//       {"topology": "slimfly:q=7",           // plain string, or per scale:
//        // "topology": {"small": "slimfly:q=7", "paper": "slimfly:q=19"},
//        "routing": "UGAL-L:c=8", "traffic": "uniform",
//        "label": "SF", "config": {"buffer_per_port": 8}}
//     ],
//     "cross": {"topologies": [...], "routings": [...], "traffics": [...]}
//   }
//
// Parsing is strict: unknown keys, malformed values, unknown registry names
// and incompatible combinations all throw std::invalid_argument naming the
// offending path — never a crash, never a silent default.

#include <map>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace slimfly::exp {

/// One suite series. `topology` maps scale name -> topo::make spec; the
/// reserved key "" means "every scale" (a plain JSON string parses to it).
/// A series whose map lacks the chosen scale is skipped by suite_to_spec —
/// that is how a suite's grid can differ per scale.
struct SuiteSeries {
  std::map<std::string, std::string> topology;
  std::string routing;
  std::string traffic;
  std::string label;
  ConfigOverrides config;
};

/// Per-scale overlays: config overrides applied after the suite-level block,
/// and an optional replacement load grid.
struct SuiteScale {
  ConfigOverrides config;
  std::vector<double> loads;
};

struct Suite {
  std::string name;
  std::string description;
  std::string default_scale;  ///< "" = "small" when scales exist
  std::map<std::string, SuiteScale> scales;
  std::vector<double> loads;
  ConfigOverrides config;  ///< run keys allowed (see apply_config_overrides)
  bool truncate_at_saturation = true;
  std::size_t threads = 0;  ///< across-point worker hint; 0 = unset
  std::vector<SuiteSeries> series;
  /// Cross block: compatible combinations are expanded, incompatible ones
  /// skipped (exactly ExperimentSpec::cross). Topologies use the same
  /// scale-map form as SuiteSeries::topology.
  std::vector<std::map<std::string, std::string>> cross_topologies;
  std::vector<std::string> cross_routings;
  std::vector<std::string> cross_traffics;

  /// Scale names this suite defines, sorted (empty for unscaled suites).
  std::vector<std::string> scale_names() const;
};

/// Parses and fully validates a suite document. `origin` (usually the file
/// name) prefixes every error message.
Suite parse_suite(const std::string& text, const std::string& origin = "");

/// Reads and parses a suite file; throws std::invalid_argument when the
/// file cannot be read.
Suite load_suite_file(const std::string& path);

/// The scale name suite_to_spec would expand `requested` to: the request
/// itself, else the suite default, else "small" — or "" for an unscaled
/// suite. Throws on an unknown scale (listing the available ones).
std::string resolve_scale(const Suite& suite, const std::string& requested);

/// Expands a suite at a scale into a runnable spec. `scale` "" means the
/// suite's default. Throws when the scale is unknown, the load grid is
/// empty, or no series survives scale selection.
ExperimentSpec suite_to_spec(const Suite& suite, const std::string& scale = "");

/// Round-trip: captures a fully-resolved spec as an unscaled suite whose
/// config block lists every SimConfig field explicitly (robust against
/// default drift). parse_suite(serialize_suite(...)) reproduces the spec
/// bit-identically (tests/suite_test.cpp).
Suite suite_from_spec(const ExperimentSpec& spec, std::size_t threads = 0);

/// Deterministic, diffable JSON serialization of a suite.
std::string serialize_suite(const Suite& suite);

}  // namespace slimfly::exp
