#include "exp/suite.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/json.hpp"
#include "sim/simulation.hpp"
#include "sim/traffic.hpp"
#include "topo/registry.hpp"

namespace slimfly::exp {
namespace {

std::string json_num(double v) { return json::number(v); }

[[noreturn]] void fail(const std::string& context, const std::string& msg) {
  throw std::invalid_argument(context + ": " + msg);
}

void check_keys(const json::Value& obj, const std::string& context,
                const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : obj.as_object(context)) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string known;
      for (const auto& k : allowed) known += (known.empty() ? "" : ", ") + k;
      fail(context, "unknown key \"" + key + "\" (known: " + known + ")");
    }
  }
}

ConfigOverrides parse_config_block(const json::Value& v,
                                   const std::string& context,
                                   bool allow_run_keys) {
  ConfigOverrides out;
  for (const auto& [key, value] : v.as_object(context)) {
    if (!value.is_number()) {
      // Name an unknown key (such as a string-valued one an older suite
      // file carried) before complaining about its value's kind: 1 is in
      // range for every known key, so only an unknown one throws here.
      apply_config_overrides(sim::SimConfig{}, {{key, 1.0}}, allow_run_keys,
                             context);
    }
    out[key] = value.as_number(context + "." + key);
  }
  // Validate keys and ranges once against a scratch config so errors
  // surface at parse time, not mid-run.
  apply_config_overrides(sim::SimConfig{}, out, allow_run_keys, context);
  return out;
}

std::vector<double> parse_loads_array(const json::Value& v,
                                      const std::string& context) {
  std::vector<double> loads;
  for (const auto& item : v.as_array(context)) {
    double load = item.as_number(context + "[" + std::to_string(loads.size()) + "]");
    if (!(load > 0.0)) {
      fail(context, "loads must be positive (got " + json_num(load) + ")");
    }
    loads.push_back(load);
  }
  if (loads.empty()) fail(context, "empty load list");
  // Ascending, like the CLI: the engine's saturation truncation assumes it.
  std::sort(loads.begin(), loads.end());
  return loads;
}

/// "slimfly:q=7" or {"small": "slimfly:q=7", "paper": "slimfly:q=19"};
/// every spec is structurally validated, every scale key must be declared.
std::map<std::string, std::string> parse_topology_entry(
    const json::Value& v, const std::string& context,
    const std::map<std::string, SuiteScale>& scales) {
  std::map<std::string, std::string> out;
  if (v.is_string()) {
    out[""] = v.string;
  } else if (v.is_object()) {
    for (const auto& [scale, spec] : v.object) {
      if (scales.find(scale) == scales.end()) {
        fail(context, "scale \"" + scale + "\" is not declared in \"scales\"");
      }
      out[scale] = spec.as_string(context + "." + scale);
    }
    if (out.empty()) fail(context, "empty per-scale topology object");
  } else {
    fail(context, std::string("expected a topology spec string or a "
                              "{scale: spec} object, got ") +
                      json::Value::kind_name(v.kind));
  }
  for (const auto& [scale, spec] : out) {
    (void)scale;
    topo::validate_spec(spec);
  }
  return out;
}

void validate_routing_and_traffic(const std::string& routing,
                                  const std::string& traffic,
                                  const std::string& context) {
  sim::parse_routing_spec(routing);  // throws with the named spec
  try {
    // Full grammar check, parameterized specs included; no filesystem
    // access (trace files are opened when the series actually runs).
    sim::validate_traffic_spec(traffic);
  } catch (const std::invalid_argument& e) {
    fail(context, e.what());
  }
}

/// Explicit series must be compatible on every scale they name; cross
/// blocks filter instead (the ExperimentSpec::cross contract).
void validate_series_compat(const SuiteSeries& series,
                            const std::string& context) {
  const std::string need =
      sim::routing_requirement(sim::parse_routing_spec(series.routing).kind);
  const std::string tneed = sim::traffic_requirement(series.traffic);
  for (const auto& [scale, topo_spec] : series.topology) {
    const std::string family = topo::parse_spec(topo_spec).family;
    const std::string where =
        context + (scale.empty() ? "" : " (scale " + scale + ")");
    if (!need.empty() && need != family) {
      fail(where, "routing " + series.routing + " cannot run on topology " +
                      topo_spec);
    }
    if (!tneed.empty() && tneed != family) {
      fail(where, "traffic " + series.traffic + " cannot run on topology " +
                      topo_spec);
    }
  }
}

void serialize_config(std::ostream& os, const ConfigOverrides& config,
                      const std::string& indent) {
  os << "{";
  bool first = true;
  for (const auto& [key, value] : config) {
    os << (first ? "" : ",") << "\n" << indent << "  " << json::quote(key)
       << ": " << json_num(value);
    first = false;
  }
  os << "\n" << indent << "}";
}

void serialize_topology(std::ostream& os,
                        const std::map<std::string, std::string>& topology) {
  if (topology.size() == 1 && topology.begin()->first.empty()) {
    os << json::quote(topology.begin()->second);
    return;
  }
  os << "{";
  bool first = true;
  for (const auto& [scale, spec] : topology) {
    os << (first ? "" : ", ") << json::quote(scale) << ": "
       << json::quote(spec);
    first = false;
  }
  os << "}";
}

void serialize_loads(std::ostream& os, const std::vector<double>& loads) {
  os << "[";
  for (std::size_t i = 0; i < loads.size(); ++i) {
    os << (i ? ", " : "") << json_num(loads[i]);
  }
  os << "]";
}

}  // namespace

std::vector<std::string> Suite::scale_names() const {
  std::vector<std::string> names;
  for (const auto& [scale_name, scale] : scales) {
    (void)scale;
    names.push_back(scale_name);
  }
  return names;
}

Suite parse_suite(const std::string& text, const std::string& origin) {
  const std::string ctx = origin.empty() ? "suite" : origin;
  json::Value root = json::parse(text, origin);
  if (!root.is_object()) {
    fail(ctx, std::string("expected a suite object at top level, got ") +
                  json::Value::kind_name(root.kind));
  }
  check_keys(root, ctx,
             {"suite", "description", "scale", "scales", "loads", "config",
              "truncate_at_saturation", "threads", "series", "cross"});

  Suite suite;
  const json::Value* name = root.find("suite");
  if (!name) fail(ctx, "missing required key \"suite\" (the experiment tag)");
  suite.name = name->as_string(ctx + ".suite");
  if (suite.name.empty() ||
      suite.name.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyz"
          "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-") != std::string::npos) {
    fail(ctx + ".suite",
         "\"" + suite.name +
             "\" is not a valid tag (need [A-Za-z0-9._-]+; it names "
             "BENCH_<tag>.json)");
  }

  if (const json::Value* v = root.find("description")) {
    suite.description = v->as_string(ctx + ".description");
  }
  if (const json::Value* v = root.find("scales")) {
    for (const auto& [scale_name, scale_val] : v->as_object(ctx + ".scales")) {
      const std::string sctx = ctx + ".scales." + scale_name;
      if (scale_name.empty()) fail(sctx, "empty scale name");
      check_keys(scale_val, sctx, {"config", "loads"});
      SuiteScale scale;
      if (const json::Value* c = scale_val.find("config")) {
        scale.config = parse_config_block(*c, sctx + ".config", true);
      }
      if (const json::Value* l = scale_val.find("loads")) {
        scale.loads = parse_loads_array(*l, sctx + ".loads");
      }
      suite.scales.emplace(scale_name, std::move(scale));
    }
  }
  if (const json::Value* v = root.find("scale")) {
    suite.default_scale = v->as_string(ctx + ".scale");
    if (suite.scales.find(suite.default_scale) == suite.scales.end()) {
      fail(ctx + ".scale", "default scale \"" + suite.default_scale +
                               "\" is not declared in \"scales\"");
    }
  }
  if (const json::Value* v = root.find("loads")) {
    suite.loads = parse_loads_array(*v, ctx + ".loads");
  }
  if (suite.loads.empty()) {
    if (suite.scales.empty()) fail(ctx, "missing required key \"loads\"");
    for (const auto& [scale_name, scale] : suite.scales) {
      if (scale.loads.empty()) {
        fail(ctx, "no top-level \"loads\" and scale \"" + scale_name +
                      "\" defines none");
      }
    }
  }
  if (const json::Value* v = root.find("config")) {
    suite.config = parse_config_block(*v, ctx + ".config", true);
  }
  if (const json::Value* v = root.find("truncate_at_saturation")) {
    suite.truncate_at_saturation =
        v->as_bool(ctx + ".truncate_at_saturation");
  }
  if (const json::Value* v = root.find("threads")) {
    const std::uint64_t t = v->as_uint64(ctx + ".threads");
    if (t > 4096) fail(ctx + ".threads", "want 0..4096 (0 = auto)");
    suite.threads = static_cast<std::size_t>(t);
  }

  if (const json::Value* v = root.find("series")) {
    const auto& items = v->as_array(ctx + ".series");
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string sctx = ctx + ".series[" + std::to_string(i) + "]";
      check_keys(items[i], sctx,
                 {"topology", "routing", "traffic", "label", "config"});
      SuiteSeries series;
      const json::Value* topo = items[i].find("topology");
      if (!topo) fail(sctx, "missing required key \"topology\"");
      series.topology =
          parse_topology_entry(*topo, sctx + ".topology", suite.scales);
      const json::Value* routing = items[i].find("routing");
      if (!routing) fail(sctx, "missing required key \"routing\"");
      series.routing = routing->as_string(sctx + ".routing");
      const json::Value* traffic = items[i].find("traffic");
      if (!traffic) fail(sctx, "missing required key \"traffic\"");
      series.traffic = traffic->as_string(sctx + ".traffic");
      if (const json::Value* label = items[i].find("label")) {
        series.label = label->as_string(sctx + ".label");
      }
      if (const json::Value* config = items[i].find("config")) {
        series.config = parse_config_block(*config, sctx + ".config", false);
      }
      validate_routing_and_traffic(series.routing, series.traffic, sctx);
      validate_series_compat(series, sctx);
      suite.series.push_back(std::move(series));
    }
  }

  if (const json::Value* v = root.find("cross")) {
    const std::string cctx = ctx + ".cross";
    check_keys(*v, cctx, {"topologies", "routings", "traffics"});
    const json::Value* topos = v->find("topologies");
    const json::Value* routings = v->find("routings");
    const json::Value* traffics = v->find("traffics");
    if (!topos || !routings || !traffics) {
      fail(cctx, "needs all of \"topologies\", \"routings\", \"traffics\"");
    }
    const auto& titems = topos->as_array(cctx + ".topologies");
    for (std::size_t i = 0; i < titems.size(); ++i) {
      suite.cross_topologies.push_back(parse_topology_entry(
          titems[i], cctx + ".topologies[" + std::to_string(i) + "]",
          suite.scales));
    }
    for (const auto& r : routings->as_array(cctx + ".routings")) {
      suite.cross_routings.push_back(r.as_string(cctx + ".routings"));
      sim::parse_routing_spec(suite.cross_routings.back());
    }
    for (const auto& t : traffics->as_array(cctx + ".traffics")) {
      const std::string traffic = t.as_string(cctx + ".traffics");
      try {
        sim::validate_traffic_spec(traffic);
      } catch (const std::invalid_argument& e) {
        fail(cctx + ".traffics", e.what());
      }
      suite.cross_traffics.push_back(traffic);
    }
    if (suite.cross_topologies.empty() || suite.cross_routings.empty() ||
        suite.cross_traffics.empty()) {
      fail(cctx, "every axis needs at least one entry");
    }
  }

  if (suite.series.empty() && suite.cross_topologies.empty()) {
    fail(ctx, "a suite needs \"series\", \"cross\", or both");
  }
  return suite;
}

Suite load_suite_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("cannot read suite file \"" + path + "\"");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_suite(buffer.str(), path);
}

std::string resolve_scale(const Suite& suite, const std::string& requested) {
  const std::string ctx = "suite \"" + suite.name + "\"";
  if (suite.scales.empty()) {
    if (!requested.empty()) {
      fail(ctx,
           "scale \"" + requested + "\" requested but the suite defines none");
    }
    return "";
  }
  const std::string chosen =
      !requested.empty()
          ? requested
          : (!suite.default_scale.empty() ? suite.default_scale : "small");
  if (suite.scales.find(chosen) == suite.scales.end()) {
    std::string known;
    for (const auto& name : suite.scale_names()) {
      known += (known.empty() ? "" : ", ") + name;
    }
    fail(ctx, "unknown scale \"" + chosen + "\" (available: " + known + ")");
  }
  return chosen;
}

ExperimentSpec suite_to_spec(const Suite& suite, const std::string& scale) {
  const std::string ctx = "suite \"" + suite.name + "\"";
  const std::string chosen = resolve_scale(suite, scale);

  ExperimentSpec spec;
  spec.name = suite.name;
  spec.truncate_at_saturation = suite.truncate_at_saturation;
  sim::SimConfig cfg;
  cfg = apply_config_overrides(cfg, suite.config, true, ctx + " config");
  spec.loads = suite.loads;
  if (!chosen.empty()) {
    const SuiteScale& sc = suite.scales.at(chosen);
    cfg = apply_config_overrides(cfg, sc.config, true,
                                 ctx + " scale \"" + chosen + "\" config");
    if (!sc.loads.empty()) spec.loads = sc.loads;
  }
  spec.config = cfg;
  if (spec.loads.empty()) {
    fail(ctx, "no load grid at scale \"" + chosen + "\"");
  }

  auto resolve = [&chosen](const std::map<std::string, std::string>& m)
      -> const std::string* {
    auto it = m.find("");
    if (it != m.end()) return &it->second;
    it = m.find(chosen);
    return it == m.end() ? nullptr : &it->second;
  };

  for (const SuiteSeries& series : suite.series) {
    const std::string* topo = resolve(series.topology);
    if (!topo) continue;  // series not present at this scale
    spec.series.push_back(
        {*topo, series.routing, series.traffic, series.label, series.config});
  }
  if (!suite.cross_topologies.empty()) {
    std::vector<std::string> topos;
    for (const auto& entry : suite.cross_topologies) {
      if (const std::string* topo = resolve(entry)) topos.push_back(*topo);
    }
    ExperimentSpec crossed =
        ExperimentSpec::cross(suite.name, topos, suite.cross_routings,
                              suite.cross_traffics, spec.loads, cfg);
    for (auto& s : crossed.series) spec.series.push_back(std::move(s));
  }
  if (spec.series.empty()) {
    fail(ctx, chosen.empty()
                  ? std::string("no series to run")
                  : "no series present at scale \"" + chosen + "\"");
  }
  return spec;
}

Suite suite_from_spec(const ExperimentSpec& spec, std::size_t threads) {
  if (spec.config.seed > (1ULL << 53)) {
    throw std::invalid_argument(
        "suite_from_spec: seed " + std::to_string(spec.config.seed) +
        " exceeds 2^53 and cannot round-trip through a JSON number");
  }
  Suite suite;
  suite.name = spec.name;
  suite.loads = spec.loads;
  suite.truncate_at_saturation = spec.truncate_at_saturation;
  suite.threads = threads;
  const sim::SimConfig& c = spec.config;
  // Every field explicit, so the suite is immune to SimConfig default drift
  // — a requirement for golden trajectories.
  suite.config = {{"num_vcs", static_cast<double>(c.num_vcs)},
                  {"buffer_per_port", static_cast<double>(c.buffer_per_port)},
                  {"channel_latency", static_cast<double>(c.channel_latency)},
                  {"router_pipeline", static_cast<double>(c.router_pipeline)},
                  {"credit_delay", static_cast<double>(c.credit_delay)},
                  {"alloc_iterations", static_cast<double>(c.alloc_iterations)},
                  {"output_staging", static_cast<double>(c.output_staging)},
                  {"warmup_cycles", static_cast<double>(c.warmup_cycles)},
                  {"measure_cycles", static_cast<double>(c.measure_cycles)},
                  {"drain_cycles", static_cast<double>(c.drain_cycles)},
                  {"latency_cap", c.latency_cap},
                  {"seed", static_cast<double>(c.seed)},
                  {"stats_window", static_cast<double>(c.stats_window)}};
  for (const SeriesSpec& s : spec.series) {
    SuiteSeries series;
    series.topology[""] = s.topology;
    series.routing = s.routing;
    series.traffic = s.traffic;
    series.label = s.label;
    series.config = s.config_overrides;
    suite.series.push_back(std::move(series));
  }
  return suite;
}

std::string serialize_suite(const Suite& suite) {
  std::ostringstream os;
  os << "{\n  \"suite\": " << json::quote(suite.name);
  if (!suite.description.empty()) {
    os << ",\n  \"description\": " << json::quote(suite.description);
  }
  if (!suite.default_scale.empty()) {
    os << ",\n  \"scale\": " << json::quote(suite.default_scale);
  }
  if (!suite.scales.empty()) {
    os << ",\n  \"scales\": {";
    bool first_scale = true;
    for (const auto& [name, scale] : suite.scales) {
      os << (first_scale ? "" : ",") << "\n    " << json::quote(name) << ": {";
      bool first_part = true;
      if (!scale.config.empty()) {
        os << "\n      \"config\": ";
        serialize_config(os, scale.config, "      ");
        first_part = false;
      }
      if (!scale.loads.empty()) {
        os << (first_part ? "" : ",") << "\n      \"loads\": ";
        serialize_loads(os, scale.loads);
      }
      os << "\n    }";
      first_scale = false;
    }
    os << "\n  }";
  }
  if (!suite.loads.empty()) {
    os << ",\n  \"loads\": ";
    serialize_loads(os, suite.loads);
  }
  if (!suite.config.empty()) {
    os << ",\n  \"config\": ";
    serialize_config(os, suite.config, "  ");
  }
  os << ",\n  \"truncate_at_saturation\": "
     << (suite.truncate_at_saturation ? "true" : "false");
  if (suite.threads != 0) os << ",\n  \"threads\": " << suite.threads;
  if (!suite.series.empty()) {
    os << ",\n  \"series\": [";
    for (std::size_t i = 0; i < suite.series.size(); ++i) {
      const SuiteSeries& s = suite.series[i];
      os << (i ? "," : "") << "\n    {\"topology\": ";
      serialize_topology(os, s.topology);
      os << ", \"routing\": " << json::quote(s.routing)
         << ", \"traffic\": " << json::quote(s.traffic);
      if (!s.label.empty()) os << ", \"label\": " << json::quote(s.label);
      if (!s.config.empty()) {
        os << ",\n     \"config\": ";
        serialize_config(os, s.config, "     ");
      }
      os << "}";
    }
    os << "\n  ]";
  }
  if (!suite.cross_topologies.empty()) {
    os << ",\n  \"cross\": {\n    \"topologies\": [";
    for (std::size_t i = 0; i < suite.cross_topologies.size(); ++i) {
      os << (i ? ", " : "");
      serialize_topology(os, suite.cross_topologies[i]);
    }
    os << "],\n    \"routings\": [";
    for (std::size_t i = 0; i < suite.cross_routings.size(); ++i) {
      os << (i ? ", " : "") << json::quote(suite.cross_routings[i]);
    }
    os << "],\n    \"traffics\": [";
    for (std::size_t i = 0; i < suite.cross_traffics.size(); ++i) {
      os << (i ? ", " : "") << json::quote(suite.cross_traffics[i]);
    }
    os << "]\n  }";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace slimfly::exp
