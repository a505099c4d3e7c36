// Repo benchmark driver. Times the simulator from outside, through its
// public entry points only: topo::make, sim::make_distance_oracle,
// sim::make_routing_spec, sim::make_traffic, the sim::Network constructor,
// Network::step / Network::run and exp::ExperimentEngine::run.
//
//   slimfly_bench setup    SUITE [--variant K] [--reps N] [--seconds T]
//   slimfly_bench run      SUITE [--variant K] --references DIR [--perturb]
//   slimfly_bench trace    SUITE [--variant K] --references DIR
//   slimfly_bench pin      SUITE [--variant K] --references DIR
//   slimfly_bench selftest SUITE [--variant K]
//
// One mode per process, so each pass has its own RSS high-water mark.
// Every mode prints human-readable lines, then one JSON object as the last
// line of stdout; benchmark/run.py turns those into the benchmark result.
// --variant K adds K to the suite's base seed (the run's input variant);
// the pinned reference of variant K is DIR/<suite>.vK.json.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <time.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "exp/diff.hpp"
#include "exp/experiment.hpp"
#include "exp/json.hpp"
#include "exp/suite.hpp"
#include "sim/network.hpp"
#include "sim/routing/oracle.hpp"
#include "sim/simulation.hpp"
#include "topo/registry.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace {

using namespace slimfly;
using exp::json::number;

constexpr double kMiB = 1024.0 * 1024.0;

// ---- process memory ---------------------------------------------------------

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

double hwm_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Resets the kernel's resident high-water mark to the current RSS, so a
// later hwm_mib() reads the peak of the code in between. Returns false
// where the kernel refuses; callers then fall back to the RSS after.
bool reset_hwm() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// Peak RSS growth of `build` over the RSS before it, in MiB.
template <typename F>
double peak_growth_mib(F&& build) {
  const double before = current_rss_mib();
  const bool hwm = reset_hwm();
  build();
  const double peak = hwm ? hwm_mib() : current_rss_mib();
  return std::max(0.0, peak - before);
}

// CPU seconds (user + system) of every thread of this process so far. Unlike
// wall time, it does not grow while the host runs other processes' threads.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- the shared layout ExperimentEngine::run builds ---------------------------

constexpr std::size_t kNoOracle = static_cast<std::size_t>(-1);

// One topology per distinct spec string and one oracle per distinct
// (topology, resolved oracle mode); FT-ANCA takes no oracle. Mirrors the
// sharing in ExperimentEngine::run.
struct Layout {
  std::vector<std::string> topo_specs;
  std::vector<std::pair<std::size_t, sim::OracleMode>> oracles;
  std::vector<std::size_t> series_topo;
  std::vector<std::size_t> series_oracle;
};

Layout layout_of(const exp::ExperimentSpec& spec) {
  Layout out;
  for (const auto& s : spec.series) {
    auto it = std::find(out.topo_specs.begin(), out.topo_specs.end(), s.topology);
    const std::size_t t = static_cast<std::size_t>(it - out.topo_specs.begin());
    if (it == out.topo_specs.end()) out.topo_specs.push_back(s.topology);
    out.series_topo.push_back(t);
    if (sim::parse_routing_spec(s.routing).kind == sim::RoutingKind::FatTreeAnca) {
      out.series_oracle.push_back(kNoOracle);
      continue;
    }
    const sim::OracleMode mode =
        exp::apply_config_overrides(spec.config, s.config_overrides, false, s.label)
            .oracle;
    const std::pair<std::size_t, sim::OracleMode> key{t, mode};
    auto oit = std::find(out.oracles.begin(), out.oracles.end(), key);
    out.series_oracle.push_back(static_cast<std::size_t>(oit - out.oracles.begin()));
    if (oit == out.oracles.end()) out.oracles.push_back(key);
  }
  return out;
}

struct Shared {
  std::vector<std::unique_ptr<Topology>> topos;
  std::vector<std::shared_ptr<const sim::DistanceOracle>> oracles;
  std::vector<double> topo_s;
  std::vector<double> oracle_s;
};

Shared build_shared(const Layout& layout) {
  Shared out;
  for (const auto& spec : layout.topo_specs) {
    Timer t;
    out.topos.push_back(topo::make(spec));
    out.topo_s.push_back(t.seconds());
  }
  for (const auto& [topo, mode] : layout.oracles) {
    Timer t;
    out.oracles.push_back(sim::make_distance_oracle(*out.topos[topo], mode));
    out.oracle_s.push_back(t.seconds());
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---- one point, built the way ExperimentEngine::run_prepared builds it ----------

// The SimConfig run_prepared hands sim::simulate for point (s, l).
sim::SimConfig point_config(const exp::ExperimentSpec& spec, std::size_t s,
                            std::size_t l, int intra) {
  const auto& series = spec.series[s];
  sim::SimConfig cfg = spec.config;
  if (!series.config_overrides.empty()) {
    cfg = exp::apply_config_overrides(cfg, series.config_overrides, false,
                                      series.display_label());
  }
  cfg.intra_threads = intra;
  cfg.seed = exp::point_seed(spec, s, l);
  return cfg;
}

struct BuiltPoint {
  sim::RoutingBundle routing;
  std::unique_ptr<sim::TrafficPattern> traffic;
  std::unique_ptr<sim::Network> net;
  double routing_s = 0.0, traffic_s = 0.0, wire_s = 0.0;
  double traffic_rss_mib = 0.0, wire_rss_mib = 0.0;
};

// Routing, traffic and Network construction for one point, each timed;
// the num_vcs bump is sim::simulate's. With `rss`, each build's peak RSS
// growth is recorded too (callers serialize builds so it is attributable).
BuiltPoint build_point(const exp::ExperimentSpec& spec, const Layout& layout,
                       const Shared& shared, std::size_t s, std::size_t l,
                       sim::SimConfig cfg, bool rss) {
  const auto& series = spec.series[s];
  const Topology& topo = *shared.topos[layout.series_topo[s]];
  const std::size_t o = layout.series_oracle[s];
  BuiltPoint p;
  Timer t;
  p.routing = sim::make_routing_spec(series.routing, topo,
                                     o == kNoOracle ? nullptr : shared.oracles[o]);
  p.routing_s = t.seconds();
  auto traffic = [&] {
    t.reset();
    p.traffic = sim::make_traffic(series.traffic, topo);
    p.traffic_s = t.seconds();
  };
  if (rss) {
    p.traffic_rss_mib = peak_growth_mib(traffic);
  } else {
    traffic();
  }
  if (cfg.num_vcs < p.routing.algorithm->max_hops()) {
    cfg.num_vcs = p.routing.algorithm->max_hops();
  }
  auto wire = [&] {
    t.reset();
    p.net = std::make_unique<sim::Network>(topo, *p.routing.algorithm, *p.traffic,
                                           cfg, spec.loads[l]);
    p.wire_s = t.seconds();
  };
  if (rss) {
    p.wire_rss_mib = peak_growth_mib(wire);
  } else {
    wire();
  }
  return p;
}

// Bit-for-bit SimResult identity. cycles_stepped is execution bookkeeping
// (how many cycles ran their phases), not a simulated outcome: the traced
// pass steps every cycle itself, so it is reported, not compared.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (!same_bits(a.offered_load, b.offered_load) ||
      !same_bits(a.accepted_load, b.accepted_load) ||
      !same_bits(a.avg_latency, b.avg_latency) ||
      !same_bits(a.avg_network_latency, b.avg_network_latency) ||
      !same_bits(a.p99_latency, b.p99_latency) || a.saturated != b.saturated ||
      a.delivered != b.delivered || a.cycles != b.cycles ||
      a.flit_hops != b.flit_hops || a.stats_window != b.stats_window ||
      a.windows.size() != b.windows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const auto& x = a.windows[i];
    const auto& y = b.windows[i];
    if (x.generated != y.generated || x.delivered != y.delivered ||
        x.latency_sum != y.latency_sum ||
        x.dep_stalled_sends != y.dep_stalled_sends ||
        x.dep_stall_cycles != y.dep_stall_cycles) {
      return false;
    }
  }
  return true;
}

// ---- traced stepping ----------------------------------------------------------

struct Stepped {
  sim::SimResult result;
  double warmup_s = 0.0, measure_s = 0.0, drain_s = 0.0;
};

// Network::run decomposed: step() through warmup, step() through the
// measurement window, then run() for the drain and the summary.
Stepped step_traced(sim::Network& net, const sim::SimConfig& cfg) {
  Stepped out;
  Timer t;
  while (net.cycle() < cfg.warmup_cycles) net.step();
  out.warmup_s = t.seconds();
  t.reset();
  while (net.cycle() < cfg.warmup_cycles + cfg.measure_cycles) net.step();
  out.measure_s = t.seconds();
  t.reset();
  out.result = net.run();
  out.drain_s = t.seconds();
  return out;
}

// Measurement-window seconds of point (s, l) stepped by a single worker over
// the same shards: a twin Network whose team is the full team through the
// warmup and one worker through the measurement window.
double measure_s_one_worker(const exp::ExperimentSpec& spec, const Layout& layout,
                            const Shared& shared, std::size_t s, std::size_t l,
                            sim::SimConfig cfg) {
  auto team = std::make_shared<std::atomic<int>>(cfg.intra_threads);
  cfg.team_provider = [team] { return team->load(std::memory_order_relaxed); };
  BuiltPoint twin = build_point(spec, layout, shared, s, l, cfg, false);
  while (twin.net->cycle() < cfg.warmup_cycles) twin.net->step();
  team->store(1, std::memory_order_relaxed);
  Timer t;
  while (twin.net->cycle() < cfg.warmup_cycles + cfg.measure_cycles) {
    twin.net->step();
  }
  return t.seconds();
}

// ---- engine runs and the correctness gate -------------------------------------

struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// Exact comparison with the pinned reference (the `sweep diff` machinery).
Gate check(const exp::Trajectory& reference, const exp::ExperimentSpec& spec,
           const std::vector<exp::RunResult>& results) {
  const exp::DiffReport report =
      exp::diff_trajectories(reference, exp::trajectory_of(spec, results));
  if (!report.passed) exp::print_diff(std::cout, report, false);
  Gate g;
  g.attempted = reference.points.size() + report.only_in_b.size();
  g.failed = report.regressions + report.only_in_a.size() + report.only_in_b.size();
  return g;
}

struct EngineRun {
  std::vector<exp::RunResult> results;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t simulated = 0;  ///< points simulated, truncated ones included
  double point_s_sum = 0.0;
  double point_s_max = 0.0;
  bool threw = false;
};

EngineRun run_engine(exp::ExperimentEngine& engine, const exp::ExperimentSpec& spec) {
  EngineRun out;
  auto on_point = [&out](const exp::PreparedSeries&, const exp::RunResult& r) {
    ++out.simulated;
    out.point_s_sum += r.wall_seconds;
    out.point_s_max = std::max(out.point_s_max, r.wall_seconds);
  };
  const double cpu0 = cpu_seconds();
  Timer t;
  try {
    out.results = engine.run(spec, on_point);
  } catch (const std::exception& e) {
    std::cout << "error: " << e.what() << "\n";
    out.threw = true;
  }
  out.wall_s = t.seconds();
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

// ---- output -------------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, exp::json::quote(v));
  }
  JsonObject& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + number(v[i]);
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + exp::json::quote(key) + ": " + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string host_json(const exp::ExperimentEngine& engine,
                      const exp::ExperimentSpec& spec) {
  const std::size_t n_points = spec.series.size() * spec.loads.size();
  const auto sched = engine.schedule(n_points, spec.config.intra_threads);
  return JsonObject()
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .num("engine_threads", static_cast<double>(engine.threads()))
      .num("across", static_cast<double>(sched.first))
      .num("intra", sched.second)
      .str("scheduler", exp::to_string(engine.scheduler()))
      .str("step_engine", sim::to_string(spec.config.engine))
      .str("build_type", BENCH_BUILD_TYPE)
      .str("lto", BENCH_LTO)
      .str();
}

// ---- modes --------------------------------------------------------------------

struct Args {
  std::string mode, suite, references;
  std::uint64_t variant = 0;
  double seconds = 0.0;
  int reps = 3;
  bool perturb = false;
};

exp::ExperimentSpec load_spec(const Args& a) {
  // The sweep --config path: load_suite_file -> suite_to_spec, then --seed.
  exp::ExperimentSpec spec = exp::suite_to_spec(exp::load_suite_file(a.suite));
  spec.config.seed += a.variant;
  return spec;
}

std::string reference_path(const Args& a, const exp::ExperimentSpec& spec) {
  return a.references + "/" + spec.name + ".v" + std::to_string(a.variant) + ".json";
}

int mode_setup(const Args& a) {
  const exp::ExperimentSpec spec = load_spec(a);
  const Layout layout = layout_of(spec);
  exp::ExperimentEngine engine;
  const std::size_t n_points = spec.series.size() * spec.loads.size();
  const int intra = engine.schedule(n_points, spec.config.intra_threads).second;
  std::vector<double> setup_s, topo_s, oracle_s, point_s;
  Timer total;
  for (int rep = 0; rep < a.reps || total.seconds() < a.seconds; ++rep) {
    const Shared shared = build_shared(layout);
    double points = 0.0;
    for (std::size_t s = 0; s < spec.series.size(); ++s) {
      for (std::size_t l = 0; l < spec.loads.size(); ++l) {
        const BuiltPoint p = build_point(spec, layout, shared, s, l,
                                         point_config(spec, s, l, intra), false);
        points += p.routing_s + p.traffic_s + p.wire_s;
      }
    }
    topo_s.push_back(sum(shared.topo_s));
    oracle_s.push_back(sum(shared.oracle_s));
    point_s.push_back(points);
    setup_s.push_back(topo_s.back() + oracle_s.back() + points);
    std::cout << "setup rep " << rep << ": " << setup_s.back() << " s (topo "
              << topo_s.back() << ", oracle " << oracle_s.back() << ", points "
              << points << ")\n";
  }
  std::cout << JsonObject()
                   .list("setup_s", setup_s)
                   .list("topo_s", topo_s)
                   .list("oracle_s", oracle_s)
                   .list("point_s", point_s)
                   .raw("host", host_json(engine, spec))
                   .str()
            << std::endl;
  return 0;
}

// One engine run per process, so its peak RSS is the process high-water
// mark of that run alone, as for a user running `sweep --config` once.
int mode_run(const Args& a) {
  const exp::ExperimentSpec spec = load_spec(a);
  exp::Trajectory reference = exp::load_bench_file(reference_path(a, spec));
  if (a.perturb && !reference.points.empty()) reference.points[0].latency += 1.0;
  exp::ExperimentEngine engine;
  const EngineRun r = run_engine(engine, spec);
  const Gate g = r.threw ? Gate{reference.points.size(), reference.points.size()}
                         : check(reference, spec, r.results);
  std::cout << JsonObject()
                   .num("wall_s", r.wall_s)
                   .num("cpu_s", r.cpu_s)
                   .num("peak_rss_mib", static_cast<double>(peak_rss_bytes()) / kMiB)
                   .num("points_kept", static_cast<double>(r.results.size()))
                   .num("attempted", static_cast<double>(g.attempted))
                   .num("failed", static_cast<double>(g.failed))
                   .raw("host", host_json(engine, spec))
                   .str()
            << std::endl;
  return 0;
}

// Per-point layer record of the traced pass.
struct PointTrace {
  std::size_t s = 0, l = 0;
  BuiltPoint built;  // construction timings; objects released after stepping
  Stepped stepped;
  double measure_s_team1 = 0.0;
  std::int64_t endpoints = 0;
  bool identical = false;
  std::string error;
};

int mode_trace(const Args& a) {
  const exp::ExperimentSpec spec = load_spec(a);
  const exp::Trajectory reference =
      exp::load_bench_file(reference_path(a, spec));
  exp::ExperimentEngine engine;
  const std::size_t n_points = spec.series.size() * spec.loads.size();
  const auto [across, intra] = engine.schedule(n_points, spec.config.intra_threads);

  // Untraced twin: the engine run every traced point must reproduce.
  const EngineRun untraced = run_engine(engine, spec);
  Gate gate;
  if (untraced.threw) {
    gate.attempted = gate.failed = reference.points.size();
  } else {
    gate = check(reference, spec, untraced.results);
  }

  // Traced pass: shared builds, then every kept point over `across` workers.
  const Layout layout = layout_of(spec);
  const Shared shared = build_shared(layout);
  std::vector<PointTrace> points;
  for (const auto& r : untraced.results) {
    PointTrace p;
    p.s = r.series_index;
    p.l = static_cast<std::size_t>(
        std::find(spec.loads.begin(), spec.loads.end(), r.load) - spec.loads.begin());
    points.push_back(std::move(p));
  }
  std::atomic<std::size_t> next{0};
  std::mutex build_mutex;  // builds one at a time: RSS growth is attributable
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < points.size();) {
      PointTrace& p = points[i];
      try {
        const sim::SimConfig cfg = point_config(spec, p.s, p.l, intra);
        {
          std::lock_guard<std::mutex> lock(build_mutex);
          p.built = build_point(spec, layout, shared, p.s, p.l, cfg, true);
        }
        p.endpoints = shared.topos[layout.series_topo[p.s]]->num_endpoints();
        p.stepped = step_traced(*p.built.net, cfg);
        p.identical = same_result(p.stepped.result, untraced.results[i].result);
        p.built.net.reset();
        p.built.traffic.reset();
        if (intra > 1) {
          p.measure_s_team1 = measure_s_one_worker(spec, layout, shared, p.s, p.l, cfg);
        }
      } catch (const std::exception& e) {
        p.error = e.what();
      }
    }
  };
  std::vector<std::thread> team;
  for (std::size_t w = 1; w < across; ++w) team.emplace_back(worker);
  worker();
  for (auto& t : team) t.join();

  // Per-topology and per-point lines: every layer metric for every kept point.
  for (std::size_t t = 0; t < layout.topo_specs.size(); ++t) {
    std::cout << "topo " << layout.topo_specs[t] << ": topo.build_s=" << shared.topo_s[t]
              << "\n";
  }
  for (std::size_t o = 0; o < layout.oracles.size(); ++o) {
    std::cout << "oracle " << layout.topo_specs[layout.oracles[o].first] << " mode="
              << sim::to_string(layout.oracles[o].second)
              << ": oracle.build_s=" << shared.oracle_s[o] << "\n";
  }
  double routing_s = 0, traffic_s = 0, traffic_rss = 0, wire_s = 0, wire_rss = 0;
  double warmup_s = 0, measure_s = 0, drain_s = 0, measure_s_team1 = 0;
  double cycles = 0, cycles_stepped = 0, flit_hops = 0, delivered = 0;
  double endpoint_cycles = 0;
  for (const auto& p : points) {
    const auto& series = spec.series[p.s];
    const auto& r = p.stepped.result;
    const double step_s = p.stepped.warmup_s + p.stepped.measure_s + p.stepped.drain_s;
    const double stepped = static_cast<double>(r.cycles_stepped);
    const double hops = static_cast<double>(r.flit_hops);
    std::cout << "point " << series.display_label() << " load=" << spec.loads[p.l]
              << ": routing.build_s=" << p.built.routing_s
              << " traffic.build_s=" << p.built.traffic_s
              << " traffic.build_rss_mib=" << p.built.traffic_rss_mib
              << " network.wire_s=" << p.built.wire_s
              << " network.wire_rss_mib=" << p.built.wire_rss_mib
              << " network.warmup_s=" << p.stepped.warmup_s
              << " network.measure_s=" << p.stepped.measure_s
              << " network.drain_s=" << p.stepped.drain_s
              << " network.step_ns_per_cycle=" << (stepped > 0 ? step_s * 1e9 / stepped : 0)
              << " network.step_ns_per_flit_hop=" << (hops > 0 ? step_s * 1e9 / hops : 0)
              << " network.step_ns_per_endpoint_cycle="
              << (stepped > 0 ? step_s * 1e9 / (stepped * static_cast<double>(p.endpoints)) : 0)
              << " network.cycles=" << r.cycles
              << " network.cycles_stepped=" << r.cycles_stepped
              << " network.flit_hops=" << r.flit_hops
              << " network.delivered=" << r.delivered << " network.intra_team=" << intra
              << " network.intra_speedup="
              << (intra > 1 && p.stepped.measure_s > 0 ? p.measure_s_team1 / p.stepped.measure_s
                                                       : 1.0)
              << " identical=" << (p.identical ? "yes" : "no") << "\n";
    if (!p.error.empty()) std::cout << "  error: " << p.error << "\n";
    ++gate.attempted;
    if (!p.identical || !p.error.empty()) ++gate.failed;
    routing_s += p.built.routing_s;
    traffic_s += p.built.traffic_s;
    traffic_rss = std::max(traffic_rss, p.built.traffic_rss_mib);
    wire_s += p.built.wire_s;
    wire_rss = std::max(wire_rss, p.built.wire_rss_mib);
    warmup_s += p.stepped.warmup_s;
    measure_s += p.stepped.measure_s;
    drain_s += p.stepped.drain_s;
    measure_s_team1 += p.measure_s_team1;
    cycles += static_cast<double>(r.cycles);
    cycles_stepped += stepped;
    flit_hops += hops;
    delivered += static_cast<double>(r.delivered);
    endpoint_cycles += stepped * static_cast<double>(p.endpoints);
  }
  const double step_s = warmup_s + measure_s + drain_s;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  JsonObject m;
  m.num("topo.build_s", sum(shared.topo_s))
      .num("oracle.build_s", sum(shared.oracle_s))
      .num("routing.build_s", routing_s)
      .num("traffic.build_s", traffic_s)
      .num("traffic.build_rss_mib", traffic_rss)
      .num("network.wire_s", wire_s)
      .num("network.wire_rss_mib", wire_rss)
      .num("network.warmup_s", warmup_s)
      .num("network.measure_s", measure_s)
      .num("network.drain_s", drain_s)
      .num("network.step_s", step_s)
      .num("network.step_ns_per_cycle", ratio(step_s * 1e9, cycles_stepped))
      .num("network.step_ns_per_flit_hop", ratio(step_s * 1e9, flit_hops))
      .num("network.step_ns_per_endpoint_cycle", ratio(step_s * 1e9, endpoint_cycles))
      .num("network.cycles", cycles)
      .num("network.cycles_stepped", cycles_stepped)
      .num("network.flit_hops", flit_hops)
      .num("network.delivered", delivered)
      .num("network.intra_team", intra)
      .num("network.measure_s_team1", intra > 1 ? measure_s_team1 : measure_s)
      .num("network.intra_speedup", intra > 1 ? ratio(measure_s_team1, measure_s) : 1.0)
      .num("exp.workers", static_cast<double>(across))
      .num("exp.wall_s", untraced.wall_s)
      .num("exp.points", static_cast<double>(untraced.results.size()))
      .num("exp.points_skipped", static_cast<double>(n_points - untraced.simulated))
      .num("exp.point_s_sum", untraced.point_s_sum)
      .num("exp.point_s_max", untraced.point_s_max)
      .num("exp.pack_efficiency",
           ratio(untraced.point_s_sum, static_cast<double>(across) * untraced.wall_s));
  std::cout << JsonObject()
                   .raw("metrics", m.str())
                   .num("attempted", static_cast<double>(gate.attempted))
                   .num("failed", static_cast<double>(gate.failed))
                   .raw("host", host_json(engine, spec))
                   .str()
            << std::endl;
  return 0;
}

int mode_pin(const Args& a) {
  const exp::ExperimentSpec spec = load_spec(a);
  exp::ExperimentEngine engine;
  const EngineRun r = run_engine(engine, spec);
  if (r.threw) return 1;
  const std::string path = reference_path(a, spec);
  std::ofstream out(path);
  exp::write_json(out, spec, r.results, engine.threads());
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return 1;
  }
  std::cout << JsonObject().num("points", static_cast<double>(r.results.size())).str()
            << std::endl;
  return 0;
}

// The traced decomposition must reproduce sim::simulate bit-for-bit on every
// point of the suite (no engine, no truncation).
int mode_selftest(const Args& a) {
  const exp::ExperimentSpec spec = load_spec(a);
  const Layout layout = layout_of(spec);
  const Shared shared = build_shared(layout);
  std::size_t attempted = 0, failed = 0;
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    for (std::size_t l = 0; l < spec.loads.size(); ++l) {
      const sim::SimConfig cfg = point_config(spec, s, l, 1);
      BuiltPoint traced = build_point(spec, layout, shared, s, l, cfg, false);
      const Stepped stepped = step_traced(*traced.net, cfg);
      BuiltPoint fresh = build_point(spec, layout, shared, s, l, cfg, false);
      fresh.net.reset();  // only its routing and traffic are reused
      const sim::SimResult direct =
          sim::simulate(*shared.topos[layout.series_topo[s]], *fresh.routing.algorithm,
                        *fresh.traffic, cfg, spec.loads[l]);
      const bool same = same_result(stepped.result, direct) &&
                        stepped.result.cycles_stepped == direct.cycles_stepped;
      ++attempted;
      if (!same) {
        ++failed;
        std::cout << "mismatch: " << spec.series[s].display_label()
                  << " load=" << spec.loads[l] << "\n";
      }
    }
  }
  std::cout << JsonObject()
                   .num("attempted", static_cast<double>(attempted))
                   .num("failed", static_cast<double>(failed))
                   .str()
            << std::endl;
  return 0;
}

Args parse_args(int argc, char** argv) {
  if (argc < 3) throw std::invalid_argument("usage: slimfly_bench MODE SUITE [options]");
  Args a;
  a.mode = argv[1];
  a.suite = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      a.perturb = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--variant") {
      a.variant = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--reps") {
      a.reps = std::stoi(value);
    } else if (flag == "--references") {
      a.references = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "setup") return mode_setup(a);
    if (a.mode == "run") return mode_run(a);
    if (a.mode == "trace") return mode_trace(a);
    if (a.mode == "pin") return mode_pin(a);
    if (a.mode == "selftest") return mode_selftest(a);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
