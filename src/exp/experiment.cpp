#include "exp/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "exp/json.hpp"
#include "sim/simulation.hpp"
#include "topo/registry.hpp"
#include "topo/topology.hpp"
#include "sim/routing/oracle.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace slimfly::exp {
namespace {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string csv_field(const std::string& s) { return Table::csv_quote(s); }

// Shortest exact round-trip (exp/json.hpp): BENCH files and CSVs must
// reload to the same bits or golden comparison would chase phantom ULPs.
std::string json_num(double v) { return json::number(v); }

}  // namespace

double mcycles_per_sec(const RunResult& r) {
  if (!(r.wall_seconds > 0.0)) return 0.0;
  return static_cast<double>(r.result.cycles) / r.wall_seconds / 1e6;
}

std::string SeriesSpec::display_label() const {
  if (!label.empty()) return label;
  return topology + "|" + routing + "|" + traffic;
}

sim::SimConfig apply_config_overrides(sim::SimConfig base,
                                      const ConfigOverrides& overrides,
                                      bool allow_run_keys,
                                      const std::string& context) {
  auto integral = [&](const std::string& key, double v, double min,
                      double max) -> long long {
    if (!(v >= min && v <= max) || v != static_cast<double>(static_cast<long long>(v))) {
      throw std::invalid_argument(context + ": config key \"" + key +
                                  "\" must be an integer in " + json_num(min) +
                                  ".." + json_num(max) + " (got " +
                                  json_num(v) + ")");
    }
    return static_cast<long long>(v);
  };
  for (const auto& [key, value] : overrides) {
    if (key == "num_vcs") {
      base.num_vcs = static_cast<int>(integral(key, value, 1, 64));
    } else if (key == "buffer_per_port") {
      base.buffer_per_port = static_cast<int>(integral(key, value, 1, 1 << 20));
    } else if (key == "channel_latency") {
      base.channel_latency = static_cast<int>(integral(key, value, 1, 1024));
    } else if (key == "router_pipeline") {
      base.router_pipeline = static_cast<int>(integral(key, value, 1, 64));
    } else if (key == "credit_delay") {
      base.credit_delay = static_cast<int>(integral(key, value, 0, 1024));
    } else if (key == "alloc_iterations") {
      base.alloc_iterations = static_cast<int>(integral(key, value, 1, 64));
    } else if (key == "output_staging") {
      base.output_staging = static_cast<int>(integral(key, value, 1, 4096));
    } else if (key == "warmup_cycles") {
      base.warmup_cycles = integral(key, value, 0, 1e12);
    } else if (key == "measure_cycles") {
      base.measure_cycles = integral(key, value, 1, 1e12);
    } else if (key == "drain_cycles") {
      base.drain_cycles = integral(key, value, 0, 1e12);
    } else if (key == "latency_cap") {
      if (!(value > 0)) {
        throw std::invalid_argument(context +
                                    ": config key \"latency_cap\" must be "
                                    "positive (got " + json_num(value) + ")");
      }
      base.latency_cap = value;
    } else if (key == "stats_window") {
      // Pure observation (windowed counters never feed back into the
      // simulation), so allowed per series and skipped by point_seed.
      base.stats_window = integral(key, value, 0, 1e9);
    } else if (allow_run_keys && key == "seed") {
      // Doubles carry integers exactly up to 2^53 — far beyond any seed in
      // use; suite files wanting full 64 bits should derive via --seed.
      base.seed = static_cast<std::uint64_t>(integral(key, value, 0, 9007199254740992.0));
    } else if (allow_run_keys && key == "intra_threads") {
      // Accepted only as 0, the value suite files use for "auto": the
      // engine always picks the intra-point split itself.
      if (value != 0) {
        throw std::invalid_argument(
            context + ": config key \"intra_threads\" can only be 0 (got " +
            json_num(value) +
            "): the experiment engine picks the intra-point split itself");
      }
    } else {
      throw std::invalid_argument(
          context + ": unknown config key \"" + key +
          "\" (known: num_vcs, buffer_per_port, channel_latency, "
          "router_pipeline, credit_delay, alloc_iterations, output_staging, "
          "warmup_cycles, measure_cycles, drain_cycles, latency_cap, "
          "stats_window" +
          (allow_run_keys ? ", seed, intra_threads)" :
                            "; seed and intra_threads are experiment-level)"));
    }
  }
  return base;
}

ExperimentSpec ExperimentSpec::cross(std::string name,
                                     const std::vector<std::string>& topologies,
                                     const std::vector<std::string>& routings,
                                     const std::vector<std::string>& traffics,
                                     std::vector<double> loads,
                                     sim::SimConfig config) {
  ExperimentSpec spec;
  spec.name = std::move(name);
  spec.loads = std::move(loads);
  spec.config = config;
  for (const auto& topo_spec : topologies) {
    const std::string family = topo::parse_spec(topo_spec).family;
    for (const auto& routing : routings) {
      const std::string need =
          sim::routing_requirement(sim::parse_routing_spec(routing).kind);
      if (!need.empty() && need != family) continue;
      for (const auto& traffic : traffics) {
        const std::string tneed = sim::traffic_requirement(traffic);
        if (!tneed.empty() && tneed != family) continue;
        spec.series.push_back({topo_spec, routing, traffic, "", {}});
      }
    }
  }
  return spec;
}

std::uint64_t point_seed(const ExperimentSpec& spec, std::size_t series_index,
                         std::size_t load_index) {
  const SeriesSpec& s = spec.series.at(series_index);
  std::uint64_t h = fnv1a(s.topology, 1469598103934665603ULL);
  h = fnv1a("|" + s.routing + "|" + s.traffic, h);
  // Config overrides are part of a series' identity (Figure 8a's buffer
  // study runs the same topo/routing/traffic six times); an empty map keeps
  // every pre-override seed unchanged.
  for (const auto& [key, value] : s.config_overrides) {
    // The stats window is "hashed into nothing": it cannot change
    // results, so overriding it must not change the point's streams.
    if (key == "stats_window") continue;
    h = fnv1a("|" + key + "=" + json_num(value), h);
  }
  h = splitmix64(h ^ spec.config.seed);
  return splitmix64(h + load_index);
}

std::size_t threads_from_env() {
  // Digits only: negatives, signs, junk, and absurd counts all mean 0
  // (auto), never a wrapped-around astronomical worker count.
  const char* env = std::getenv("SF_THREADS");
  if (!env || !*env) return 0;
  for (const char* p = env; *p; ++p) {
    if (*p < '0' || *p > '9') return 0;
  }
  const unsigned long v = std::strtoul(env, nullptr, 10);
  return v > 4096 ? 0 : static_cast<std::size_t>(v);
}

ExperimentEngine::ExperimentEngine(std::size_t threads) {
  if (threads == 0) threads = threads_from_env();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_ = threads;
}

ExperimentEngine::~ExperimentEngine() = default;

std::size_t ExperimentEngine::threads() const { return threads_; }

void ExperimentEngine::for_indices(
    std::size_t n, std::size_t width,
    const std::function<void(std::size_t)>& body) {
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The pool is created on first parallel use, so single-threaded runs
  // never spawn a worker they won't use. It is resized when the schedule
  // narrows the across-point width (intra-point workers claiming part of
  // the budget) so the two levels never oversubscribe.
  if (!pool_ || pool_width_ != width) {
    pool_.reset();
    pool_ = std::make_unique<ThreadPool>(width);
    pool_width_ = width;
  }
  parallel_for_checked(*pool_, n, body);
}

std::pair<std::size_t, int> ExperimentEngine::schedule(
    std::size_t n_points, int /*requested_intra*/) const {
  // Wide grids keep every worker busy across points; narrow grids (fewer
  // points than workers — the paper-scale regime) split the budget evenly
  // so each concurrent point steps router-parallel with its share.
  if (n_points == 0 || n_points >= threads_) return {threads_, 1};
  return {n_points, static_cast<int>(threads_ / n_points)};
}

std::vector<RunResult> ExperimentEngine::run(const ExperimentSpec& spec,
                                             const ProgressFn& on_point) {
  // One shared, immutable Topology per distinct topology spec string, and
  // one shared distance oracle per distinct topology (SimConfig::oracle
  // picks the backend for the whole experiment). Run points only ever
  // read them.
  struct TopoEntry {
    std::string spec;
    std::unique_ptr<Topology> topo;
    bool needs_oracle = false;  ///< false when FT-ANCA alone rides it
    std::shared_ptr<const sim::DistanceOracle> oracle;
  };
  std::vector<TopoEntry> topos;
  std::unordered_map<std::string, std::size_t> topo_index;
  std::vector<std::size_t> series_topo;
  series_topo.reserve(spec.series.size());
  for (const auto& s : spec.series) {
    // Fail fast on unknown names and incompatible combinations using the
    // spec strings alone — before any topology or distance-table build
    // (minutes at paper scale). Routing typos throw from
    // routing_kind_from_string below. Traffic validation covers the full
    // parameterized grammar (burst:/hotspot:/allreduce:/trace:) without
    // touching the filesystem.
    try {
      sim::validate_traffic_spec(s.traffic);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("experiment \"" + spec.name + "\": " +
                                  e.what());
    }
    topo::validate_spec(s.topology);
    const std::string family = topo::parse_spec(s.topology).family;
    sim::RoutingKind kind = sim::parse_routing_spec(s.routing).kind;
    const std::string need = sim::routing_requirement(kind);
    if (!need.empty() && need != family) {
      throw std::invalid_argument("experiment \"" + spec.name +
                                  "\": routing " + s.routing +
                                  " cannot run on topology " + s.topology);
    }
    const std::string tneed = sim::traffic_requirement(s.traffic);
    if (!tneed.empty() && tneed != family) {
      throw std::invalid_argument("experiment \"" + spec.name +
                                  "\": traffic " + s.traffic +
                                  " cannot run on topology " + s.topology);
    }
    // Validate per-series overrides before any expensive build, too.
    apply_config_overrides(spec.config, s.config_overrides, false,
                           "experiment \"" + spec.name + "\" series \"" +
                               s.display_label() + "\"");
    auto [it, inserted] = topo_index.emplace(s.topology, topos.size());
    if (inserted) topos.push_back({s.topology, nullptr, false, nullptr});
    series_topo.push_back(it->second);
    // FT-ANCA needs no distances.
    if (kind != sim::RoutingKind::FatTreeAnca) {
      topos[it->second].needs_oracle = true;
    }
  }

  for_indices(topos.size(), threads_, [&](std::size_t i) {
    topos[i].topo = topo::make(topos[i].spec);
    if (topos[i].needs_oracle) {
      topos[i].oracle =
          sim::make_distance_oracle(*topos[i].topo, spec.config.oracle);
    }
  });

  std::vector<PreparedSeries> series_of(spec.series.size());
  for (std::size_t i = 0; i < spec.series.size(); ++i) {
    const TopoEntry& entry = topos[series_topo[i]];
    PreparedSeries& ps = series_of[i];
    ps.topo = entry.topo.get();
    ps.label = spec.series[i].display_label();
    ps.config_overrides = spec.series[i].config_overrides;
    // `dist` is null only when FT-ANCA alone rides the topology;
    // make_routing_spec ignores it for FT-ANCA either way.
    ps.make_routing = [routing = spec.series[i].routing,
                       topo = entry.topo.get(), dist = entry.oracle]() {
      auto bundle = sim::make_routing_spec(routing, *topo, dist);
      // The closure's `dist` copy outlives every point, so the algorithm's
      // reference into the shared oracle stays valid.
      return std::shared_ptr<sim::RoutingAlgorithm>(std::move(bundle.algorithm));
    };
    ps.make_traffic = [name = spec.series[i].traffic,
                       topo = entry.topo.get()]() {
      return sim::make_traffic(name, *topo);
    };
  }

  const std::size_t n_loads = spec.loads.size();
  const std::size_t n_points = spec.series.size() * n_loads;
  if (n_points == 0) return {};
  const std::pair<std::size_t, int> sched = schedule(n_points, 0);
  const std::size_t across = sched.first;
  const int intra = sched.second;
  const int max_team = static_cast<int>(threads_);
  std::mutex progress_mutex;
  auto run_point = [&](std::size_t s, std::size_t l,
                       const std::function<int()>& team_provider) {
    const PreparedSeries& series = series_of[s];
    sim::SimConfig cfg = spec.config;
    if (!series.config_overrides.empty()) {
      cfg = apply_config_overrides(cfg, series.config_overrides, false,
                                   "series \"" + series.label + "\"");
    }
    // Execution-only fields, applied after the overrides on purpose: the
    // runner owns how a point uses the machine, and neither field enters
    // point_seed, so results are unchanged. Every point is sharded at the
    // full worker budget, the finest granularity a grown team could use;
    // the live team size is whatever the provider says.
    cfg.intra_threads = max_team;
    cfg.team_provider = team_provider;
    cfg.seed = point_seed(spec, s, l);
    auto routing = series.make_routing();
    auto traffic = series.make_traffic();
    RunResult out;
    out.series_index = s;
    out.load = spec.loads[l];
    out.seed = cfg.seed;
    Timer timer;
    out.result = sim::simulate(*series.topo, *routing, *traffic, cfg,
                               spec.loads[l]);
    out.wall_seconds = timer.seconds();
    out.peak_rss_bytes = peak_rss_bytes();
    if (on_point) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      on_point(series, out);
    }
    return out;
  };

  // Per-series lowest load index already observed saturated: truncation
  // drops everything past it, so such points can be skipped outright
  // without changing the kept output (they're the slowest points, too —
  // saturated networks churn maximum traffic until the drain cap).
  std::vector<std::atomic<std::size_t>> first_saturated(spec.series.size());
  for (auto& f : first_saturated) f.store(n_loads, std::memory_order_relaxed);
  auto note_saturated = [&](std::size_t s, std::size_t l) {
    std::size_t seen = first_saturated[s].load(std::memory_order_relaxed);
    while (l < seen && !first_saturated[s].compare_exchange_weak(
                           seen, l, std::memory_order_relaxed)) {
    }
  };
  // Post-filter: keep each series' prefix up to and including its first
  // saturated point, so every schedule returns identical points.
  auto filter_truncated = [&](std::vector<RunResult>&& all) {
    std::vector<RunResult> kept;
    for (std::size_t s = 0; s < spec.series.size(); ++s) {
      for (std::size_t l = 0; l < n_loads; ++l) {
        kept.push_back(std::move(all[s * n_loads + l]));
        if (spec.truncate_at_saturation && kept.back().result.saturated) {
          break;
        }
      }
    }
    return kept;
  };

  // `across` runners claim chunks of consecutive points from one counter,
  // chunked exactly as parallel_for chunks an index range, so the points
  // that run together are the ones a fixed across/intra split would run
  // together (which keeps peak RSS at that split's). A point's team starts
  // at `intra`; once per simulated cycle its team provider claims workers
  // from `spares` up to the full budget. A runner that finds the grid
  // drained retires its `intra` workers into `spares`, and a finished point
  // returns what it claimed — so the tail of a grid (a few big points)
  // still fills the machine. `spares` counts permissions, not threads: the
  // claiming point's own Network supplies the extra stepping workers. At
  // width 1 the one runner walks the points inline in index order, so the
  // truncation skip never simulates past a series' saturation.
  const std::size_t chunks = std::min(n_points, 4 * across);
  const std::size_t per = (n_points + chunks - 1) / chunks;
  std::vector<RunResult> all(n_points);
  std::vector<std::exception_ptr> errors(n_points);
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<int> spares{max_team - static_cast<int>(across) * intra};
  for_indices(across, across, [&](std::size_t) {
    for (;;) {
      const std::size_t lo =
          next_chunk.fetch_add(1, std::memory_order_relaxed) * per;
      if (lo >= n_points) break;
      for (std::size_t i = lo; i < std::min(n_points, lo + per); ++i) {
        const std::size_t s = i / n_loads;
        const std::size_t l = i % n_loads;
        if (spec.truncate_at_saturation &&
            l > first_saturated[s].load(std::memory_order_relaxed)) {
          continue;  // guaranteed to be truncated; leave the slot empty
        }
        // Polled only by this point's step(), on this runner's thread.
        int claimed = 0;
        auto provider = [&spares, &claimed, intra, max_team]() {
          int team = intra + claimed;
          int avail = spares.load(std::memory_order_relaxed);
          while (team < max_team && avail > 0) {
            const int take = std::min(avail, max_team - team);
            if (spares.compare_exchange_weak(avail, avail - take,
                                             std::memory_order_relaxed)) {
              claimed += take;
              team += take;
            }
          }
          return team;
        };
        // A throwing point poisons only itself: the runner still hands its
        // claimed workers back and keeps claiming.
        try {
          all[i] = run_point(s, l, provider);
          if (all[i].result.saturated) note_saturated(s, l);
        } catch (...) {
          errors[i] = std::current_exception();
        }
        spares.fetch_add(claimed, std::memory_order_relaxed);
      }
    }
    spares.fetch_add(intra, std::memory_order_relaxed);
  });
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return filter_truncated(std::move(all));
}

Table to_table(const ExperimentSpec& spec,
               const std::vector<RunResult>& results) {
  Table table({"series", "offered", "latency", "net_latency", "accepted",
               "saturated"});
  for (const auto& r : results) {
    table.add_row({spec.series.at(r.series_index).display_label(),
                   Table::num(r.load, 2), Table::num(r.result.avg_latency, 1),
                   Table::num(r.result.avg_network_latency, 1),
                   Table::num(r.result.accepted_load, 3),
                   r.result.saturated ? "yes" : "no"});
  }
  return table;
}

void write_json(std::ostream& os, const ExperimentSpec& spec,
                const std::vector<RunResult>& results, std::size_t threads) {
  os << "{\n";
  os << "  \"experiment\": " << json::quote(spec.name) << ",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"config\": {\"warmup_cycles\": " << spec.config.warmup_cycles
     << ", \"measure_cycles\": " << spec.config.measure_cycles
     << ", \"drain_cycles\": " << spec.config.drain_cycles
     << ", \"num_vcs\": " << spec.config.num_vcs
     << ", \"buffer_per_port\": " << spec.config.buffer_per_port
     << ", \"stats_window\": " << spec.config.stats_window
     << ", \"seed\": " << spec.config.seed << "},\n";
  os << "  \"series\": [\n";
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    const SeriesSpec& series = spec.series[s];
    os << "    {\"label\": " << json::quote(series.display_label())
       << ", \"topology\": " << json::quote(series.topology)
       << ", \"routing\": " << json::quote(series.routing)
       << ", \"traffic\": " << json::quote(series.traffic)
       << ", \"points\": [\n";
    bool first = true;
    for (const auto& r : results) {
      if (r.series_index != s) continue;
      os << (first ? "" : ",\n");
      first = false;
      os << "      {\"load\": " << json_num(r.load) << ", \"seed\": " << r.seed
         << ", \"wall_seconds\": " << json_num(r.wall_seconds)
         << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
         << ", \"cycles\": " << r.result.cycles
         << ", \"mcycles_per_sec\": " << json_num(mcycles_per_sec(r))
         << ", \"latency\": " << json_num(r.result.avg_latency)
         << ", \"network_latency\": " << json_num(r.result.avg_network_latency)
         << ", \"p99_latency\": " << json_num(r.result.p99_latency)
         << ", \"accepted\": " << json_num(r.result.accepted_load)
         << ", \"delivered\": " << r.result.delivered
         << ", \"saturated\": " << (r.result.saturated ? "true" : "false");
      if (!r.result.windows.empty()) {
        // Compact per-window rows [generated, delivered, latency_sum,
        // dep_stalled_sends, dep_stall_cycles]; sweep diff ignores unknown
        // keys, so windowed runs stay comparable to older benches.
        os << ", \"stats_window\": " << r.result.stats_window
           << ", \"windows\": [";
        for (std::size_t w = 0; w < r.result.windows.size(); ++w) {
          const sim::WindowStats& ws = r.result.windows[w];
          os << (w ? ", " : "") << "[" << ws.generated << ", " << ws.delivered
             << ", " << ws.latency_sum << ", " << ws.dep_stalled_sends << ", "
             << ws.dep_stall_cycles << "]";
        }
        os << "]";
      }
      os << "}";
    }
    os << "\n    ]}" << (s + 1 < spec.series.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

std::string write_json_file(const ExperimentSpec& spec,
                            const std::vector<RunResult>& results,
                            std::size_t threads, const std::string& dir) {
  std::string path = dir + "/BENCH_" + spec.name + ".json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return "";
  }
  write_json(os, spec, results, threads);
  return path;
}

void write_csv(std::ostream& os, const ExperimentSpec& spec,
               const std::vector<RunResult>& results) {
  os << "label,topology,routing,traffic,load,seed,wall_seconds,"
        "peak_rss_bytes,cycles,"
        "mcycles_per_sec,latency,"
        "network_latency,p99_latency,accepted,delivered,saturated\n";
  for (const auto& r : results) {
    const SeriesSpec& s = spec.series.at(r.series_index);
    os << csv_field(s.display_label()) << ',' << csv_field(s.topology) << ','
       << csv_field(s.routing) << ',' << csv_field(s.traffic) << ','
       << json_num(r.load) << ',' << r.seed << ','
       << json_num(r.wall_seconds) << ',' << r.peak_rss_bytes << ','
       << r.result.cycles << ','
       << json_num(mcycles_per_sec(r)) << ','
       << json_num(r.result.avg_latency)
       << ',' << json_num(r.result.avg_network_latency) << ','
       << json_num(r.result.p99_latency) << ','
       << json_num(r.result.accepted_load) << ',' << r.result.delivered << ','
       << (r.result.saturated ? "yes" : "no") << '\n';
  }
}

std::string write_csv_file(const ExperimentSpec& spec,
                           const std::vector<RunResult>& results,
                           const std::string& dir) {
  std::string path = dir + "/BENCH_" + spec.name + ".csv";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return "";
  }
  write_csv(os, spec, results);
  return path;
}

}  // namespace slimfly::exp
