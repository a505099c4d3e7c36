// Generic spec-driven sweep driver: any (topology x routing x traffic x
// load) scenario from the command line or a suite file, no new binary
// required.
//
//   sweep --topo torus:dims=8x8x8 --traffic stencil3d
//   sweep --topo slimfly:q=7 --topo hypercube:n=9
//         --routing MIN --routing UGAL-L:c=8 --traffic uniform --loads 0.2,0.5
//   sweep --config examples/suites/fig06a.json --scale small
//   sweep --name t --topo slimfly:q=5 --emit-config t.json   # export, no run
//   sweep diff tests/golden/BENCH_golden_mini.json BENCH_golden_mini.json
//   sweep diff --against HEAD~1 tests/golden/BENCH_golden_mini.json   # old side from git
//   sweep --list
//
// Axes repeat; the engine runs the compatible cross-product over all cores
// (SF_THREADS to override) and writes BENCH_<name>.json. The spec-string
// grammar and the suite-file schema are documented in docs/SPEC_GRAMMAR.md.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "exp/diff.hpp"
#include "exp/suite.hpp"
#include "util/spec.hpp"

namespace {

// Each load must parse in full; the range and the ascending order are the
// suite loader's (exp::check_loads).
std::vector<double> parse_loads(const std::string& csv) {
  std::vector<double> loads;
  std::stringstream ss(csv);
  std::string part;
  while (std::getline(ss, part, ',')) {
    char* end = nullptr;
    const double v = std::strtod(part.c_str(), &end);
    if (part.empty() || end != part.c_str() + part.size()) {
      throw std::invalid_argument("malformed load \"" + part +
                                  "\" in --loads (want a number)");
    }
    loads.push_back(v);
  }
  return slimfly::exp::check_loads(std::move(loads), "--loads");
}

void print_registries() {
  using namespace slimfly;
  std::cout << "topologies (topo::make specs):\n";
  for (const auto& spec : topo::example_specs())
    std::cout << "  " << spec << "  (family " << topo::validate_spec(spec)
              << ")\n";
  std::cout << "routings:\n ";
  for (const auto& name : sim::routing_names()) std::cout << " " << name;
  std::cout << "\n  (UGAL-L/UGAL-G take :c=<1..64>, VAL takes"
               " :hoplimit=<1..255>)\n";
  std::cout << "traffics:\n ";
  for (const auto& name : sim::traffic_names()) std::cout << " " << name;
  std::cout << "\n  parameterized workloads (docs/SPEC_GRAMMAR.md):\n"
               "    burst:on=,off=,mult=[,seed=][,base=]\n"
               "    hotspot:frac=,heat=[,seed=][,base=]\n"
               "    allreduce:ranks=[,algo=ring|tree]\n"
               "    trace:file=PATH.json\n";
}

int usage(const char* argv0, int exit_code) {
  std::cout
      << "usage: " << argv0
      << " [--name TAG] [--topo SPEC]... [--routing SPEC]...\n"
         "       [--traffic NAME]... [--loads L1,L2,...] [--seed N]\n"
         "       [--no-truncate] [--list]\n"
         "       [--help]\n"
         "   or: " << argv0
      << " --config SUITE.json [--scale NAME] [--name TAG]\n"
         "       [--seed N] [--no-truncate]\n"
         "   or: " << argv0
      << " ... --emit-config PATH   (write the suite JSON, run nothing;\n"
         "       PATH \"-\" = stdout)\n"
         "   or: " << argv0
      << " diff A.json B.json [--verbose]\n"
         "   or: " << argv0
      << " diff --against GIT-REV B.json   (A = GIT-REV's version of B's\n"
         "       path, via `git show`; compares history against the tree)\n"
         "defaults: the Section V evaluation trio, MIN routing, uniform\n"
         "traffic, the Figure 6 load grid, SF_BENCH_SCALE-dependent cycles.\n"
         "--config: run a suite file (checked-in suites: examples/suites/);\n"
         "  --scale picks one of its named scales (default: SF_BENCH_SCALE\n"
         "  when the suite declares it, else the suite's own default).\n"
         "diff: join two BENCH_*.json trajectories on run-point identity\n"
         "  and exit 1 on any result field that is not exactly equal, or\n"
         "  a point on one side only (wall time and RSS are never gated).\n"
         "Every point steps the active set: quiet routers are skipped and\n"
         "  idle stretches fast-forwarded, with the results of stepping\n"
         "  every router every cycle.\n"
         "The distance oracle is picked per topology: the dense BFS table\n"
         "  up to 4096 routers (cheapest to query), the per-family oracle\n"
         "  beyond (no O(N^2) table). Bit-identical results either way.\n"
         "The engine splits its workers itself: one point per worker on\n"
         "  a wide grid, an even share per point on a narrow one, and\n"
         "  workers freed at the tail of a grid join the points still\n"
         "  running. Bit-identical results for every split.\n"
         "env: SF_THREADS (the worker budget, 0/unset = all cores),\n"
         "  SF_BENCH_SCALE (small|paper).\n"
         "Spec-string grammar and suite schema: docs/SPEC_GRAMMAR.md;\n"
         "paper->code map and engine internals: docs/ARCHITECTURE.md;\n"
         "sanitizer presets, linter, determinism tooling: "
         "docs/CORRECTNESS.md.\n";
  return exit_code;
}

// `git show REV:./PATH` through a pipe — the old side of `diff --against`.
// REV and PATH are embedded in a shell command line, so both are
// whitelist-validated first; PATH is additionally anchored to the
// repository-relative form (the leading "./" makes git resolve it against
// the current directory, and absolute paths are rejected outright).
std::string git_show_file(const std::string& rev, const std::string& path) {
  auto ok_chars = [](const std::string& s, const char* extra) {
    for (char c : s) {
      if (std::isalnum(static_cast<unsigned char>(c))) continue;
      if (std::strchr(extra, c)) continue;
      return false;
    }
    return !s.empty();
  };
  if (!ok_chars(rev, "._/^~@-") || rev.front() == '-') {
    throw std::invalid_argument("malformed --against revision \"" + rev +
                                "\" (want a git rev: letters, digits, "
                                "._/^~@-)");
  }
  if (!ok_chars(path, "._/-") || path.front() == '/' ||
      path.find("..") != std::string::npos) {
    throw std::invalid_argument("malformed path \"" + path +
                                "\" for --against (want a relative path)");
  }
  const std::string cmd =
      "git show '" + rev + ":./" + path + "' 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) throw std::runtime_error("cannot run git show");
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) text.append(buf, n);
  const int status = pclose(pipe);
  if (status != 0) {
    throw std::runtime_error("git show " + rev + ":./" + path +
                             " failed (unknown revision, or the file does "
                             "not exist at that revision?)");
  }
  return text;
}

int run_diff(int argc, char** argv) {
  using namespace slimfly;
  std::vector<std::string> files;
  std::string against;
  bool verbose = false;
  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--against")) {
      against = next_arg(i);
    } else if (!std::strcmp(argv[i], "--verbose")) {
      verbose = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0], 2);
    } else {
      files.push_back(argv[i]);
    }
  }
  exp::Trajectory a, b;
  std::string a_name;
  if (!against.empty()) {
    // Historical mode: the old side comes out of git, the new side is the
    // working-tree file at the same repository-relative path.
    if (files.size() != 1) {
      std::cerr << "error: diff --against needs exactly one BENCH_*.json "
                   "file (the working-tree side; the old side is read from "
                   "git at " << against << ")\n";
      return 2;
    }
    a_name = against + ":" + files[0];
    a = exp::parse_bench_json(git_show_file(against, files[0]), a_name);
    b = exp::load_bench_file(files[0]);
  } else {
    if (files.size() != 2) {
      std::cerr << "error: diff needs exactly two BENCH_*.json files "
                   "(or one file with --against GIT-REV)\n";
      return 2;
    }
    a_name = files[0];
    a = exp::load_bench_file(files[0]);
    b = exp::load_bench_file(files[1]);
  }
  std::cout << "diff " << a_name << " (" << a.points.size() << " points) vs "
            << files.back() << " (" << b.points.size() << " points)\n";
  exp::DiffReport report = exp::diff_trajectories(a, b);
  exp::print_diff(std::cout, report, verbose);
  return report.passed ? 0 : 1;
}

// Runs a spec on the engine, prints the table + CSV, writes
// BENCH_<spec.name>.json and .csv, and reports points/threads/wall time.
// `threads` 0 defers to SF_THREADS / hardware (the engine's own policy).
void run_experiment(const slimfly::exp::ExperimentSpec& spec,
                    std::size_t threads) {
  using namespace slimfly;
  exp::ExperimentEngine engine(threads);
  // Host shape + resolved worker split, so every BENCH log records how the
  // machine was used (execution-only: results never depend on it).
  const auto sched =
      engine.schedule(spec.series.size() * spec.loads.size(), 0);
  std::cout << "[host] hardware_concurrency="
            << std::thread::hardware_concurrency()
            << " engine_threads=" << engine.threads()
            << " across=" << sched.first << " intra=" << sched.second
            << "\n"
            << std::flush;
  Timer timer;
  // Progress heartbeat: paper-scale runs take hours. Saturated points may
  // be dropped from the final table/JSON when the spec truncates at
  // saturation, hence the marker: more "done" lines than kept points is
  // expected in parallel runs.
  auto results = engine.run(
      spec, [&spec](const exp::PreparedSeries& series,
                    const exp::RunResult& point) {
        std::cout << "  [" << spec.name << "] " << series.label << " @ "
                  << Table::num(point.load, 2) << " done ("
                  << Table::num(point.wall_seconds, 1) << "s)"
                  << (point.result.saturated ? " [saturated]" : "") << "\n"
                  << std::flush;
      });
  const double wall = timer.seconds();
  bench::print_table(spec.name, "command-line sweep",
                     exp::to_table(spec, results));
  const std::string json =
      exp::write_json_file(spec, results, engine.threads());
  const std::string csv = exp::write_csv_file(spec, results);
  std::cout << "[" << spec.name << "] " << results.size() << " points kept on "
            << engine.threads() << " threads in " << Table::num(wall, 2)
            << "s" << (json.empty() ? "" : ", wrote " + json)
            << (csv.empty() ? "" : " + " + csv) << "\n"
            << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slimfly;

  if (argc > 1 && !std::strcmp(argv[1], "diff")) {
    try {
      return run_diff(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::string name;
  std::vector<std::string> topos, routings, traffics;
  std::vector<double> loads;
  std::string config_path, scale, emit_path;
  std::optional<std::uint64_t> seed;
  bool truncate = true, truncate_flag = false;

  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--list")) {
        print_registries();
        return 0;
      } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
        return usage(argv[0], 0);
      } else if (!std::strcmp(argv[i], "--name")) {
        name = next_arg(i);
      } else if (!std::strcmp(argv[i], "--topo")) {
        topos.push_back(next_arg(i));
      } else if (!std::strcmp(argv[i], "--routing")) {
        routings.push_back(next_arg(i));
      } else if (!std::strcmp(argv[i], "--traffic")) {
        traffics.push_back(next_arg(i));
      } else if (!std::strcmp(argv[i], "--loads")) {
        loads = parse_loads(next_arg(i));
      } else if (!std::strcmp(argv[i], "--config")) {
        config_path = next_arg(i);
      } else if (!std::strcmp(argv[i], "--scale")) {
        scale = next_arg(i);
      } else if (!std::strcmp(argv[i], "--emit-config")) {
        emit_path = next_arg(i);
      } else if (!std::strcmp(argv[i], "--seed")) {
        seed = spec::read_seed(next_arg(i), "--seed");
      } else if (!std::strcmp(argv[i], "--no-truncate")) {
        truncate = false;
        truncate_flag = true;
      } else {
        return usage(argv[0], 2);
      }
    }

    exp::ExperimentSpec spec;
    std::size_t threads_hint = 0;
    if (!config_path.empty()) {
      if (!topos.empty() || !routings.empty() || !traffics.empty() ||
          !loads.empty()) {
        throw std::invalid_argument(
            "--config cannot be combined with --topo/--routing/--traffic/"
            "--loads (use --emit-config to turn a CLI invocation into a "
            "suite file and edit that)");
      }
      exp::Suite suite = exp::load_suite_file(config_path);
      // Scale precedence: --scale flag, then SF_BENCH_SCALE when the suite
      // declares that scale, then the suite's own default.
      if (scale.empty()) {
        const char* env = std::getenv("SF_BENCH_SCALE");
        if (env && *env && suite.scales.count(env)) scale = env;
      }
      spec = exp::suite_to_spec(suite, scale);
      threads_hint = suite.threads;
      if (!name.empty()) spec.name = name;
      if (truncate_flag) spec.truncate_at_saturation = truncate;
    } else {
      if (!scale.empty()) {
        throw std::invalid_argument("--scale requires --config");
      }
      if (topos.empty()) topos = bench::eval_trio_specs();
      if (routings.empty()) routings = {"MIN"};
      if (traffics.empty()) traffics = {"uniform"};
      if (loads.empty()) loads = bench::bench_loads();
      spec = exp::ExperimentSpec::cross(name.empty() ? "sweep" : name, topos,
                                        routings, traffics, loads,
                                        bench::make_sim_config());
      spec.truncate_at_saturation = truncate;
    }
    if (seed) spec.config.seed = *seed;
    if (spec.series.empty()) {
      std::cerr << "no compatible (topology, routing, traffic) combination\n";
      return 1;
    }

    if (!emit_path.empty()) {
      const std::string text =
          exp::serialize_suite(exp::suite_from_spec(spec, threads_hint));
      if (emit_path == "-") {
        std::cout << text;
      } else {
        std::ofstream os(emit_path);
        if (!os) {
          throw std::invalid_argument("cannot write \"" + emit_path + "\"");
        }
        os << text;
        std::cout << "wrote " << emit_path << " (" << spec.series.size()
                  << " series x " << spec.loads.size() << " loads)\n";
      }
      return 0;
    }

    // Across-point worker precedence: SF_THREADS env, then the suite's
    // hint, then all hardware threads (the engine's own fallback).
    std::size_t threads = exp::threads_from_env();
    if (threads == 0) threads = threads_hint;
    run_experiment(spec, threads);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
