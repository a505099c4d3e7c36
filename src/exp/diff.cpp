#include "exp/diff.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exp/json.hpp"

namespace slimfly::exp {
namespace {

std::string json_num(double v) { return json::number(v); }

double number_field(const json::Value& obj, const char* key,
                    const std::string& context) {
  const json::Value* v = obj.find(key);
  if (!v) {
    throw std::invalid_argument(context + ": missing \"" + key + "\"");
  }
  return v->as_number(context + "." + key);
}

}  // namespace

std::string TrajectoryPoint::key() const {
  return (label.empty() ? topology + "|" + routing + "|" + traffic : label) +
         " @ " + json_num(load);
}

Trajectory parse_bench_json(const std::string& text,
                            const std::string& origin) {
  const std::string ctx = origin.empty() ? "bench json" : origin;
  json::Value root = json::parse(text, origin);
  if (!root.is_object()) {
    throw std::invalid_argument(ctx + ": expected a BENCH object at top level");
  }
  Trajectory out;
  if (const json::Value* v = root.find("experiment")) {
    out.experiment = v->as_string(ctx + ".experiment");
  }
  const json::Value* series = root.find("series");
  if (!series) {
    throw std::invalid_argument(ctx + ": missing \"series\" array");
  }
  std::unordered_set<std::string> seen;
  const auto& items = series->as_array(ctx + ".series");
  for (std::size_t s = 0; s < items.size(); ++s) {
    const std::string sctx = ctx + ".series[" + std::to_string(s) + "]";
    const json::Value& entry = items[s];
    entry.as_object(sctx);
    TrajectoryPoint base;
    if (const json::Value* v = entry.find("label")) {
      base.label = v->as_string(sctx + ".label");
    }
    if (const json::Value* v = entry.find("topology")) {
      base.topology = v->as_string(sctx + ".topology");
    }
    if (const json::Value* v = entry.find("routing")) {
      base.routing = v->as_string(sctx + ".routing");
    }
    if (const json::Value* v = entry.find("traffic")) {
      base.traffic = v->as_string(sctx + ".traffic");
    }
    const json::Value* points = entry.find("points");
    if (!points) {
      throw std::invalid_argument(sctx + ": missing \"points\" array");
    }
    const auto& pitems = points->as_array(sctx + ".points");
    for (std::size_t p = 0; p < pitems.size(); ++p) {
      const std::string pctx = sctx + ".points[" + std::to_string(p) + "]";
      const json::Value& pv = pitems[p];
      pv.as_object(pctx);
      TrajectoryPoint point = base;
      point.load = number_field(pv, "load", pctx);
      // From here on errors also carry the run-point identity, so a missing
      // field names the point a reader would look for, not only its index.
      const std::string where = pctx + " (" + point.key() + ")";
      const json::Value* seed = pv.find("seed");
      if (!seed) throw std::invalid_argument(where + ": missing \"seed\"");
      point.seed = seed->as_uint64(where + ".seed");
      if (const json::Value* v = pv.find("wall_seconds")) {
        point.wall_seconds = v->as_number(where + ".wall_seconds");
      }
      if (const json::Value* v = pv.find("peak_rss_bytes")) {
        point.peak_rss_bytes = v->as_uint64(where + ".peak_rss_bytes");
      }
      point.cycles =
          static_cast<std::int64_t>(number_field(pv, "cycles", where));
      point.latency = number_field(pv, "latency", where);
      point.network_latency = number_field(pv, "network_latency", where);
      point.p99_latency = number_field(pv, "p99_latency", where);
      point.accepted = number_field(pv, "accepted", where);
      point.delivered =
          static_cast<std::int64_t>(number_field(pv, "delivered", where));
      const json::Value* saturated = pv.find("saturated");
      if (!saturated) {
        throw std::invalid_argument(where + ": missing \"saturated\"");
      }
      point.saturated = saturated->as_bool(where + ".saturated");
      if (!seen.insert(point.key()).second) {
        throw std::invalid_argument(ctx + ": duplicate run-point identity \"" +
                                    point.key() +
                                    "\" (labels must disambiguate series)");
      }
      out.points.push_back(std::move(point));
    }
  }
  return out;
}

Trajectory load_bench_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::invalid_argument("cannot read BENCH file \"" + path + "\"");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_bench_json(buffer.str(), path);
}

Trajectory trajectory_of(const ExperimentSpec& spec,
                         const std::vector<RunResult>& results) {
  Trajectory out;
  out.experiment = spec.name;
  for (const RunResult& r : results) {
    const SeriesSpec& s = spec.series.at(r.series_index);
    TrajectoryPoint point;
    point.label = s.display_label();
    point.topology = s.topology;
    point.routing = s.routing;
    point.traffic = s.traffic;
    point.load = r.load;
    point.seed = r.seed;
    point.wall_seconds = r.wall_seconds;
    point.peak_rss_bytes = r.peak_rss_bytes;
    point.cycles = r.result.cycles;
    point.latency = r.result.avg_latency;
    point.network_latency = r.result.avg_network_latency;
    point.p99_latency = r.result.p99_latency;
    point.accepted = r.result.accepted_load;
    point.delivered = r.result.delivered;
    point.saturated = r.result.saturated;
    out.points.push_back(std::move(point));
  }
  return out;
}

DiffReport diff_trajectories(const Trajectory& a, const Trajectory& b) {
  DiffReport report;
  std::unordered_map<std::string, const TrajectoryPoint*> b_index;
  for (const TrajectoryPoint& point : b.points) {
    b_index.emplace(point.key(), &point);
  }
  std::unordered_set<std::string> joined;
  for (const TrajectoryPoint& pa : a.points) {
    auto it = b_index.find(pa.key());
    if (it == b_index.end()) {
      report.only_in_a.push_back(pa.key());
      continue;
    }
    const TrajectoryPoint& pb = *it->second;
    joined.insert(pa.key());
    PointDelta delta;
    delta.key = pa.key();
    delta.wall_a = pa.wall_seconds;
    delta.wall_b = pb.wall_seconds;
    delta.rss_a = pa.peak_rss_bytes;
    delta.rss_b = pb.peak_rss_bytes;
    delta.metrics = {
        {"latency", pa.latency, pb.latency, false},
        {"network_latency", pa.network_latency, pb.network_latency, false},
        {"p99_latency", pa.p99_latency, pb.p99_latency, false},
        {"accepted", pa.accepted, pb.accepted, false},
        {"delivered", static_cast<double>(pa.delivered),
         static_cast<double>(pb.delivered), false},
        {"cycles", static_cast<double>(pa.cycles),
         static_cast<double>(pb.cycles), false},
    };
    for (MetricDelta& metric : delta.metrics) {
      metric.differs = metric.a != metric.b;
      if (metric.differs) delta.differs = true;
    }
    delta.seed_mismatch = pa.seed != pb.seed;
    delta.saturated_flip = pa.saturated != pb.saturated;
    if (delta.seed_mismatch || delta.saturated_flip) delta.differs = true;
    if (delta.differs) ++report.regressions;
    ++report.compared;
    report.points.push_back(std::move(delta));
  }
  for (const TrajectoryPoint& pb : b.points) {
    if (joined.find(pb.key()) == joined.end()) {
      report.only_in_b.push_back(pb.key());
    }
  }
  report.passed = report.regressions == 0 && report.only_in_a.empty() &&
                  report.only_in_b.empty() && report.compared > 0;
  return report;
}

void print_diff(std::ostream& os, const DiffReport& report, bool verbose) {
  double wall_a = 0.0, wall_b = 0.0;
  for (const PointDelta& delta : report.points) {
    wall_a += delta.wall_a;
    wall_b += delta.wall_b;
    if (!delta.differs && !verbose) continue;
    os << (delta.differs ? "FAIL " : "ok   ") << delta.key << "\n";
    for (const MetricDelta& metric : delta.metrics) {
      if (!metric.differs && !verbose) continue;
      os << "       " << metric.name << ": " << json_num(metric.a) << " -> "
         << json_num(metric.b) << " (delta " << json_num(metric.b - metric.a)
         << (metric.differs ? ", DIFFERS)" : ")") << "\n";
    }
    if (delta.seed_mismatch) {
      os << "       seed differs (not the same experiment)\n";
    }
    if (delta.saturated_flip) os << "       saturated flag flipped\n";
    if (verbose || delta.differs) {
      os << "       wall: " << json_num(delta.wall_a) << "s -> "
         << json_num(delta.wall_b) << "s (informational)\n";
      if (delta.rss_a != 0 || delta.rss_b != 0) {
        os << "       peak_rss: " << delta.rss_a << " -> " << delta.rss_b
           << " bytes (informational)\n";
      }
    }
  }
  for (const std::string& key : report.only_in_a) {
    os << "MISSING in B: " << key << "\n";
  }
  for (const std::string& key : report.only_in_b) {
    os << "MISSING in A: " << key << "\n";
  }
  os << "compared " << report.compared << " points: " << report.regressions
     << " differ, " << report.only_in_a.size() << " only in A, "
     << report.only_in_b.size() << " only in B; total wall "
     << json_num(wall_a) << "s -> " << json_num(wall_b)
     << "s (not gated)\n";
  os << (report.passed ? "PASS" : "FAIL") << "\n";
}

std::size_t preserve_wall_seconds(const Trajectory& prior,
                                  const ExperimentSpec& spec,
                                  std::vector<RunResult>& results) {
  std::unordered_map<std::string, std::pair<double, std::uint64_t>> prior_wall;
  for (const TrajectoryPoint& point : prior.points) {
    prior_wall.emplace(point.key(),
                       std::make_pair(point.wall_seconds, point.peak_rss_bytes));
  }
  std::size_t patched = 0;
  for (RunResult& r : results) {
    TrajectoryPoint key_point;
    key_point.label = spec.series.at(r.series_index).display_label();
    key_point.topology = spec.series.at(r.series_index).topology;
    key_point.routing = spec.series.at(r.series_index).routing;
    key_point.traffic = spec.series.at(r.series_index).traffic;
    key_point.load = r.load;
    auto it = prior_wall.find(key_point.key());
    if (it == prior_wall.end()) continue;
    r.wall_seconds = it->second.first;
    // A prior file predating peak_rss_bytes parses as 0 — keep the fresh
    // measurement so the field appears on first regeneration.
    if (it->second.second > 0) r.peak_rss_bytes = it->second.second;
    ++patched;
  }
  return patched;
}

}  // namespace slimfly::exp
