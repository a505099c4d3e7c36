#pragma once
// Measurement collection: packet latency statistics and accepted throughput
// over the measurement window (warmup -> measure -> drain methodology).

#include <cstdint>
#include <vector>

namespace slimfly::sim {

class Stats {
 public:
  /// `latency` counts from generation (includes source queueing);
  /// `network_latency` from injection into the source router.
  void record_delivery(std::int64_t latency, std::int64_t network_latency,
                       bool measured);

  /// Absorbs another accumulator (per-shard collection during
  /// router-parallel stepping). Every consumer of the merged latency pool
  /// is order-independent — integer sums, sorted percentiles, max — so the
  /// merged result is bit-identical no matter how deliveries were sharded.
  void merge(const Stats& other);

  void set_measured_generated(std::int64_t count) { measured_generated_ = count; }
  std::int64_t measured_generated() const { return measured_generated_; }
  std::int64_t measured_delivered() const { return measured_delivered_; }
  std::int64_t total_delivered() const { return total_delivered_; }

  double average_latency() const;
  double average_network_latency() const;
  double percentile_latency(double p) const;  ///< p in (0, 1]

  bool all_measured_delivered() const {
    return measured_delivered_ >= measured_generated_;
  }

  /// Pre-reserves the latency pool (see Network::reserve_measurement_stats:
  /// makes the measurement phase allocation-free when the caller can afford
  /// the upper-bound reservation).
  void reserve(std::size_t samples) { latencies_.reserve(samples); }

 private:
  std::vector<std::int64_t> latencies_;  // measured packets only
  std::int64_t network_latency_sum_ = 0;  // measured packets only
  std::int64_t measured_generated_ = 0;
  std::int64_t measured_delivered_ = 0;
  std::int64_t total_delivered_ = 0;
};

/// One windowed-stats bucket (SimConfig::stats_window cycles wide): the
/// time-resolved view of a run. Counters are plain integer sums over the
/// window, so per-shard rows merge by elementwise addition and the merged
/// result is bit-identical for any sharding. Windows are indexed by
/// cycle / W from cycle 0 (warmup included — phase boundaries land on
/// window boundaries when W divides the phase lengths).
struct WindowStats {
  std::int64_t generated = 0;  ///< packets created in the window
  std::int64_t delivered = 0;  ///< packets ejected in the window
  /// Sum of generation→ejection latencies of the window's deliveries.
  std::int64_t latency_sum = 0;
  /// Self-clocked replay only: sends whose dependency (`after:` edge) held
  /// them past FIFO readiness, and the total cycles so spent. Independent
  /// injection patterns have no dependencies and always report 0 — a
  /// nonzero column is the signature of request→reply causality.
  std::int64_t dep_stalled_sends = 0;
  std::int64_t dep_stall_cycles = 0;

  void merge(const WindowStats& other) {
    generated += other.generated;
    delivered += other.delivered;
    latency_sum += other.latency_sum;
    dep_stalled_sends += other.dep_stalled_sends;
    dep_stall_cycles += other.dep_stall_cycles;
  }
};

/// Result of one (topology, routing, traffic, load) simulation point.
struct SimResult {
  double offered_load = 0.0;    ///< flits/cycle/endpoint offered
  double accepted_load = 0.0;   ///< measured flits delivered / (endpoints*cycles)
  double avg_latency = 0.0;         ///< generation -> ejection
  double avg_network_latency = 0.0; ///< injection -> ejection (Figure 8a metric)
  double p99_latency = 0.0;
  bool saturated = false;       ///< drain incomplete or latency beyond cap
  std::int64_t delivered = 0;
  /// Cycles actually simulated (warmup + measurement + drain used) — the
  /// deterministic numerator of the per-point throughput trajectory.
  std::int64_t cycles = 0;
  /// Cycles the Network actually executed (phases run). It fast-forwards
  /// globally-idle stretches, so `cycles - cycles_stepped` is the audited
  /// skipped-cycle count (the benchmark's per-layer trace reports both).
  std::int64_t cycles_stepped = 0;
  /// Crossbar traversals granted over the whole run (one per packet per
  /// router hop); flit_hops / wall time is the hot path's work rate.
  std::int64_t flit_hops = 0;
  /// Window width the run collected with (0 = windowed stats disabled).
  std::int64_t stats_window = 0;
  /// Per-window rows (empty unless stats_window > 0), already merged across
  /// shards and trimmed to the cycles the run actually executed.
  std::vector<WindowStats> windows;
};

}  // namespace slimfly::sim
