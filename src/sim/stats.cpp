#include "sim/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace slimfly::sim {

/* SF_HOT */ void Stats::record_delivery(std::int64_t latency, std::int64_t network_latency,
                            bool measured) {
  ++total_delivered_;
  if (measured) {
    ++measured_delivered_;
    latencies_.push_back(latency);  // sf-lint: allow(hot-alloc) amortized pool growth; reserve_measurement_stats() opt-in makes the guarded path allocation-free
    network_latency_sum_ += network_latency;
  }
}

void Stats::merge(const Stats& other) {
  latencies_.insert(latencies_.end(), other.latencies_.begin(),
                    other.latencies_.end());
  network_latency_sum_ += other.network_latency_sum_;
  measured_generated_ += other.measured_generated_;
  measured_delivered_ += other.measured_delivered_;
  total_delivered_ += other.total_delivered_;
}

double Stats::average_network_latency() const {
  if (measured_delivered_ == 0) return 0.0;
  return static_cast<double>(network_latency_sum_) /
         static_cast<double>(measured_delivered_);
}

double Stats::average_latency() const {
  if (latencies_.empty()) return 0.0;
  std::int64_t sum = 0;
  for (std::int64_t l : latencies_) sum += l;
  return static_cast<double>(sum) / static_cast<double>(latencies_.size());
}

double Stats::percentile_latency(double p) const {
  if (latencies_.empty()) return 0.0;
  if (p <= 0.0 || p > 1.0) throw std::invalid_argument("percentile_latency: bad p");
  std::vector<std::int64_t> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return static_cast<double>(sorted[idx]);
}

}  // namespace slimfly::sim
