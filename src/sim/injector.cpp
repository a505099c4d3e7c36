#include "sim/injector.hpp"

namespace slimfly::sim {

namespace {
// Tags the endpoint streams derived from the base seed. The value is part
// of every endpoint's seed, so changing it would re-seed every run.
constexpr std::uint64_t kEndpointStreamTag = 0x9d5c7f2b;
}  // namespace

void Injector::init(int num_endpoints, int initial_credits,
                    std::uint64_t seed, std::size_t queue_capacity) {
  const auto n = static_cast<std::size_t>(num_endpoints);
  source_queue_.clear();
  source_queue_.resize(n);
  for (auto& queue : source_queue_) queue.reset(queue_capacity);
  credits_.assign(n, initial_credits);
  rng_.assign(n, Rng{});
  next_seq_.assign(n, 0);
  next_arrival_.assign(n, -1);
  for (int e = 0; e < num_endpoints; ++e) {
    rng_[static_cast<std::size_t>(e)] =
        rng_stream(seed, kEndpointStreamTag, static_cast<std::uint64_t>(e));
  }
}

}  // namespace slimfly::sim
