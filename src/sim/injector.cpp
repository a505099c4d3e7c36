#include "sim/injector.hpp"

namespace slimfly::sim {

namespace {
// Distinguishes endpoint streams from the router streams seeded in
// Network::wire() under the same base seed.
constexpr std::uint64_t kEndpointStreamTag = 0x9d5c7f2b;
}  // namespace

void Injector::init(int num_endpoints, int initial_credits,
                    std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(num_endpoints);
  source_queue_.clear();
  source_queue_.resize(n);
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
