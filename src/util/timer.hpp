#pragma once
// Wall-clock stopwatch used by benches and examples. This is the repo's one
// sanctioned wall-clock reader: its output only ever feeds wall_seconds /
// throughput reporting, which the diff gate explicitly never compares.
// Hence the sf-lint rng-rule waivers below — everything else must not read
// the clock at all (see docs/CORRECTNESS.md).

#include <chrono>

namespace slimfly {

class Timer {
 public:
  Timer() : start_(clock::now()) {}  // sf-lint: allow(rng) sanctioned stopwatch; feeds only ungated wall_seconds

  void reset() { start_ = clock::now(); }  // sf-lint: allow(rng) sanctioned stopwatch; feeds only ungated wall_seconds

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_)  // sf-lint: allow(rng) sanctioned stopwatch; feeds only ungated wall_seconds
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace slimfly
