#pragma once
// Small, fast, reproducible random number generator (PCG32).
//
// The cycle simulator draws millions of random numbers per run; std::mt19937
// is larger and slower than needed and its seeding is awkward to make
// reproducible across platforms. PCG32 has a 64-bit state, passes BigCrush,
// and produces an identical stream everywhere, which keeps simulation
// results and tests deterministic.

#include <cstdint>

// Compiler-level backstop for the scripts/sf_lint.py `rng` rule (see
// docs/CORRECTNESS.md): with SF_FORBID_GLOBAL_RNG defined (the slimfly
// CMake target defines it PUBLIC, so every in-repo TU gets it), any use of
// the global C RNG entry points is a hard compile error. GCC's poison
// pragma does not exempt system headers, so the headers that *mention*
// these identifiers (declarations in <cstdlib>/<stdlib.h>, std::rand inside
// <algorithm>'s random_shuffle) are included first — their guards make any
// later include a no-op, leaving only in-repo uses to trip the poison.
#if defined(SF_FORBID_GLOBAL_RNG) && defined(__GNUC__)
#include <algorithm>
#include <cstdlib>
#include <stdlib.h>
namespace slimfly {
/// static_assert-backed witness that the global-RNG ban is active in this
/// translation unit; referenced by tests to prove the macro reaches every
/// dependent target.
inline constexpr bool kGlobalRngForbidden = true;
static_assert(kGlobalRngForbidden,
              "SF_FORBID_GLOBAL_RNG is defined but the guard is inactive");
}  // namespace slimfly
#pragma GCC poison rand srand rand_r drand48 srand48 lrand48 mrand48
#endif

namespace slimfly {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL)
      : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += seed;
    next_u32();
  }

  /// Uniform 32-bit value.
  std::uint32_t next_u32() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform value in [0, bound) without modulo bias. The rejection
  /// threshold is < bound, so a draw >= bound is always accepted — the
  /// overwhelmingly common case pays one modulo instead of two. Draw
  /// sequence and results are identical to the classic two-modulo form.
  std::uint32_t next_below(std::uint32_t bound) {
    if (bound <= 1) return 0;
    std::uint32_t r = next_u32();
    if (r >= bound) return r % bound;
    std::uint32_t threshold = (0u - bound) % bound;
    for (;;) {
      if (r >= threshold) return r % bound;
      r = next_u32();
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int next_int(int lo, int hi) {
    return lo + static_cast<int>(next_below(static_cast<std::uint32_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return (next_u32() >> 8) * (1.0 / 16777216.0);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return next_double() < p; }

  // Interface required by std::shuffle and friends.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  result_type operator()() { return next_u32(); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix used to derive
/// independent seeds (per experiment point, per router, per endpoint) from
/// a base seed plus an integer identity. Sequential ids land far apart in
/// PCG32 state space, so derived streams are effectively uncorrelated.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic RNG stream `stream_id` of a family tagged `tag` under
/// `seed`: hash-seeded and on its own PCG32 stream, so streams never
/// overlap regardless of how many draws each one makes. The tag separates
/// families sharing a seed (endpoint streams vs a traffic pattern's burst
/// streams).
inline Rng rng_stream(std::uint64_t seed, std::uint64_t tag,
                      std::uint64_t stream_id) {
  return Rng(splitmix64(seed ^ splitmix64(tag + stream_id)),
             (tag << 32) + stream_id);
}

}  // namespace slimfly
