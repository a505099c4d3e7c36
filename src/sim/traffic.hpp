#pragma once
// Traffic patterns (paper Section V): uniform random for irregular
// workloads; shuffle / bit reversal / bit complement / shift for
// collectives and stencils; and the adversarial worst-case patterns for
// Slim Fly (Figure 9), Dragonfly (Kim Section 4.2) and the fat tree
// (forced core traversal).
//
// On top of the paper's independent-injection patterns sits the workload
// layer (docs/ARCHITECTURE.md §"Workload layer"): rate-modulated wrappers
// (`burst:`, `hotspot:`) composable over any base pattern, and self-clocked
// dependency replay (`trace:`, `allreduce:`) where a send becomes eligible
// only when the message it waits on has been ejected. Both families are driven through
// the parameterized spec grammar accepted by make_traffic (see
// docs/SPEC_GRAMMAR.md).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace slimfly::sim {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;
  virtual std::string name() const = 0;
  /// Destination endpoint for a packet from src, or -1 when src is idle in
  /// this pattern (inactive endpoints never generate traffic).
  virtual int destination(int src_endpoint, Rng& rng) = 0;
  virtual bool is_active(int src_endpoint) const {
    (void)src_endpoint;
    return true;
  }

  // ---- workload hooks ------------------------------------------------------
  // Defaults describe classic independent injection; only the workload-layer
  // patterns override them. The engine caches modulates_rate()/self_clocked()
  // once at construction, so the unmodulated hot path stays byte-identical
  // to the pre-workload code.

  /// True when the pattern scales the per-endpoint injection rate over time.
  virtual bool modulates_rate() const { return false; }
  /// Rate multiplier for endpoint e at cycle t. A multiplier of exactly 0
  /// means hard-off: the engine consumes NO Bernoulli draw from e's stream
  /// that cycle (this is what keeps the cycle and active engines' draw
  /// sequences identical). Called with nondecreasing t per endpoint — the
  /// pattern may advance internal per-endpoint state, and must tolerate
  /// gaps in t (the active engine never queries cycles it fast-forwards,
  /// and plans batches of future cycles ahead of time).
  virtual double rate_multiplier(int src_endpoint, std::int64_t t) {
    (void)src_endpoint;
    (void)t;
    return 1.0;
  }
  /// First cycle after t at which rate_multiplier(e, ·) can be nonzero
  /// again. Called right after rate_multiplier(e, t) returned 0, so the
  /// pattern's state is already at t; it must draw nothing, and every cycle
  /// in (t, result) must have multiplier 0. The active engine's arrival
  /// planner jumps straight to the result: skipped OFF cycles consume no
  /// Bernoulli draw either way, so the jump is exact. The default, t + 1,
  /// skips nothing.
  virtual std::int64_t off_until(int src_endpoint, std::int64_t t) {
    (void)src_endpoint;
    return t + 1;
  }
  /// Long-run mean of rate_multiplier() — the factor between the configured
  /// load and the mean per-endpoint injection rate. The Network reads it
  /// once, at construction, to choose its stepping mode.
  virtual double mean_rate_multiplier() const { return 1.0; }

  /// True when the pattern is self-clocked (dependency replay): sends come
  /// from per-endpoint message lists gated by delivery of their `after:`
  /// dependency, not from Bernoulli load coins. Self-clocked patterns ignore
  /// the configured load entirely — the workload itself is the clock.
  virtual bool self_clocked() const { return false; }
  /// Self-clocked only: if endpoint e's head message is eligible at `cycle`
  /// (FIFO-ready and its dependency delivered), pops it and returns its
  /// destination; returns -1 when blocked or exhausted. `dep_stall` (may be
  /// null) receives the cycles the send spent waiting on its dependency
  /// beyond FIFO readiness — the engine feeds it into windowed stats.
  virtual int next_send(int src_endpoint, std::int64_t cycle,
                        std::int64_t* dep_stall) {
    (void)src_endpoint;
    (void)cycle;
    (void)dep_stall;
    return -1;
  }
  /// Self-clocked only: endpoint e has an eligible head right now. Keeps
  /// e's router in the active engine's busy set.
  virtual bool pending_eligible(int src_endpoint) const {
    (void)src_endpoint;
    return false;
  }
  /// Self-clocked only: called serially between cycles when the packet
  /// carrying message `seq` of endpoint `src` has been ejected. Appends
  /// every endpoint whose blocked head just became eligible to `unlocked`
  /// (the active engine wakes their routers). Never allocates beyond
  /// `unlocked`'s reserved capacity of completion_fanout().
  virtual void on_delivered(int src, std::int64_t seq,
                            std::vector<int>& unlocked) {
    (void)src;
    (void)seq;
    (void)unlocked;
  }
  /// Upper bound on entries a single on_delivered call can append — the
  /// engine reserves its unlock scratch to this before stepping starts.
  virtual std::size_t completion_fanout() const { return 0; }
};

/// Every endpoint sends to a uniformly random other endpoint.
std::unique_ptr<TrafficPattern> make_uniform(int num_endpoints);

/// Bit permutations over the largest power-of-two subset of endpoints
/// (the paper deactivates the rest, Section V-B).
std::unique_ptr<TrafficPattern> make_shuffle(int num_endpoints);
std::unique_ptr<TrafficPattern> make_bit_reversal(int num_endpoints);
std::unique_ptr<TrafficPattern> make_bit_complement(int num_endpoints);

/// Shift: d = (s mod N/2) + N/2 or (s mod N/2), each with probability 1/2.
std::unique_ptr<TrafficPattern> make_shift(int num_endpoints);

/// Worst case for minimal routing on Slim Fly (Figure 9): maximize the
/// load on single links; endpoints not covered by the construction idle.
std::unique_ptr<TrafficPattern> make_worst_case_sf(const Topology& topo);

/// Worst case for Dragonfly: every group sends to its successor group.
std::unique_ptr<TrafficPattern> make_worst_case_df(const Dragonfly& topo);

/// Fat-tree adversarial pattern: every packet must cross a core switch
/// (destination in the next pod).
std::unique_ptr<TrafficPattern> make_worst_case_ft(const FatTree3& topo);

/// 3D stencil workload (the paper's motivating HPC pattern, Section V):
/// endpoints are arranged in a near-cubic 3D process grid; each endpoint
/// sends to its six nearest neighbours (periodic boundaries) round-robin.
/// Endpoints beyond the largest complete grid idle.
std::unique_ptr<TrafficPattern> make_stencil3d(int num_endpoints);

/// Trace replay: a fixed list of (src, dst) flows; each generation event at
/// src picks the next dst from src's flow list round-robin. Lets users
/// replay application communication matrices. Sources without flows idle.
/// Duplicate (src, dst) entries are deliberately kept: listing a flow k
/// times gives it k slots in src's round-robin, i.e. k× the weight — this
/// is how a communication matrix with unequal flow volumes is expressed.
std::unique_ptr<TrafficPattern> make_trace(
    int num_endpoints, const std::vector<std::pair<int, int>>& flows);

// ---- string-keyed traffic registry -----------------------------------------
// Bare names match TrafficPattern::name(): "uniform", "shuffle", "bitrev",
// "bitcomp", "shift", "stencil3d", "worst-sf", "worst-df", "worst-ft" —
// plus "worstcase", which picks the adversarial pattern matching the
// topology's type (worst-df on Dragonfly, worst-ft on FatTree3, worst-sf
// otherwise).
//
// Parameterized workload specs use the shared spec grammar
// "name:key=value,key=value" (util/spec.hpp, docs/SPEC_GRAMMAR.md):
//   burst:on=<cycles>,off=<cycles>,mult=<x>[,seed=<s>][,base=<spec>]
//   hotspot:frac=<f>,heat=<x>[,seed=<s>][,base=<spec>]
//   allreduce:ranks=<r>[,algo=ring|tree]
//   trace:file=<path/to/trace.json>
// A nested base=<spec> (default uniform; never self-clocked) spells its
// own commas as ';'
// (e.g. "hotspot:frac=0.05,heat=8,base=burst:on=50;off=450;mult=10").
//
// burst: each endpoint alternates ON segments (rate = load × mult) and OFF
// segments (rate 0) whose lengths are uniform integers in [1, 2·mean−1]
// drawn from the endpoint's own burst stream (rng_stream(seed, tag,
// endpoint)), so endpoints desynchronize and results stay bit-identical
// across the thread/engine matrix. Mean offered load =
// load × mult × on/(on+off).
//
// hotspot: H = max(1, round(frac·N)) endpoints (chosen by a seeded
// Fisher–Yates shuffle) each receive `heat`× the uniform share of traffic;
// the rest of the load follows `base`. Redirect probability
// q = H(heat−1)/(N−H) must be ≤ 1 (make_traffic throws otherwise, naming
// the bound).

/// Full topology-independent validation: grammar, canonical values, known
/// name, required / unknown keys, value ranges, nested base specs. Never
/// touches the filesystem (trace files are opened by make_traffic). Throws
/// invalid_argument with a named error.
void validate_traffic_spec(const std::string& spec);

/// Builds a fresh pattern instance for `topo` from a bare name or a
/// parameterized spec. Throws std::invalid_argument on unknown names,
/// invalid parameters, or topology-specific patterns on the wrong topology.
std::unique_ptr<TrafficPattern> make_traffic(const std::string& spec,
                                             const Topology& topo);

/// All registered bare traffic names, sorted. Parameterized patterns
/// (burst/hotspot/allreduce/trace) are not listed here — they require
/// parameters and are documented in docs/SPEC_GRAMMAR.md.
std::vector<std::string> traffic_names();

/// Topology-registry family this traffic is restricted to ("dragonfly" for
/// worst-df, "fattree" for worst-ft), or "" when it runs on any topology.
/// Spec-aware: burst/hotspot inherit the requirement of their base pattern.
/// Validates the spec as validate_traffic_spec does (same read).
std::string traffic_requirement(const std::string& spec);

}  // namespace slimfly::sim
