// Hot-path guarantees: (1) steady-state Network::step() performs ZERO heap
// allocations per cycle — enforced with a counting global allocator — and
// (2) the data-oriented storage (ring buffers, receiver-side flit lines,
// per-router route caches and occupancy masks) still produces bit-identical
// trajectories across SF_THREADS values that start points at teams of 1 and 2.
//
// The allocation guard covers the transition from warmup into the
// measurement window, so it exercises delivery recording too (the network
// pre-reserves its latency pools via reserve_measurement_stats). Setup —
// wiring, first-touch growth of endpoint source rings, scratch sizing — is
// allowed to allocate; the measured region is not.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "exp/diff.hpp"
#include "exp/experiment.hpp"
#include "sf/mms.hpp"
#include "sim/ring.hpp"
#include "sim/simulation.hpp"
#include "sim/slab.hpp"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// noinline: inlined free() here trips GCC's false -Wmismatched-new-delete.
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace slimfly::sim {
namespace {

SimConfig guard_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 400;
  cfg.drain_cycles = 4000;
  return cfg;
}

// Steps `settle` cycles (allocations allowed: source rings grow on first
// use), then asserts the next `measured` cycles allocate nothing. The
// window straddles warmup -> measurement, covering every phase plus stats
// recording. The step lists, wake wheels, far heaps and outboxes are sized
// at init_active() for their worst case (a push past it throws), so
// steady-state scheduling never grows them.
void expect_allocation_free_steady_state(RoutingKind kind, double load,
                                         SimConfig cfg = guard_config()) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(kind, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  Network net(topo, *routing.algorithm, *traffic, cfg, load);
  net.reserve_measurement_stats();
  for (int i = 0; i < 300; ++i) net.step();
  const long long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) net.step();
  const long long during =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0) << to_string(kind)
                       << ": steady-state stepping must not allocate";
  EXPECT_GT(net.flit_hops(), 0);  // the guard window did real work
}

TEST(HotPathAllocationGuard, MinimalRoutingSteadyStateIsAllocationFree) {
  expect_allocation_free_steady_state(RoutingKind::Minimal, 0.3);
}

TEST(HotPathAllocationGuard, UgalSteadyStateIsAllocationFree) {
  expect_allocation_free_steady_state(RoutingKind::UgalL, 0.3);
}

TEST(HotPathAllocationGuard, DeepQueueHighLoadIsAllocationFree) {
  // 0.7 offered load — the highest load q=5 UGAL-L sustains (accepted
  // tracks offered; 0.8+ backlogs the injectors, and an unbounded source
  // backlog legitimately grows forever) — drives the lazily-backed VC
  // rings, staging rings and event lines deep into their slabs, so the
  // guard window churns the deepest queues the flow control admits at a
  // stable operating point. Growth past the settle phase must come from
  // the SlabPool's preloaded float, never the allocator.
  expect_allocation_free_steady_state(RoutingKind::UgalL, 0.7);
}

TEST(HotPathAllocationGuard, LazyRingGrowthIsPoolServed) {
  // The pooled-storage invariant in isolation: after the reserve float is
  // charged, a LazyRing doubling all the way to its logical capacity — the
  // late-straggler case the Network-level guards can only sample — never
  // touches the allocator, and steady churn at the high-water mark is free.
  SlabPool pool;
  pool.preload();
  LazyRing<int> ring;
  ring.reset(2048, &pool);  // full growth = 8 KiB, the preload ceiling
  for (int i = 0; i < 8; ++i) ring.push_back(i);  // settle: first slab
  const long long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 8; i < 2048; ++i) ring.push_back(i);  // doubles to capacity
  while (!ring.empty()) ring.drop_front();
  for (int i = 0; i < 5000; ++i) {  // steady churn at high water
    ring.push_back(i);
    ring.drop_front();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << "LazyRing growth must be pool-served after preload";
  EXPECT_EQ(ring.physical_capacity(), 2048u);
}

TEST(HotPathAllocationGuard, LowLoadIsAllocationFree) {
  // Low load is the active set's busiest bookkeeping regime: routers sleep,
  // injector arrivals are batch-planned, and the wake wheels churn
  // constantly — all of it must run out of the capacity reserved at
  // construction.
  expect_allocation_free_steady_state(RoutingKind::Minimal, 0.05);
  // A 70-cycle wire sends every flit and delivery wake past the wheel into
  // the far heap, whose reserve must then cover the line events too. Load
  // 0.1, not 0.3: with this wire the queues keep deepening past the settle
  // phase at 0.3, so their growth would allocate inside the guard window.
  SimConfig far = guard_config();
  far.channel_latency = 70;
  expect_allocation_free_steady_state(RoutingKind::Minimal, 0.1, far);
}

// Workload-layer variant of the guard: a traffic spec string instead of a
// RoutingKind, so the modulated injection path (burst) and self-clocked
// replay (allreduce) run under the counting allocator. Windowed stats are
// enabled too — the rows are preallocated at construction.
void expect_workload_allocation_free(const std::string& traffic_spec,
                                     double load) {
  sf::SlimFlyMMS topo(5);
  auto routing = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_traffic(traffic_spec, topo);
  SimConfig cfg = guard_config();
  cfg.stats_window = 50;
  Network net(topo, *routing.algorithm, *traffic, cfg, load);
  net.reserve_measurement_stats();
  for (int i = 0; i < 300; ++i) net.step();
  const long long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) net.step();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << traffic_spec << ": steady-state stepping must not allocate";
}

TEST(HotPathAllocationGuard, BurstModulationIsAllocationFree) {
  // ON/OFF modulation exercises per-endpoint segment state and the
  // modulated batch planner.
  expect_workload_allocation_free("burst:on=50,off=150,mult=4,base=uniform",
                                  0.3);
}

TEST(HotPathAllocationGuard, DependencyReplayIsAllocationFree) {
  // Self-clocked replay: completion outboxes, the unlock scratch and the
  // wake budgets must all run out of their construction-time reserves.
  // 128 ring ranks give 2*127*128 = 32512 messages — the replay spans the
  // whole 500-step guard window.
  expect_workload_allocation_free("allreduce:ranks=128,algo=ring", 0.3);
}

TEST(HotPathAllocationGuard, FatTreeGatherPathIsAllocationFree) {
  // FT-ANCA takes the non-cacheable allocator path (per-iteration
  // re-derivation), which must be just as allocation-free.
  FatTree3 topo(4);
  auto routing = make_routing(RoutingKind::FatTreeAnca, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  Network net(topo, *routing.algorithm, *traffic, guard_config(), 0.3);
  net.reserve_measurement_stats();
  for (int i = 0; i < 300; ++i) net.step();
  const long long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) net.step();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0);
}

TEST(HotPathStorage, BitIdenticalAcrossThreadMatrix) {
  // The new storage under sharded stepping: every worker budget must
  // reproduce the sequential trajectory byte-for-byte. The 4 points run
  // two at a time at 2 threads, one per worker at 4, and as teams of 2 at 8.
  exp::ExperimentSpec spec = exp::ExperimentSpec::cross(
      "hotpath_matrix", {"slimfly:q=5"}, {"MIN", "UGAL-L"}, {"uniform"},
      {0.2, 0.6}, guard_config());
  spec.truncate_at_saturation = false;
  exp::ExperimentEngine reference(1);
  const std::string want = exp::golden_trajectory(spec, reference.run(spec));
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    exp::ExperimentEngine engine(threads);
    EXPECT_EQ(want, exp::golden_trajectory(spec, engine.run(spec)))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace slimfly::sim
