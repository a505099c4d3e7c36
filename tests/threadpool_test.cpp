#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace slimfly {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for_checked(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  ThreadPool pool(2);
  parallel_for_checked(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SingleWorkerFallsBackSequential) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for_checked(pool, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForChecked, RethrowsFirstExceptionAfterRunningAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      parallel_for_checked(pool, hits.size(),
                           [&](std::size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 13) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);  // the throw poisons only i=13
}

TEST(ParallelForChecked, NoThrowRunsEveryIndex) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for_checked(pool, 100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(Barrier, SynchronizesRepeatedRounds) {
  // Workers iterate rounds with a barrier between them; if the barrier
  // failed to hold back a fast worker, it would observe a stale round
  // counter written by a straggler.
  constexpr std::size_t kWorkers = 4;
  constexpr int kRounds = 50;
  ThreadPool pool(kWorkers - 1);
  Barrier barrier(kWorkers);
  std::vector<std::vector<int>> seen(kWorkers);
  std::atomic<int> round_sum{0};
  run_region(pool, kWorkers, [&](std::size_t w) {
    for (int round = 0; round < kRounds; ++round) {
      round_sum.fetch_add(1);
      barrier.arrive_and_wait();
      // Every worker has contributed to this round before anyone reads.
      seen[w].push_back(round_sum.load());
      barrier.arrive_and_wait();
    }
  });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(seen[w].size(), static_cast<std::size_t>(kRounds));
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(seen[w][static_cast<std::size_t>(round)],
                static_cast<int>(kWorkers) * (round + 1))
          << "worker " << w << " round " << round;
    }
  }
}

TEST(RunRegion, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(4);
  run_region(pool, 4, [&](std::size_t w) { hits[w].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunRegion, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::size_t calls = 0;
  run_region(pool, 1, [&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(Rng, DeterministicStreams) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.next_u32(), b.next_u32());
  // Different seeds diverge (overwhelmingly likely on first draws).
  bool diverged = false;
  for (int i = 0; i < 4; ++i) {
    if (a.next_u32() != c.next_u32()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  for (int bound : {1, 2, 7, 100}) {
    for (int t = 0; t < 200; ++t) {
      auto v = rng.next_below(static_cast<std::uint32_t>(bound));
      EXPECT_LT(v, static_cast<std::uint32_t>(bound));
    }
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(4);
  for (int t = 0; t < 100; ++t) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, UniformityRoughCheck) {
  Rng rng(5);
  int buckets[10] = {};
  for (int t = 0; t < 10000; ++t) {
    ++buckets[static_cast<int>(rng.next_double() * 10)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 800);
    EXPECT_LT(b, 1200);
  }
}

}  // namespace
}  // namespace slimfly
