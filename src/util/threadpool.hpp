#pragma once
// Minimal fixed-size thread pool with a parallel_for_checked helper, plus
// the reusable Barrier / run_region primitives backing phase-synchronized
// parallel regions (the simulator's router-parallel stepping).
//
// Used by exp::ExperimentEngine (experiment points across workers) and
// sim::Network (its stepping team). The pool degrades gracefully to
// sequential execution when hardware_concurrency() == 1.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace slimfly {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks may not themselves block on the pool.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs body(i) for i in [0, n), distributing chunks over the pool, and
/// falls back to a plain loop when the pool has a single worker. Exceptions
/// are transported: every index runs (a throwing index poisons only
/// itself), then the first captured exception — in index order — is
/// rethrown on the calling thread.
void parallel_for_checked(ThreadPool& pool, std::size_t n,
                          const std::function<void(std::size_t)>& body);

/// Reusable sense-reversing barrier: `parties` threads block in
/// arrive_and_wait() until all have arrived, then all proceed and the
/// barrier resets for the next round. Safe to reuse immediately (a thread
/// may re-enter while stragglers from the previous round are still waking).
class Barrier {
 public:
  explicit Barrier(std::size_t parties);

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  void arrive_and_wait();

  std::size_t parties() const { return parties_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
};

/// Runs body(worker) for worker in [0, workers) concurrently: workers-1
/// pool tasks plus the calling thread as worker 0, returning when all are
/// done. Bodies may synchronize with each other through a Barrier of
/// `workers` parties — which is exactly why the pool must have at least
/// workers-1 idle threads when this is called: a region sharing its pool
/// with unrelated queued tasks could leave some workers unscheduled while
/// the rest block on the barrier. Intended for a pool dedicated to the
/// region's owner (see sim::Network's intra-point stepping). The body must
/// not throw (an escaping exception terminates the worker thread and the
/// process); callers needing exception transport capture per-worker
/// exception_ptrs themselves.
void run_region(ThreadPool& pool, std::size_t workers,
                const std::function<void(std::size_t)>& body);

}  // namespace slimfly
