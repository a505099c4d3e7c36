#include "util/threadpool.hpp"

#include <algorithm>
#include <exception>

namespace slimfly {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_checked(ThreadPool& pool, std::size_t n,
                          const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(n);
  auto run = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (pool.size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    // A few chunks per worker keep scheduling overhead negligible for the
    // coarse-grained experiment points this helper is used for.
    std::size_t chunks = std::min(n, pool.size() * 4);
    std::size_t per = (n + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::size_t lo = c * per;
      std::size_t hi = std::min(n, lo + per);
      if (lo >= hi) break;
      pool.submit([lo, hi, &run] {
        for (std::size_t i = lo; i < hi; ++i) run(i);
      });
    }
    pool.wait_idle();
  }
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

Barrier::Barrier(std::size_t parties) : parties_(parties == 0 ? 1 : parties) {}

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t my_generation = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
}

void run_region(ThreadPool& pool, std::size_t workers,
                const std::function<void(std::size_t)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  for (std::size_t w = 1; w < workers; ++w) {
    pool.submit([&body, w] { body(w); });
  }
  body(0);
  pool.wait_idle();
}

}  // namespace slimfly
