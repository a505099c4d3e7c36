#pragma once
// Slab pool backing the LazyRing storage tier (sim/ring.hpp): power-of-two
// byte slabs handed out to rings as they grow toward their wire()-time
// logical capacity, and recycled when a ring trades up to the next size.
//
// Why a pool instead of plain new/delete: at fleet scale the Network holds
// millions of rings whose *capacity* is sized for the worst case the flow
// control admits, but whose *occupancy* tracks offered load. Lazy growth
// means RSS follows occupancy; the pool keeps that growth (a) recycled —
// a slab dropped by one ring feeds the next grower, so the settling phase
// does not churn the allocator — and (b) allocation-free once the reserve
// float is charged, which is what lets the zero-steady-state-allocation
// guarantee (tests/hotpath_test.cpp) survive a straggler ring that reaches
// its high-water mark late.
//
// Thread safety: acquire/release take a mutex. Growth is a settling-phase
// event (a ring that reached occupancy n never grows again until it
// exceeds n), so the lock is cold in steady state; correctness matters
// because the allocation phase grows rings owned by *remote* routers
// (granted flits push into the downstream router's incoming line).

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

namespace slimfly::sim {

class SlabPool {
 public:
  SlabPool() {
    // Freelists never allocate in release(): each class holds at most
    // kShelfDepth recycled slabs and overflow is returned to the heap.
    for (auto& shelf : shelves_) shelf.reserve(kShelfDepth);
  }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (std::size_t c = 0; c < shelves_.size(); ++c) {
      for (void* slab : shelves_[c]) ::operator delete(slab);
    }
  }

  /// Rounds `bytes` up to its power-of-two size class.
  static std::size_t class_bytes(std::size_t bytes) {
    std::size_t c = kMinBytes;
    while (c < bytes) c <<= 1;
    return c;
  }

  /// Hands out a slab of at least `bytes` (rounded to the class size):
  /// recycled from the shelf when one is waiting, fresh from the heap
  /// otherwise. Returns the class size through `got_bytes` so the caller
  /// can release exactly what it holds.
  void* acquire(std::size_t bytes, std::size_t& got_bytes) {
    const std::size_t cls = class_bytes(bytes);
    got_bytes = cls;
    const std::size_t idx = class_index(cls);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& shelf = shelves_[idx];
      if (!shelf.empty()) {
        void* slab = shelf.back();
        shelf.pop_back();
        return slab;
      }
    }
    return ::operator new(cls);
  }

  /// Returns a slab of `bytes` (a prior acquire's got_bytes). The shelf
  /// keeps at most kShelfDepth slabs per class — beyond that the slab goes
  /// straight back to the heap, so release() itself never allocates.
  void release(void* slab, std::size_t bytes) {
    const std::size_t idx = class_index(bytes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& shelf = shelves_[idx];
      if (shelf.size() < kShelfDepth) {
        shelf.push_back(slab);
        return;
      }
    }
    ::operator delete(slab);
  }

  /// Charges the reserve float: `count` slabs in every class from
  /// kMinBytes up to `max_bytes`. Called once at Network::wire() so that
  /// late ring growth in the guarded steady state draws from the shelf
  /// instead of the allocator. ~1 MiB at the defaults — noise next to the
  /// arenas it protects.
  void preload(std::size_t max_bytes = kDefaultPreloadMaxBytes,
               std::size_t count = kDefaultPreloadCount) {
    for (std::size_t cls = kMinBytes; cls <= max_bytes; cls <<= 1) {
      const std::size_t idx = class_index(cls);
      std::lock_guard<std::mutex> lock(mu_);
      auto& shelf = shelves_[idx];
      while (shelf.size() < count && shelf.size() < kShelfDepth) {
        shelf.push_back(::operator new(cls));
      }
    }
  }

  // Compile-time shape of the pool, public so opt-in callers (the
  // measurement-window reserve in Network) can charge a deeper float in
  // terms of the same limits.
  static constexpr std::size_t kMinBytes = 64;
  static constexpr std::size_t kNumClasses = 32;  // 64 B .. 128 GiB
  static constexpr std::size_t kShelfDepth = 1024;
  static constexpr std::size_t kDefaultPreloadMaxBytes = 8192;
  static constexpr std::size_t kDefaultPreloadCount = 64;

 private:

  static std::size_t class_index(std::size_t cls) {
    std::size_t idx = 0;
    while ((kMinBytes << idx) < cls) ++idx;
    return idx;
  }

  mutable std::mutex mu_;
  std::array<std::vector<void*>, kNumClasses> shelves_;
};

}  // namespace slimfly::sim
