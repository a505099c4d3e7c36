#pragma once
// Ring-buffer deques backing every hot-path queue in the simulator.
//
// The steady-state stepping loop must never touch the allocator (see the
// "hot-path memory layout" section of docs/ARCHITECTURE.md), so every
// queue is one of two rings:
//
//  * GrowRing<T>   — amortized-doubling ring for the one genuinely
//    unbounded queue (the endpoint source queue, which must absorb offered
//    load past saturation). Below saturation it reaches a small stable
//    capacity and never allocates again.
//  * LazyRing<T>   — every bounded queue: the *logical* capacity is chosen
//    once at Network::wire(), from the flow-control config that already
//    bounds the queue's occupancy, and overflow throws a named error
//    because it is always a protocol violation, never a sizing decision.
//    The *physical* slab starts empty and doubles from the heap toward it
//    as occupancy demands, so RSS tracks what the simulated traffic
//    actually queues instead of the worst case the credit loop admits —
//    the difference between a 0.05-load point paying for its occupancy
//    and paying for its capacity. Growth is bounded: at most one slab per
//    doubling up to the logical capacity, and it settles at the
//    high-water mark (same amortized argument as GrowRing), so the
//    steady-state loop stops allocating.
//
// Both keep elements contiguous-in-ring with head/size indices and
// conditional (branch, not modulo) wrap-around.

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace slimfly::sim {

/// Unbounded FIFO with amortized-doubling growth. Storage is allocated on
/// first use (so idle endpoints cost nothing) and only grows — a queue that
/// once held n elements never allocates again until it exceeds n.
template <typename T>
class GrowRing {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  // grow() below is the sanctioned amortized cold path, so push_back
  // itself must stay allocation-free.
  /* SF_HOT */ void push_back(T value) {
    if (size_ >= slots_.size()) grow();
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(value);
    ++size_;
  }

  /* SF_HOT */ const T& front() const {
    if (empty()) throw std::logic_error("GrowRing: front on empty ring");
    return slots_[head_];
  }

  /* SF_HOT */ T pop_front() {
    if (empty()) throw std::logic_error("GrowRing: pop on empty ring");
    T value = std::move(slots_[head_]);
    ++head_;
    if (head_ >= slots_.size()) head_ = 0;
    --size_;
    return value;
  }

 private:
  void grow() {
    std::size_t next = slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<T> bigger(next);
    for (std::size_t i = 0; i < size_; ++i) {
      std::size_t at = head_ + i;
      if (at >= slots_.size()) at -= slots_.size();
      bigger[i] = std::move(slots_[at]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Fixed *logical* capacity, lazy *physical* backing (see the header
/// comment). Restricted to trivially-copyable payloads so slabs can be raw
/// heap memory and growth a flat copy.
template <typename T>
class LazyRing {
  static_assert(std::is_trivially_copyable<T>::value,
                "LazyRing slabs are raw heap memory");
  static_assert(std::is_trivially_destructible<T>::value,
                "LazyRing never runs element destructors");

 public:
  LazyRing() = default;
  explicit LazyRing(std::size_t capacity) { reset(capacity); }

  LazyRing(const LazyRing&) = delete;
  LazyRing& operator=(const LazyRing&) = delete;

  LazyRing(LazyRing&& other) noexcept { steal(other); }
  LazyRing& operator=(LazyRing&& other) noexcept {
    if (this != &other) {
      free_slab();
      steal(other);
    }
    return *this;
  }

  ~LazyRing() { free_slab(); }

  /// Sets the logical capacity and clears the ring, freeing the physical
  /// slab (if any).
  void reset(std::size_t logical_capacity) {
    free_slab();
    logical_ = logical_capacity;
    head_ = 0;
    size_ = 0;
  }

  /// The wire()-time occupancy bound.
  std::size_t capacity() const { return logical_; }
  /// Slots physically backed right now (<= capacity(); RSS diagnostics).
  std::size_t physical_capacity() const { return physical_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= logical_; }

  /// Backs the full logical capacity now, so the ring never grows again.
  /// Opt-in warm-up for allocation-guard runs (via Network::
  /// reserve_measurement_stats). Deliberately NOT the default — the lazy
  /// tier's whole point is that untouched rings cost nothing at fleet
  /// scale.
  void prewarm() {
    if (physical_ < logical_) grow_to(logical_);
  }

  /* SF_HOT */ void push_back(const T& value) { push_slot() = value; }

  /// Claims the next tail slot for in-place assignment. grow() below is
  /// the sanctioned settling-phase cold path (doubles toward the fixed
  /// logical capacity), so push_slot itself stays allocation-free,
  /// mirroring GrowRing::push_back.
  /* SF_HOT */ T& push_slot() {
    if (size_ >= physical_) grow();
    std::size_t tail = head_ + size_;
    if (tail >= physical_) tail -= physical_;
    ++size_;
    return slots_[tail];
  }

  /* SF_HOT */ const T& front() const {
    if (empty()) throw std::logic_error("LazyRing: front on empty ring");
    return slots_[head_];
  }

  /* SF_HOT */ void drop_front() {
    if (empty()) throw std::logic_error("LazyRing: pop on empty ring");
    ++head_;
    if (head_ >= physical_) head_ = 0;
    --size_;
  }

  /* SF_HOT */ T pop_front() {
    if (empty()) throw std::logic_error("LazyRing: pop on empty ring");
    T value = slots_[head_];
    ++head_;
    if (head_ >= physical_) head_ = 0;
    --size_;
    return value;
  }

 private:
  // First slab: 4 slots or one 64-byte cache line, whichever holds more.
  static constexpr std::size_t kInitialSlots =
      64 / sizeof(T) > 4 ? 64 / sizeof(T) : 4;

  // Cold path: called only when occupancy crosses the current physical
  // high-water mark, at most log2(capacity) times over a ring's lifetime.
  void grow() {
    if (size_ >= logical_) {
      throw std::logic_error(
          "LazyRing: overflow at capacity " + std::to_string(logical_) +
          " (the wire()-time occupancy bound was violated)");
    }
    const std::size_t want = physical_ == 0 ? kInitialSlots : physical_ * 2;
    grow_to(want < logical_ ? want : logical_);
  }

  void grow_to(std::size_t slots) {
    // Zeroed: a slot's first read after a partial write must see
    // deterministic bytes, exactly as value-initialized storage would.
    void* raw = ::operator new(slots * sizeof(T));
    std::memset(raw, 0, slots * sizeof(T));
    T* bigger = static_cast<T*>(raw);
    for (std::size_t i = 0; i < size_; ++i) {
      std::size_t at = head_ + i;
      if (at >= physical_) at -= physical_;
      bigger[i] = slots_[at];
    }
    ::operator delete(slots_);
    slots_ = bigger;
    physical_ = slots;
    head_ = 0;
  }

  void free_slab() {
    ::operator delete(slots_);
    slots_ = nullptr;
    physical_ = 0;
  }

  void steal(LazyRing& other) {
    slots_ = other.slots_;
    logical_ = other.logical_;
    physical_ = other.physical_;
    head_ = other.head_;
    size_ = other.size_;
    other.slots_ = nullptr;
    other.physical_ = 0;
    other.head_ = 0;
    other.size_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t logical_ = 0;
  std::size_t physical_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace slimfly::sim
