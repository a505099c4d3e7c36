#pragma once
// The ring-buffer FIFO backing every hot-path queue in the simulator.
//
// The steady-state stepping loop must never touch the allocator (see the
// "hot-path memory layout" section of docs/ARCHITECTURE.md), so every
// queue — VC buffers, ejection staging, the flit and credit lines under
// TimedLine, and the endpoint source queues — is a LazyRing<T>. Its
// *logical* capacity is chosen once at Network::wire() from the bound
// that already limits the queue's occupancy (the flow-control config, or
// for a source queue the run horizon: at most one packet enters it per
// stepped cycle), and overflow throws a named error because it is always
// a protocol violation, never a sizing decision. The *physical* slab
// starts empty and doubles from the heap toward it as occupancy demands,
// so RSS tracks what the simulated traffic actually queues instead of the
// worst case the bound admits — the difference between a 0.05-load point
// paying for its occupancy and paying for its capacity. Growth is
// bounded: at most one slab per doubling up to the logical capacity, and
// a ring settles at its high-water mark, so the steady-state loop stops
// allocating.
//
// Elements stay contiguous-in-ring with head/size indices and conditional
// (branch, not modulo) wrap-around.

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace slimfly::sim {

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
  /// logical capacity), so push_slot itself stays allocation-free.
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
