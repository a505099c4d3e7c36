#pragma once
// Fixed-latency FIFO delay line modelling wires: flit channels and credit
// return paths. Items pushed with ready cycle t become visible at t.
//
// CONTRACT: a producer must push NON-DECREASING ready cycles (asserted in
// debug builds). The pop side only ever inspects the head, so an item
// pushed with an earlier ready than its predecessor would be stuck behind
// a not-yet-ready head and silently stall. Every current producer
// satisfies this: constant-latency pushes trivially, and the grant-time
// incoming-line pushes because per output `cycle + staged` is strictly
// increasing (see phase_allocation).
//
// Storage is a LazyRing whose *logical* capacity is set once via init()
// (Network::wire() derives it from the flow-control config, which bounds
// every line's occupancy: a flit channel holds at most latency+1 in-flight
// flits, a credit line at most alloc_iterations credits per cycle of
// credit delay) and whose physical slab grows lazily from the shared
// SlabPool as real traffic arrives — an idle line at fleet scale costs its
// header, not its worst case. Pushing past the logical capacity throws —
// it means the occupancy argument was violated, not that the line needs to
// grow.
//
// ReadyT is the stored width of the ready cycle: int64 by default, int32
// for the high-multiplicity credit/ejection event lines — the Network
// constructor already bounds the cycle horizon below 2^31 (the PR 5
// field-width precedent), so the narrow form halves a Timed<int> slot.
//
// The head's ready cycle is mirrored in the header (head_ready_): the
// arrivals phase polls every line every cycle, and the mirror keeps a
// not-ready/empty poll to a single header read instead of chasing the
// slot array.

#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "sim/ring.hpp"
#include "sim/slab.hpp"

namespace slimfly::sim {

template <typename T, typename ReadyT = std::int64_t>
class DelayLine {
 public:
  DelayLine() = default;
  explicit DelayLine(std::size_t capacity) { init(capacity); }

  /// Sets the line's logical capacity (and the slab pool lazy growth draws
  /// from); must be called before the first push.
  void init(std::size_t capacity, SlabPool* pool = nullptr) {
    items_.reset(capacity, pool);
    head_ready_ = kEmpty;
  }

  /* SF_HOT */ void push(std::int64_t ready_cycle, T item) {
    push_slot(ready_cycle) = std::move(item);
  }

  /// Claims the next slot for in-place assignment (zero-copy push): the
  /// caller writes the payload through the returned reference. Ready
  /// cycles must be non-decreasing per line (see the header contract).
  /* SF_HOT */ T& push_slot(std::int64_t ready_cycle) {
#ifndef NDEBUG
    assert(items_.empty() || ready_cycle >= last_push_ready_);
    last_push_ready_ = ready_cycle;
#endif
    if (items_.empty()) head_ready_ = ready_cycle;
    Timed& slot = items_.push_slot();
    slot.ready = static_cast<ReadyT>(ready_cycle);
    return slot.item;
  }

  /// Pops the front item if it is ready at `cycle`.
  /* SF_HOT */ std::optional<T> pop_ready(std::int64_t cycle) {
    if (head_ready_ > cycle) return std::nullopt;
    T item = std::move(items_.pop_front().item);
    head_ready_ = items_.empty() ? kEmpty : items_.front().ready;
    return item;
  }

  /// Copy-free variant of pop_ready: a pointer to the front payload when
  /// it is ready at `cycle` (consume with drop_front()), else nullptr.
  /* SF_HOT */ const T* front_ready(std::int64_t cycle) const {
    if (head_ready_ > cycle) return nullptr;
    return &items_.front().item;
  }

  /* SF_HOT */ void drop_front() {
    items_.drop_front();
    head_ready_ = items_.empty() ? kEmpty : items_.front().ready;
  }

  /// Backs the first slab eagerly (see LazyRing::prewarm).
  void prewarm() { items_.prewarm(); }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return items_.capacity(); }

 private:
  static constexpr std::int64_t kEmpty =
      std::numeric_limits<std::int64_t>::max();

  struct Timed {
    ReadyT ready = 0;
    T item{};
  };
  LazyRing<Timed> items_;
  std::int64_t head_ready_ = kEmpty;
#ifndef NDEBUG
  std::int64_t last_push_ready_ = 0;
#endif
};

}  // namespace slimfly::sim
