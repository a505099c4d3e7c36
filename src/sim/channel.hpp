#pragma once
// Fixed-latency FIFO delay lines modelling wires: flit channels and credit
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
// credit delay) and whose physical slab grows lazily from the heap as real
// traffic arrives — an idle line at fleet scale costs its header, not its
// worst case. Pushing past the logical capacity throws — it means the
// occupancy argument was violated, not that the line needs to grow.
//
// Ready cycles are stored in 32 bits: the Network constructor bounds the
// cycle horizon below 2^31.
//
// The head's ready cycle (kLineIdle when the line is empty) lives in one
// int32 "head slot" outside the items, so a not-ready or empty poll is one
// read that never chases the slab. A TimedLine keeps no slot of its own:
// the caller passes it to every call that can change the head, and every
// Network line's slot lives in its router (sim/router.hpp). The per-port
// lines — a network input's incoming flits and a network output's credit
// returns — keep their slots in two contiguous per-router arrays
// (RouterState::incoming_ready / credit_ready), so the arrivals phase
// finds the due ports by scanning a few int32s and touches a line only
// when its head is due; the producer (remote allocation) writes the slot
// when it pushes into an empty line. The per-router ejection and
// endpoint-credit lines keep theirs in two RouterState fields
// (ejection_ready / ep_credits_ready).

#include <cassert>
#include <cstdint>
#include <limits>

#include "sim/ring.hpp"

namespace slimfly::sim {

/// Head slot of an empty line: later than every cycle a Network reaches.
inline constexpr std::int32_t kLineIdle =
    std::numeric_limits<std::int32_t>::max();

template <typename T>
class TimedLine {
 public:
  /// Sets the line's logical capacity; must be called before the first
  /// push. The caller resets the line's head slot to kLineIdle.
  void init(std::size_t capacity) { items_.reset(capacity); }

  /// Claims the next slot for in-place assignment (zero-copy push): the
  /// caller writes the payload through the returned reference. Writes
  /// `head` when the line was empty. Ready cycles must be non-decreasing
  /// per line (see the header contract).
  /* SF_HOT */ T& push_slot(std::int64_t ready_cycle, std::int32_t& head) {
#ifndef NDEBUG
    assert(items_.empty() || ready_cycle >= last_push_ready_);
    last_push_ready_ = ready_cycle;
#endif
    if (items_.empty()) head = static_cast<std::int32_t>(ready_cycle);
    Timed& slot = items_.push_slot();
    slot.ready = static_cast<std::int32_t>(ready_cycle);
    return slot.item;
  }

  /// The head item; the caller checked its head slot first.
  /* SF_HOT */ const T& front() const { return items_.front().item; }

  /// Discards the head and moves `head` to the next item's ready cycle.
  /* SF_HOT */ void drop_front(std::int32_t& head) {
    items_.drop_front();
    head = head_ready();
  }

  /// The head's ready cycle read from the items (kLineIdle when empty):
  /// the value the line's head slot must hold.
  std::int32_t head_ready() const {
    return items_.empty() ? kLineIdle : items_.front().ready;
  }

  /// Backs the full logical capacity eagerly (see LazyRing::prewarm).
  void prewarm() { items_.prewarm(); }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return items_.capacity(); }

 private:
  struct Timed {
    std::int32_t ready = 0;
    T item{};
  };
  LazyRing<Timed> items_;
#ifndef NDEBUG
  std::int64_t last_push_ready_ = 0;
#endif
};

}  // namespace slimfly::sim
