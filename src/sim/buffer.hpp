#pragma once
// Per-(input port, VC) flit buffer with a hard capacity, the unit of
// credit-based flow control — a LazyRing whose logical capacity is sized
// once from buffer_per_vc (so the credit contract is unchanged: push past
// it throws) and whose physical slab grows from the heap only as flits
// actually queue, so an idle VC at fleet scale costs a ring
// header instead of a worst-case slab. Header-only: push/front/pop run
// millions of times per simulated second and must inline into the phase
// loops. (The head-of-line routing-decision cache lives in
// RouterState::route_cache, a flat per-router array, so the allocation
// gather never has to touch a buffer whose decision is already cached.)

#include <stdexcept>

#include "sim/packet.hpp"
#include "sim/ring.hpp"

namespace slimfly::sim {

class VcBuffer {
 public:
  explicit VcBuffer(int capacity = 0) { init(capacity); }

  /// Sets the logical capacity and clears the buffer.
  void init(int capacity) {
    ring_.reset(static_cast<std::size_t>(capacity < 0 ? 0 : capacity));
  }

  /// Backs the full logical capacity eagerly (see LazyRing::prewarm).
  void prewarm() { ring_.prewarm(); }

  bool full() const { return ring_.full(); }
  bool empty() const { return ring_.empty(); }
  int size() const { return static_cast<int>(ring_.size()); }
  int capacity() const { return static_cast<int>(ring_.capacity()); }

  /// Throws std::logic_error if the buffer is full (a credit violation —
  /// upstream must never send without a credit).
  /* SF_HOT */ void push(const Packet& packet) {
    if (full()) {
      throw std::logic_error("VcBuffer: overflow (credit protocol violation)");
    }
    ring_.push_back(packet);
  }

  /* SF_HOT */ const Packet& front() const {
    if (ring_.empty()) throw std::logic_error("VcBuffer: front on empty buffer");
    return ring_.front();
  }

  /* SF_HOT */ Packet pop() {
    if (ring_.empty()) throw std::logic_error("VcBuffer: pop on empty buffer");
    return ring_.pop_front();
  }

  /// Copy-free pop: discards the head (front() gives access first).
  /* SF_HOT */ void drop_front() {
    if (ring_.empty()) throw std::logic_error("VcBuffer: pop on empty buffer");
    ring_.drop_front();
  }

 private:
  LazyRing<Packet> ring_;
};

}  // namespace slimfly::sim
