#pragma once
// Fixed-capacity inline source route: one output-port index per hop. A
// router numbers its network ports in sorted adjacency order
// (Graph::neighbor_index), so hop i's port is the position of the next
// router in the current router's adjacency list and the Network reads it
// directly, with no router->port translation. Storing the hops inline
// (uint16 ports, one-byte length) makes Packet trivially copyable, so the
// ring buffers holding packets relocate them with memcpy-class moves and
// routing never touches the allocator.
//
// Capacity rationale: every simulated topology family is low-diameter
// (Slim Fly / DLN / Long Hop / Dragonfly / fat tree are diameter <= 3
// sources with <= 2x Valiant detours), and the capacity still covers the
// registry's practical outliers (MIN on torus:dims=8x8x8 = 12 hops,
// VAL on torus:dims=4x4x4 = 12 hops). Longer walks — Valiant on a
// diameter > 7 torus/hypercube — throw PathOverflowError at route time: a
// named, actionable error rather than silent heap fallback. The capacity
// is kept tight deliberately: it is what makes Packet exactly one cache
// line, and Packet size is the dominant term in the hot path's memory
// traffic (every hop copies the packet a handful of times).

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace slimfly::sim {

/// Thrown when a routing algorithm builds a path longer than
/// InlinePath::kMaxHops hops (or names a port outside uint16).
class PathOverflowError : public std::length_error {
 public:
  explicit PathOverflowError(const std::string& what) : std::length_error(what) {}
};

class InlinePath {
 public:
  /// Max hops (links) on a path: covers 2x-Valiant on every registry
  /// family plus moderate torus/hypercube outliers, and keeps
  /// sizeof(Packet) at one cache line.
  static constexpr int kMaxHops = 14;

  InlinePath() = default;
  InlinePath(std::initializer_list<int> ports) {
    for (int p : ports) push_back(p);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  /// Output port taken at hop i.
  int operator[](std::size_t i) const { return ports_[i]; }

  void push_back(int port) {
    if (size_ >= kMaxHops) {
      throw PathOverflowError(
          "InlinePath: path exceeds " + std::to_string(kMaxHops) +
          " hops (InlinePath::kMaxHops); this topology/routing pair needs "
          "a larger inline path capacity");
    }
    if (port < 0 || port > 0xFFFF) {
      throw PathOverflowError("InlinePath: port " + std::to_string(port) +
                              " outside the uint16 inline storage");
    }
    ports_[size_++] = static_cast<std::uint16_t>(port);
  }

 private:
  // Deliberately not zero-initialized: size_ governs validity, and a
  // memset per constructed packet is measurable in the injection loop.
  std::uint16_t ports_[kMaxHops];
  std::uint8_t size_ = 0;
};

}  // namespace slimfly::sim
