#pragma once
// Single-flit packet, following the paper's choice of one-flit packets to
// isolate routing behaviour from flow-control effects (Section V).
//
// The packet is exactly one cache line (64 bytes), trivially copyable, and
// carries its source route inline (InlinePath: one output port per hop)
// rather than on the heap: the simulator's ring buffers relocate packets
// with single-line copies and the steady-state stepping loop never
// allocates. Every field is sized to its real range (see the
// static_asserts; docs/ARCHITECTURE.md, "hot-path memory layout"):
//   * timestamps are 32-bit cycle counts — Network rejects configs whose
//     horizon could exceed them;
//   * dst_router is uint16, the Network's router-count bound;
//   * the source router is not stored: it is derivable from src_endpoint
//     (Topology::endpoint_router), and routing that walks a path from it
//     (UGAL's cost, the tests' path expansion) does so.

#include <cstdint>
#include <type_traits>

#include "sim/path.hpp"

namespace slimfly::sim {

struct Packet {
  std::int64_t id = 0;
  std::int32_t t_generated = 0;  ///< cycle the endpoint created the packet
  std::int32_t t_injected = 0;   ///< cycle the packet entered its source router
  std::int32_t src_endpoint = -1;
  std::int32_t dst_endpoint = -1;
  std::uint16_t dst_router = 0;

  /// Source route: path[i] is the output port taken at hop i, starting
  /// from the source router; the packet ejects at dst_router once hop ==
  /// path.size(). Empty for per-hop adaptive routing.
  InlinePath path;
  /// Links traversed so far (0 at the source router).
  std::int8_t hop = 0;
  /// VC assigned to the link currently being traversed (set at switch
  /// allocation from RoutingAlgorithm::link_vc).
  std::int8_t wire_vc = 0;
  bool measured = false;         ///< generated inside the measurement window
};

static_assert(std::is_trivially_copyable<Packet>::value,
              "Packet must stay trivially copyable: the hot-path ring "
              "buffers rely on allocation-free relocation");
static_assert(sizeof(Packet) == 64,
              "Packet is sized to exactly one cache line; growing it is a "
              "measurable hot-path regression — shrink something else or "
              "consciously update this assert");

}  // namespace slimfly::sim
