// A per-(input port, VC) buffer is a LazyRing<Packet> of capacity
// buffer_per_vc: FIFO order, and a named error on a push past capacity (a
// credit-protocol violation) or a read of an empty buffer.

#include <gtest/gtest.h>

#include "sim/packet.hpp"
#include "sim/ring.hpp"

namespace slimfly::sim {
namespace {

Packet make_packet(std::int64_t id) {
  Packet p;
  p.id = id;
  return p;
}

TEST(VcRing, FifoOrder) {
  LazyRing<Packet> buf(4);
  for (int i = 0; i < 4; ++i) buf.push_back(make_packet(i));
  EXPECT_TRUE(buf.full());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(buf.front().id, i);
    EXPECT_EQ(buf.pop_front().id, i);
  }
  EXPECT_TRUE(buf.empty());
}

TEST(VcRing, OverflowThrows) {
  LazyRing<Packet> buf(1);
  buf.push_back(make_packet(0));
  EXPECT_THROW(buf.push_back(make_packet(1)), std::logic_error);
}

TEST(VcRing, UnderflowThrows) {
  LazyRing<Packet> buf(1);
  EXPECT_THROW(buf.pop_front(), std::logic_error);
  EXPECT_THROW(buf.drop_front(), std::logic_error);
  EXPECT_THROW(buf.front(), std::logic_error);
}

TEST(VcRing, ZeroCapacityAlwaysFull) {
  LazyRing<Packet> buf(0);
  EXPECT_TRUE(buf.full());
  EXPECT_THROW(buf.push_back(make_packet(0)), std::logic_error);
}

}  // namespace
}  // namespace slimfly::sim
