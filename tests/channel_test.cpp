#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "sim/channel.hpp"

namespace slimfly::sim {
namespace {

// A TimedLine with the head slot its owner would hold (in the Network, a
// RouterState field or array entry).
struct Line {
  explicit Line(std::size_t capacity) { line.init(capacity); }

  void push(std::int64_t ready, int item) {
    line.push_slot(ready, head) = item;
  }

  /// Pops the front item if it is ready at `cycle`, reading only the slot.
  std::optional<int> pop_ready(std::int64_t cycle) {
    if (head > cycle) return std::nullopt;
    const int item = line.front();
    line.drop_front(head);
    return item;
  }

  TimedLine<int> line;
  std::int32_t head = kLineIdle;
};

TEST(TimedLine, NotReadyBeforeTime) {
  Line l(4);
  l.push(10, 42);
  EXPECT_FALSE(l.pop_ready(9).has_value());
  auto v = l.pop_ready(10);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(l.line.empty());
  EXPECT_EQ(l.head, kLineIdle);
}

TEST(TimedLine, FifoWithConstantLatency) {
  Line l(4);
  l.push(5, 1);
  l.push(6, 2);
  l.push(7, 3);
  EXPECT_EQ(l.line.size(), 3u);
  EXPECT_EQ(*l.pop_ready(100), 1);
  EXPECT_EQ(*l.pop_ready(100), 2);
  EXPECT_EQ(*l.pop_ready(100), 3);
  EXPECT_FALSE(l.pop_ready(100).has_value());
}

TEST(TimedLine, HeadOfLineBlocksLaterItems) {
  // Constant latency means the head is always the earliest; a not-ready
  // head implies nothing behind it is ready either.
  Line l(4);
  l.push(10, 1);
  l.push(11, 2);
  EXPECT_FALSE(l.pop_ready(9).has_value());
  EXPECT_EQ(*l.pop_ready(10), 1);
  EXPECT_FALSE(l.pop_ready(10).has_value());
}

TEST(TimedLine, FixedCapacityOverflowThrows) {
  // Lines are sized once at wire() from the flow-control occupancy bound;
  // pushing past that bound is a protocol violation, not a resize request.
  Line l(2);
  l.push(5, 1);
  l.push(5, 2);
  EXPECT_THROW(l.push(5, 3), std::logic_error);
  EXPECT_EQ(*l.pop_ready(5), 1);
  l.push(6, 4);  // slot freed; wrap-around reuse
  EXPECT_EQ(*l.pop_ready(6), 2);
  EXPECT_EQ(*l.pop_ready(6), 4);
}

}  // namespace
}  // namespace slimfly::sim
