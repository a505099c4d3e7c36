// Clean twin of hot_alloc_violation.cpp: the same shapes with the
// allocations either moved outside the SF_HOT region (setup time), replaced
// by index arithmetic over preallocated storage, or confined to a throw
// statement (exceptions are off the steady-state path, so building the
// error message may allocate).
#include <cstddef>
#include <stdexcept>
#include <vector>

struct Queue {
  std::vector<int> items;
  std::size_t head = 0;
  std::size_t tail = 0;

  // Setup-time allocation: not annotated, so the linter ignores it.
  void reserve_capacity(std::size_t n) { items.resize(n); }

  /* SF_HOT */ void enqueue(int v) {
    if (tail >= items.size()) {
      throw std::runtime_error("queue overflow at " + std::to_string(tail));
    }
    items[tail] = v;  // preallocated slot: no allocation on the hot path
    ++tail;
  }
};

/* SF_HOT */ int hot_sum(const Queue& q) {
  int s = 0;
  for (std::size_t i = q.head; i < q.tail; ++i) s += q.items[i];
  return s;
}

// Fixed-capacity receivers (InlinePath) never allocate —
// push_back on them writes a preallocated slot, so the rule exempts them.
// A std::vector<T>& parameter references existing storage: also exempt.
struct InlinePath {
  int hops[4];
  int n = 0;
  void push_back(int x) { hops[n++] = x; }
};

/* SF_HOT */ void build_route(InlinePath& out, std::vector<int>& scratch) {
  out.push_back(1);
  (void)scratch;
}

// LazyRing receivers are exempt like InlinePath: the logical capacity is
// fixed at wire() and growth is bounded — at most one slab per doubling up
// to that bound (see scripts/sf_lint.py; hotpath_test enforces the dynamic
// guarantee).
template <typename T>
struct LazyRing {
  void push_back(const T&) {}
};

struct Line {
  LazyRing<int> ring;
  /* SF_HOT */ void push(int v) { ring.push_back(v); }
};
