#include "sim/workload.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "exp/json.hpp"

namespace slimfly::sim {

namespace {

namespace json = ::slimfly::exp::json;

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw std::invalid_argument(where + ": " + msg);
}

/// Strict decimal parse for endpoint ids and message indices: digits only,
/// capped at 9 chars so the value always fits an int32.
long parse_decimal(const std::string& where, const std::string& text,
                   const std::string& what) {
  if (text.empty() || text.size() > 9 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    fail(where, what + " \"" + text + "\" is not a decimal number");
  }
  return std::stol(text);
}

std::string msg_id(int endpoint, std::int64_t index) {
  return std::to_string(endpoint) + "." + std::to_string(index);
}

/// Vector index of a flat message or endpoint number.
std::size_t ix(std::int64_t i) { return static_cast<std::size_t>(i); }

/// Reverse `after:` index in CSR form, for the cycle check: the listed
/// endpoints (slots into WorkloadTrace::endpoints) whose messages wait on
/// message m are slot[first[m] .. first[m+1]), in trace order.
struct Dependents {
  std::vector<std::int32_t> first;
  std::vector<std::int32_t> slot;
};

Dependents dependents_of(const WorkloadTrace& trace) {
  Dependents d;
  d.first.assign(trace.messages.size() + 1, 0);
  for (const TraceMessage& m : trace.messages) {
    if (m.after >= 0) ++d.first[ix(m.after)];
  }
  // Counts become list ends; filling backwards leaves first[m] at the start
  // of m's list and each list in trace order.
  std::partial_sum(d.first.begin(), d.first.end(), d.first.begin());
  d.slot.resize(ix(d.first.back()));
  for (std::size_t s = trace.endpoints.size(); s-- > 0;) {
    for (std::int32_t v = trace.end_of(s); v-- > trace.endpoints[s].first;) {
      const std::int32_t a = trace.messages[ix(v)].after;
      if (a >= 0) d.slot[ix(--d.first[ix(a)])] = static_cast<std::int32_t>(s);
    }
  }
  return d;
}

/// Rejects any dependency cycle over the combined graph: explicit `after:`
/// edges plus the implicit per-endpoint FIFO edges. The Kahn pass replays
/// the trace with instant delivery: an endpoint sends while its head's
/// dependency is done, and every message done requeues the endpoints that
/// wait on it. Messages left undone mean a cycle; the error then walks
/// predecessor links from the first undone message until it revisits one,
/// so the named message is genuinely on a cycle (not merely downstream of
/// one).
void check_acyclic(const std::string& where, const WorkloadTrace& trace) {
  const Dependents deps = dependents_of(trace);
  const std::size_t slots = trace.endpoints.size();
  std::vector<std::int32_t> next(slots);
  std::vector<std::int32_t> ready(slots);
  for (std::size_t s = 0; s < slots; ++s) next[s] = trace.endpoints[s].first;
  std::iota(ready.begin(), ready.end(), 0);
  enum : char { kUndone, kDone, kSeen };
  std::vector<char> state(trace.messages.size(), kUndone);
  std::size_t done = 0;
  while (!ready.empty()) {
    const auto s = ix(ready.back());
    ready.pop_back();
    for (std::int32_t& v = next[s]; v < trace.end_of(s); ++v) {
      const std::int32_t a = trace.messages[ix(v)].after;
      if (a >= 0 && state[ix(a)] != kDone) break;
      state[ix(v)] = kDone;
      ++done;
      ready.insert(ready.end(), deps.slot.begin() + deps.first[ix(v)],
                   deps.slot.begin() + deps.first[ix(v) + 1]);
    }
  }
  if (done == trace.messages.size()) return;

  // Every undone message has an undone predecessor (its `after:` target or
  // else its FIFO predecessor), so the walk must revisit within
  // messages.size() steps.
  std::int32_t v = 0;
  while (state[ix(v)] == kDone) ++v;
  while (state[ix(v)] != kSeen) {
    state[ix(v)] = kSeen;
    const std::int32_t a = trace.messages[ix(v)].after;
    v = a >= 0 && state[ix(a)] != kDone ? a : v - 1;
  }
  const auto owner = std::upper_bound(
      trace.endpoints.begin(), trace.endpoints.end(), v,
      [](std::int32_t m, const TraceEndpoint& e) { return m < e.first; }) - 1;
  fail(where, "dependency cycle involving message " +
                  msg_id(owner->id, v - owner->first) +
                  " (after: edges plus per-endpoint FIFO order must form a "
                  "DAG)");
}

/// Self-clocked replay of a validated WorkloadTrace. Endpoint e's head
/// message is eligible once its `after:` dependency has been delivered and
/// its FIFO predecessor has been sent; eligibility flips only in the serial
/// between-cycles completion pass (Network::apply_completions), so the
/// replay schedule is identical for every shard count and stepping engine.
/// The replay owns the trace's flat table and adds a cursor per endpoint, a
/// delivered bit per message and a reverse index over the foreign edges
/// only — all built at construction, so the hot path never allocates.
///
/// A delivery unlocks by receiver: the message's destination is the usual
/// waiter (every generated collective and a request/reply trace wait on
/// what they received), so on_delivered first checks that endpoint's head.
/// An `after:` edge whose waiter is not the awaited message's receiver is
/// foreign; only the messages such edges await are indexed, so the index
/// is empty for those traces and costs nothing per message.
class DependencyReplay final : public TrafficPattern {
 public:
  DependencyReplay(int num_endpoints, WorkloadTrace trace,
                   std::string display_name)
      : name_(std::move(display_name)),
        trace_(std::move(trace)),
        cursor_(ix(num_endpoints)),
        delivered_((trace_.messages.size() + 63) / 64, 0) {
    const std::string where = "traffic \"" + name_ + "\"";
    // Messages some endpoint other than their receiver waits on.
    std::vector<std::int32_t> awaited;
    bool any_edge = false;
    for (std::size_t s = 0; s < trace_.endpoints.size(); ++s) {
      const TraceEndpoint& ep = trace_.endpoints[s];
      if (ep.id < 0 || ep.id >= num_endpoints) {
        fail(where, "trace endpoint " + std::to_string(ep.id) +
                        " out of range (topology has " +
                        std::to_string(num_endpoints) + " endpoints)");
      }
      const std::int32_t end = trace_.end_of(s);
      for (std::int32_t m = ep.first; m < end; ++m) {
        const TraceMessage& msg = trace_.messages[ix(m)];
        if (msg.dst < 0 || msg.dst >= num_endpoints) {
          fail(where, "message " + msg_id(ep.id, m - ep.first) +
                          " destination " + std::to_string(msg.dst) +
                          " out of range (topology has " +
                          std::to_string(num_endpoints) + " endpoints)");
        }
        if (msg.after < 0) continue;
        any_edge = true;
        if (trace_.messages[ix(msg.after)].dst != ep.id) {
          awaited.push_back(msg.after);
        }
      }
      cursor_[ix(ep.id)] = {ep.first, ep.first, end, after_of(ep.first, end), 0};
    }
    fanout_ = any_edge ? 1 : 0;  // a receiver waits on each message once
    if (awaited.empty()) return;
    std::sort(awaited.begin(), awaited.end());
    awaited.erase(std::unique(awaited.begin(), awaited.end()), awaited.end());
    // Every waiter of those messages once, the receiver included so that
    // completion_fanout() counts it.
    for (std::size_t s = 0; s < trace_.endpoints.size(); ++s) {
      for (std::int32_t m = trace_.endpoints[s].first; m < trace_.end_of(s);
           ++m) {
        const std::int32_t a = trace_.messages[ix(m)].after;
        if (a >= 0 && std::binary_search(awaited.begin(), awaited.end(), a)) {
          foreign_.emplace_back(a, trace_.endpoints[s].id);
        }
      }
    }
    std::sort(foreign_.begin(), foreign_.end());
    foreign_.erase(std::unique(foreign_.begin(), foreign_.end()),
                   foreign_.end());
    for (auto first = foreign_.begin(); first != foreign_.end();) {
      auto last = first;
      while (last != foreign_.end() && last->first == first->first) ++last;
      fanout_ = std::max(fanout_, static_cast<std::size_t>(last - first));
      first = last;
    }
  }

  std::string name() const override { return name_; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    // Self-clocked patterns generate through next_send; the Bernoulli
    // destination hook is never consulted by the engine.
    (void)src;
    (void)rng;
    return -1;
  }
  bool is_active(int src) const override {
    const Cursor& c = cursor_[ix(src)];
    return c.first < c.end;
  }

  bool self_clocked() const override { return true; }

  bool pending_eligible(int src) const override {
    const Cursor& c = cursor_[ix(src)];
    return c.next < c.end && dep_satisfied(c.head_after);
  }

  /* SF_HOT */ int next_send(int src, std::int64_t cycle,
                std::int64_t* dep_stall) override {
    Cursor& c = cursor_[ix(src)];
    if (c.next >= c.end) return -1;
    if (!dep_satisfied(c.head_after)) return -1;
    if (dep_stall) {
      // The engine pops an eligible head at the first injection phase after
      // max(FIFO-ready, dependency-delivered), so cycle − head_ready is
      // exactly the dependency-induced wait (0 for dependency-free sends).
      *dep_stall = c.head_after >= 0
                       ? std::max<std::int64_t>(0, cycle - c.head_ready)
                       : 0;
    }
    const int dst = trace_.messages[ix(c.next)].dst;
    ++c.next;
    c.head_after = after_of(c.next, c.end);
    c.head_ready = cycle + 1;
    return dst;
  }

  /* SF_HOT */ void on_delivered(int src, std::int64_t seq,
                                 std::vector<int>& unlocked) override {
    if (ix(src) >= cursor_.size()) return;
    const Cursor& c = cursor_[ix(src)];
    if (seq < 0 || seq >= c.end - c.first) return;
    const auto m = static_cast<std::int32_t>(c.first + seq);
    delivered_[ix(m) / 64] |= std::uint64_t{1} << (m % 64);
    const int receiver = trace_.messages[ix(m)].dst;
    unlock_if_waiting(receiver, m, unlocked);
    for (auto it = std::lower_bound(foreign_.begin(), foreign_.end(),
                                    Edge{m, INT32_MIN});
         it != foreign_.end() && it->first == m; ++it) {
      if (it->second != receiver) unlock_if_waiting(it->second, m, unlocked);
    }
  }

  std::size_t completion_fanout() const override { return fanout_; }

 private:
  /// Endpoint e sends messages [first, end) in order; `next` is its head.
  struct Cursor {
    std::int32_t first = 0;
    std::int32_t next = 0;
    std::int32_t end = 0;
    /// The head's `after:` (−1 for none or past the end), kept here so an
    /// unlock check reads the cursor alone.
    std::int32_t head_after = -1;
    std::int64_t head_ready = 0;  ///< cycle the head became FIFO-ready
  };
  /// (awaited message, waiting endpoint id).
  using Edge = std::pair<std::int32_t, std::int32_t>;

  bool dep_satisfied(std::int32_t after) const {
    return after < 0 || ((delivered_[ix(after) / 64] >> (after % 64)) & 1) != 0;
  }
  /// `after:` of message `next`, or −1 when next == end (list exhausted).
  std::int32_t after_of(std::int32_t next, std::int32_t end) const {
    return next < end ? trace_.messages[ix(next)].after : -1;
  }

  /// Lists `endpoint` when its head was blocked on exactly message m.
  /* SF_HOT */ void unlock_if_waiting(int endpoint, std::int32_t m,
                                      std::vector<int>& unlocked) const {
    if (cursor_[ix(endpoint)].head_after == m) {
      unlocked.push_back(endpoint);  // sf-lint: allow(hot-alloc) caller's scratch, reserved to completion_fanout() in wire()
    }
  }

  std::string name_;
  WorkloadTrace trace_;
  std::vector<Cursor> cursor_;
  std::vector<std::uint64_t> delivered_;  ///< bit per message: ejected yet
  /// Every waiter of each message that some endpoint other than its
  /// receiver waits on, sorted, each (message, waiter) once.
  std::vector<Edge> foreign_;
  std::size_t fanout_ = 0;  ///< distinct waiters of one message, at most
};

/// Trailing zero bits of v > 0 (log2 of a power of two).
int ctz(int v) {
  int c = 0;
  while (((v >> c) & 1) == 0) ++c;
  return c;
}

}  // namespace

WorkloadTrace parse_workload_trace(const std::string& text,
                                   const std::string& origin) {
  const std::string where =
      origin.empty() ? std::string("workload trace") : origin;
  json::Value root = json::parse(text, origin);
  if (!root.is_object()) fail(where, "expected a trace object at top level");

  WorkloadTrace out;
  out.name = "trace";
  const json::Value* endpoints = nullptr;
  for (const auto& [key, value] : root.object) {
    if (key == "trace") {
      out.name = value.as_string(where + ": trace");
    } else if (key == "endpoints") {
      endpoints = &value;
    } else {
      fail(where, "unknown key \"" + key +
                      "\" (a trace has \"trace\" and \"endpoints\")");
    }
  }
  if (!endpoints) fail(where, "missing \"endpoints\" object");
  const auto& members = endpoints->as_object(where + ": endpoints");
  if (members.empty()) {
    fail(where, "\"endpoints\" must list at least one endpoint");
  }

  // Pass 1: endpoints, destinations, and raw `after:` references (resolved
  // in pass 2 once every endpoint's list length is known).
  std::unordered_map<int, std::size_t> slot_of;
  std::vector<std::string> raw_after;
  for (const auto& [key, value] : members) {
    const int endpoint =
        static_cast<int>(parse_decimal(where, key, "endpoint key"));
    if (!slot_of.emplace(endpoint, out.endpoints.size()).second) {
      // The JSON layer rejects textually duplicate keys; this catches
      // numerically equal spellings like "7" vs "007".
      fail(where, "endpoint " + std::to_string(endpoint) +
                      " is declared more than once");
    }
    const std::string ctx = where + ": endpoint " + std::to_string(endpoint);
    const std::size_t first = out.messages.size();
    out.endpoints.push_back({endpoint, static_cast<std::int32_t>(first)});
    for (const auto& entry : value.as_array(ctx)) {
      const auto index = static_cast<std::int64_t>(out.messages.size() - first);
      const std::string mctx = where + ": message " + msg_id(endpoint, index);
      if (!entry.is_object()) fail(where, mctx + " must be an object");
      TraceMessage m;
      std::string after;
      for (const auto& [mkey, mval] : entry.object) {
        if (mkey == "dst") {
          const double d = mval.as_number(mctx + ": dst");
          if (d < 0 || d > 2147483647.0 || d != static_cast<int>(d)) {
            fail(where, mctx + ": dst must be a non-negative endpoint id");
          }
          m.dst = static_cast<int>(d);
        } else if (mkey == "after") {
          after = mval.as_string(mctx + ": after");
        } else {
          fail(where, mctx + ": unknown key \"" + mkey +
                          "\" (a message has \"dst\" and \"after\")");
        }
      }
      if (m.dst < 0) fail(where, mctx + " is missing \"dst\"");
      if (m.dst == endpoint) fail(where, mctx + " sends to itself");
      out.messages.push_back(m);
      raw_after.push_back(std::move(after));
    }
  }
  if (out.messages.size() > INT32_MAX) {
    fail(where, "more than " + std::to_string(INT32_MAX) +
                    " messages (message indices are 32-bit)");
  }

  // Pass 2: resolve each `after:` reference to a flat message index.
  for (std::size_t s = 0; s < out.endpoints.size(); ++s) {
    const TraceEndpoint& ep = out.endpoints[s];
    for (std::int32_t v = ep.first; v < out.end_of(s); ++v) {
      const std::string& ref = raw_after[ix(v)];
      if (ref.empty()) continue;
      const std::string mctx = where + ": message " +
                               msg_id(ep.id, v - ep.first) + ": after \"" +
                               ref + "\"";
      const auto dot = ref.find('.');
      if (dot == std::string::npos) {
        fail(where, mctx + " is not of the form \"<endpoint>.<index>\"");
      }
      const int dep_src = static_cast<int>(
          parse_decimal(mctx, ref.substr(0, dot), "endpoint"));
      const long dep_idx =
          parse_decimal(mctx, ref.substr(dot + 1), "message index");
      const auto dep = slot_of.find(dep_src);
      if (dep == slot_of.end()) {
        fail(where, mctx + " references undeclared endpoint " +
                        std::to_string(dep_src));
      }
      const std::int32_t dep_first = out.endpoints[dep->second].first;
      const std::int32_t dep_count = out.end_of(dep->second) - dep_first;
      if (dep_idx >= dep_count) {
        fail(where, mctx + " references a message that does not exist "
                        "(endpoint " + std::to_string(dep_src) + " has " +
                        std::to_string(dep_count) + " messages)");
      }
      const auto after = static_cast<std::int32_t>(dep_first + dep_idx);
      if (after == v) fail(where, mctx + " depends on itself");
      out.messages[ix(v)].after = after;
    }
  }

  check_acyclic(where, out);
  return out;
}

WorkloadTrace load_workload_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    throw std::invalid_argument(
        "cannot read trace file \"" + path +
        "\" (the path resolves against the working directory)");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_workload_trace(buffer.str(), path);
}

std::string allreduce_error(int ranks, const std::string& algo) {
  if (ranks < 2) return "ranks must be >= 2";
  if (algo == "ring") {
    const std::int64_t messages = 2 * std::int64_t{ranks} * (ranks - 1);
    if (messages <= INT32_MAX) return "";
    return "algo=ring with ranks=" + std::to_string(ranks) +
           " needs 2R(R-1) = " + std::to_string(messages) +
           " messages, above the bound of " + std::to_string(INT32_MAX);
  }
  if (algo == "tree") {
    if ((ranks & (ranks - 1)) == 0) return "";
    return "algo=tree requires power-of-two ranks (got " +
           std::to_string(ranks) + ")";
  }
  return "algo=" + algo + " (ring or tree)";
}

WorkloadTrace make_allreduce_trace(int ranks, const std::string& algo) {
  const std::string error = allreduce_error(ranks, algo);
  if (!error.empty()) throw std::invalid_argument("allreduce: " + error);
  WorkloadTrace out;
  out.name = "allreduce-" + algo;
  const auto at = [&out](int rank, int index) {
    return out.endpoints[ix(rank)].first + index;
  };
  if (algo == "ring") {
    // Reduce-scatter then all-gather: 2(R−1) phased rounds around the ring.
    // Round k of rank i forwards to (i+1) mod R and waits for the chunk it
    // received in round k−1 from (i−1) mod R.
    const int rounds = 2 * (ranks - 1);
    for (int i = 0; i < ranks; ++i) out.endpoints.push_back({i, i * rounds});
    out.messages.reserve(ix(ranks) * ix(rounds));
    for (int i = 0; i < ranks; ++i) {
      for (int k = 0; k < rounds; ++k) {
        out.messages.push_back(
            {(i + 1) % ranks, k > 0 ? at((i - 1 + ranks) % ranks, k - 1) : -1});
      }
    }
    return out;
  }
  // Binomial reduce to rank 0, then binomial broadcast back out. Each
  // message waits on the arrival that ends its phase (messages carry a
  // single `after:` edge; the per-endpoint FIFO serializes the rest).
  // Rank j's list is one reduce send (j ≠ 0) then phases(j) broadcasts.
  const auto phases = [levels = ctz(ranks)](int j) {
    return j == 0 ? levels : ctz(j);
  };
  std::int32_t total = 0;
  for (int j = 0; j < ranks; ++j) {
    out.endpoints.push_back({j, total});
    total += (j != 0) + phases(j);
  }
  out.messages.reserve(ix(total));
  for (int j = 0; j < ranks; ++j) {
    const int c = phases(j);
    if (j != 0) {  // reduce: send the partial up at phase c
      out.messages.push_back(  // after the last child to report
          {j - (1 << c), c > 0 ? at(j + (1 << (c - 1)), 0) : -1});
    }
    // broadcast: forward the result down at phases c−1 .. 0.
    for (int t = c - 1; t >= 0; --t) {
      std::int32_t after = -1;
      if (t == c - 1) {  // first forward waits for the result to arrive
        if (j == 0) {
          after = at(ranks / 2, 0);  // the root's last reduce arrival
        } else {
          // Parent p = j − 2^c forwards to j as its broadcast message for
          // phase c; compute that message's index in p's list.
          const int p = j - (1 << c);
          after = at(p, (p != 0) + (phases(p) - 1 - c));
        }
      }
      out.messages.push_back({j + (1 << t), after});
    }
  }
  return out;
}

std::unique_ptr<TrafficPattern> make_dependency_replay(
    int num_endpoints, WorkloadTrace trace, std::string display_name) {
  if (num_endpoints < 2) {
    throw std::invalid_argument("dependency replay: need >= 2 endpoints");
  }
  return std::make_unique<DependencyReplay>(num_endpoints, std::move(trace),
                                            std::move(display_name));
}

}  // namespace slimfly::sim
