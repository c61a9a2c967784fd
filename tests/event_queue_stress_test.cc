// Stress tests for the 4-ary-heap event queue: cancellation via
// generation-tagged ids, FIFO tie-breaking at equal timestamps, the full pop
// order under randomized schedule/cancel churn checked against a reference
// model, and a heap that stays at its live size under timer re-arming.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "testlib/seed.h"

namespace acdc::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto next = q.take_next();
    next.action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesRunInScheduleOrder) {
  // The determinism contract: ties broken by insertion order, regardless of
  // how the heap arranges them internally.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.take_next().action();
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int ran = 0;
  EventId id = q.schedule(10, [&] { ++ran; });
  q.schedule(20, [&] { ++ran; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.take_next().action();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancelIsIdempotentAndStaleSafe) {
  EventQueue q;
  int ran = 0;
  EventId id = q.schedule(10, [&] { ++ran; });
  q.cancel(id);
  q.cancel(id);  // double cancel: no-op
  EXPECT_TRUE(q.empty());

  // The slot is recycled; the old id's generation no longer matches, so a
  // stale cancel must not kill the new occupant.
  EventId id2 = q.schedule(5, [&] { ++ran; });
  q.cancel(id);  // stale
  EXPECT_EQ(q.size(), 1u);
  q.take_next().action();
  EXPECT_EQ(ran, 1);
  q.cancel(id2);  // executed events are also stale targets: no-op, no crash
}

TEST(EventQueueTest, InvalidIdIsNeverIssued) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(q.schedule(i, [] {}), kInvalidEventId);
  }
  q.cancel(kInvalidEventId);  // must be a harmless no-op
  EXPECT_EQ(q.size(), 1000u);
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue q;
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  EXPECT_EQ(q.next_time(), 10);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

// Randomized churn against a reference model: a std::set of the live
// events' (at, key, seq) order tuples. Unkeyed, keyed and explicit
// mail_tie_seq events are mixed with coarse times and keys so ties are
// common, and cancels pick random live events, i.e. random heap positions,
// so the hole-filling entry must sometimes move up and sometimes down. Every
// pop must be the model's minimum; a cancelled event never runs. Returns the
// execution order so identically-seeded runs can be compared.
std::vector<int> churn_run(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  // (at, key, seq, tag). Local events order by insertion, so a test-side
  // counter stands in for the queue's own sequence; explicit tie sequences
  // carry kExplicitTieSeqBit and sort after every local one.
  using Model = std::tuple<Time, std::uint64_t, std::uint64_t, int>;
  std::set<Model> model;
  std::vector<std::pair<EventId, Model>> live;
  std::vector<EventId> retired;  // fired or cancelled: stale from then on
  std::vector<int> executed;
  std::uint64_t local_seq = 0;
  std::uint64_t mail_seq = 0;
  int tag = 0;

  auto pop_one = [&] {
    ASSERT_FALSE(model.empty());
    const Model expected = *model.begin();
    model.erase(model.begin());
    EXPECT_EQ(q.next_time(), std::get<0>(expected));
    EventQueue::Next next = q.take_next();
    EXPECT_EQ(next.at, std::get<0>(expected));
    next.action();
    ASSERT_EQ(executed.back(), std::get<3>(expected))
        << "pop order diverged from the (at, key, seq) model";
    const int done = executed.back();
    const auto it = std::find_if(live.begin(), live.end(), [done](const auto& l) {
      return std::get<3>(l.second) == done;
    });
    retired.push_back(it->first);
    live.erase(it);
  };

  for (int round = 0; round < 20'000; ++round) {
    const auto action = rng() % 10;
    if (action < 7 || live.empty()) {
      const Time at = static_cast<Time>(rng() % 64);
      const int t = tag++;
      auto fire = [&executed, t] { executed.push_back(t); };
      EventId id = kInvalidEventId;
      Model m;
      switch (rng() % 3) {
        case 0:
          id = q.schedule(at, fire);
          m = {at, kUnkeyedTieKey, ++local_seq, t};
          break;
        case 1: {
          const std::uint64_t key = rng() % 4;
          id = q.schedule(at, key, fire);
          m = {at, key, ++local_seq, t};
          break;
        }
        default: {
          const std::uint64_t key = rng() % 4;
          const std::uint64_t seq =
              mail_tie_seq(static_cast<std::uint32_t>(rng() % 3), ++mail_seq);
          id = q.schedule(at, key, seq, fire);
          m = {at, key, seq, t};
          break;
        }
      }
      model.insert(m);
      live.emplace_back(id, m);
    } else {
      const std::size_t idx = rng() % live.size();
      q.cancel(live[idx].first);
      retired.push_back(live[idx].first);
      model.erase(live[idx].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      // A stale id, whose slot may since hold a new event, is a no-op.
      q.cancel(retired[rng() % retired.size()]);
    }
    EXPECT_EQ(q.size(), model.size());
    // Interleave some pops so slots recycle mid-stream.
    if (rng() % 13 == 0 && !q.empty()) pop_one();
    if (::testing::Test::HasFailure()) return executed;
  }
  while (!q.empty() && !::testing::Test::HasFailure()) pop_one();
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(q.next_time(), kNoTime);
  return executed;
}

TEST(EventQueueStressTest, CancelChurnIsDeterministic) {
  const std::uint64_t seed = testlib::test_seed(7);
  const std::vector<int> a = churn_run(seed);
  const std::vector<int> b = churn_run(seed);
  EXPECT_EQ(a, b) << "identical seeds must produce identical pop orders";
  // ~70% of 20k rounds schedule and ~30% cancel, so well over 5k survive.
  EXPECT_GT(a.size(), 5'000u);
}

// The tenant stack's RTO pattern: every ACK cancels the pending far timer
// and arms a new one 10 ms out, while near events keep firing. A cancelled
// entry must leave the heap at once rather than linger until its time.
TEST(EventQueueStressTest, RearmChurnKeepsHeapAtLiveSize) {
  EventQueue q;
  Time now = 0;
  int rto_fired = 0;
  EventId rto = kInvalidEventId;
  for (int round = 0; round < 100'000; ++round) {
    q.cancel(rto);
    rto = q.schedule(now + milliseconds(10), [&rto_fired] { ++rto_fired; });
    q.schedule(now + microseconds(1), [] {});
    EventQueue::Next next = q.take_next();
    now = next.at;
    next.action();
  }
  EXPECT_EQ(rto_fired, 0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LE(q.heap_capacity(), 64u);
  EXPECT_LE(q.slot_capacity(), 64u);
}

// Two queues fed the same random schedule; in `deferred` every fourth
// event only reserves its seq and is scheduled later with it, at a random
// point before it is due. The pop orders must be identical: a reserved
// event lands exactly where scheduling it at reservation time would have.
std::vector<int> reserve_run(std::uint64_t seed, bool defer) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  struct Held {
    Time at;
    std::uint64_t key;
    std::uint64_t seq;
    int tag;
  };
  std::vector<Held> held;
  std::vector<int> executed;
  Time now = 0;
  std::uint64_t mail_seq = 0;
  int tag = 0;
  auto schedule_held = [&](std::size_t i) {
    const Held h = held[i];
    q.schedule(h.at, h.key, h.seq,
               [&executed, t = h.tag] { executed.push_back(t); });
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
  };
  for (int round = 0; round < 20'000; ++round) {
    const int op = static_cast<int>(rng() % 10);
    const std::uint64_t pick = rng();  // drawn every round: same stream
    if (op < 6) {
      const Time at = now + static_cast<Time>(rng() % 8);
      const int kind = static_cast<int>(rng() % 4);
      const std::uint64_t key = rng() % 3;
      const int t = tag++;
      EventAction action = [&executed, t] { executed.push_back(t); };
      if (kind == 3) {
        q.schedule(at, key, mail_tie_seq(1, mail_seq++), std::move(action));
      } else if (t % 4 == 0 && defer) {
        held.push_back({at, kind == 0 ? key : kUnkeyedTieKey, q.reserve_seq(),
                        t});
      } else if (kind == 0) {
        q.schedule(at, key, std::move(action));
      } else {
        q.schedule(at, std::move(action));
      }
    } else if (op == 6) {
      if (!held.empty()) schedule_held(pick % held.size());
    } else if (!q.empty() || !held.empty()) {
      // Every held event due no later than the head must be in the queue
      // before the head pops.
      const Time head = q.empty() ? kNoTime : q.next_time();
      for (std::size_t i = held.size(); i-- > 0;) {
        if (q.empty() || held[i].at <= head) schedule_held(i);
      }
      EventQueue::Next next = q.take_next();
      now = next.at;
      next.action();
    }
  }
  for (std::size_t i = held.size(); i-- > 0;) schedule_held(i);
  while (!q.empty()) q.take_next().action();
  return executed;
}

TEST(EventQueueStressTest, ReservedSeqPopsWhereItWasReserved) {
  const std::uint64_t seed = testlib::test_seed(11);
  const std::vector<int> direct = reserve_run(seed, false);
  const std::vector<int> deferred = reserve_run(seed, true);
  EXPECT_GT(direct.size(), 10'000u);
  EXPECT_EQ(direct, deferred);
}

TEST(EventQueueStressTest, SlotsRecycleInsteadOfGrowing) {
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) q.schedule(round * 100 + i, [] {});
    while (!q.empty()) q.take_next().action();
  }
  // 6400 events total, but never more than 64 in flight: the slot arena
  // must stay at the high-water mark, not the total.
  EXPECT_LE(q.slot_capacity(), 64u);
  EXPECT_EQ(q.executed_count(), 6400u);
}

TEST(EventQueueTest, InlineActionsNeedNoHeap) {
  // The SBO callback type must keep a capture of a few pointers inline;
  // EventQueue relies on this for allocation-free steady-state scheduling.
  int a = 0, b = 0, c = 0;
  auto fn = [pa = &a, pb = &b, pc = &c] { ++*pa, ++*pb, ++*pc; };
  static_assert(EventAction::stores_inline<decltype(fn)>(),
                "three-pointer capture should fit the inline buffer");
  EventAction act(std::move(fn));
  act();
  EXPECT_EQ(a + b + c, 3);
}

}  // namespace
}  // namespace acdc::sim
