// Unit tests for the discrete-event core: ordering, cancellation,
// determinism, time helpers.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "testlib/seed.h"

namespace acdc::sim {
namespace {

TEST(TimeTest, Literals) {
  EXPECT_EQ(microseconds(1), 1'000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(0.5), 500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

TEST(TimeTest, TransmissionTime) {
  // 1500B at 10Gbps = 1.2us.
  EXPECT_EQ(transmission_time(1500, gigabits_per_second(10)), 1'200);
  // 9000B at 1Gbps = 72us.
  EXPECT_EQ(transmission_time(9000, gigabits_per_second(1)), 72'000);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.take_next().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.take_next().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.take_next().action();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelInvalidIsNoop) {
  EventQueue q;
  q.schedule(10, [] {});
  q.cancel(kInvalidEventId);
  q.cancel(999);  // never issued
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(SimulatorTest, ClockAdvances) {
  Simulator sim;
  Time seen = -1;
  sim.schedule(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) sim.schedule(10, tick);
  };
  sim.schedule(10, tick);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, RunUntilStopsAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

// passed() answers whether an event at a reserved position would already
// have run: once a later position pops, even if a still later-scheduled
// keyed event at the same tick then pops below it, and once run_until or
// advance_to moved the clock to its tick.
TEST(SimulatorTest, PassedTracksTheGreatestRunPosition) {
  Simulator sim;
  const std::uint64_t reserved = sim.reserve_seq();
  EXPECT_FALSE(sim.passed(10, kUnkeyedTieKey, reserved));
  bool checked = false;
  sim.schedule_at(10, [&] {
    EXPECT_TRUE(sim.passed(10, kUnkeyedTieKey, reserved));
    sim.schedule_keyed(0, 3, [&] {
      EXPECT_TRUE(sim.passed(10, kUnkeyedTieKey, reserved));
      EXPECT_FALSE(sim.passed(10, kUnkeyedTieKey, sim.reserve_seq()));
      checked = true;
    });
  });
  sim.schedule_at_keyed(10, 7, [&] {
    EXPECT_FALSE(sim.passed(10, kUnkeyedTieKey, reserved));
    EXPECT_TRUE(sim.passed(10, 7, 0));
    EXPECT_FALSE(sim.passed(10, 8, 0));
  });
  sim.run();
  EXPECT_TRUE(checked);

  const std::uint64_t later = sim.reserve_seq();
  EXPECT_FALSE(sim.passed(20, kUnkeyedTieKey, later));
  sim.run_until(19);
  EXPECT_FALSE(sim.passed(20, 0, later));
  sim.advance_to(20);
  EXPECT_TRUE(sim.passed(20, kUnkeyedTieKey, later));
}

TEST(SimulatorTest, ReservedEventRunsAtItsReservedPosition) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(1); });
  const std::uint64_t seq = sim.reserve_seq();
  sim.schedule_at(10, [&] { order.push_back(3); });
  sim.schedule_at(5, [&] {
    sim.schedule_at_reserved(10, seq, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, CancelTimer) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(RngTest, DeterministicAcrossInstances) {
  const std::uint64_t seed = testlib::test_seed(42);
  Rng a(seed);
  Rng b(seed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(testlib::test_seed(7));
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(testlib::test_seed(7));
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(testlib::test_seed(7));
  double sum = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / kN, 100.0, 3.0);
}

TEST(RngTest, PickCumulativeRespectsWeights) {
  Rng rng(testlib::test_seed(7));
  std::vector<double> cum{1.0, 1.0 + 9.0};  // weights 1 and 9
  int counts[2] = {0, 0};
  for (int i = 0; i < 10'000; ++i) ++counts[rng.pick_cumulative(cum)];
  EXPECT_GT(counts[1], counts[0] * 5);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(testlib::test_seed(7));
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace acdc::sim
