// Port tx-done tests. A Port schedules its tx-done event only when a packet
// is waiting (net/port.h); these tests drive it side by side with a
// reference port that always schedules one, on identical scripts, and
// require identical logs: every send, every transmission start (the
// drain callback), every delivery and every idle() probe, in order and
// with their times. One case per exact tie between an arrival and the
// position the skipped tx-done would have popped at, plus a randomized one.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/port.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "testlib/seed.h"

namespace acdc::net {
namespace {

constexpr sim::Rate kRate = sim::gigabits_per_second(1);
constexpr sim::Time kProp = sim::microseconds(2);

// The port as it was before tx-done events became conditional: every
// transmission start schedules the delivery and then the tx-done.
class ReferencePort {
 public:
  ReferencePort(sim::Simulator* sim, std::string /*name*/, sim::Rate rate,
                sim::Time propagation_delay, std::unique_ptr<Queue> queue)
      : sim_(sim),
        rate_(rate),
        propagation_delay_(propagation_delay),
        queue_(std::move(queue)) {}

  void set_peer(PacketSink* peer) { peer_ = peer; }
  void set_drain_callback(std::function<void()> fn) {
    on_drain_ = std::move(fn);
  }
  Queue& queue() { return *queue_; }
  bool idle() const { return !transmitting_; }
  void set_propagation_delay(sim::Time delay) { propagation_delay_ = delay; }

  void send(PacketPtr packet) {
    packet->enqueued_at = sim_->now();
    if (!queue_->enqueue(std::move(packet))) return;
    if (!transmitting_) start_transmission();
  }

 private:
  void start_transmission() {
    PacketPtr packet = queue_->dequeue();
    if (packet == nullptr) {
      transmitting_ = false;
      return;
    }
    transmitting_ = true;
    const sim::Time tx = sim::transmission_time(packet->wire_bytes(), rate_);
    const std::uint64_t key = Port::delivery_tie_key(*packet);
    sim_->schedule_keyed(tx + propagation_delay_, key,
                         [peer = peer_, p = std::move(packet)]() mutable {
                           peer->receive(std::move(p));
                         });
    sim_->schedule(tx, [this] { start_transmission(); });
    if (on_drain_) on_drain_();
  }

  sim::Simulator* sim_;
  sim::Rate rate_;
  sim::Time propagation_delay_;
  std::unique_ptr<Queue> queue_;
  PacketSink* peer_ = nullptr;
  std::function<void()> on_drain_;
  bool transmitting_ = false;
};

// Admits every packet but keeps only every other one, so the port sees a
// successful enqueue followed by a dequeue that returns null.
class LossyQueue : public Queue {
 public:
  bool enqueue(PacketPtr packet) override {
    if (++offered_ % 2 == 0) return true;
    accept(std::move(packet));
    return true;
  }

 private:
  std::int64_t offered_ = 0;
};

struct Record {
  char kind;    // s = send, d = transmission start, r = delivery, i = idle
  sim::Time t;  // simulated time of the record
  std::int64_t v;
  bool operator==(const Record&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Record& r) {
  return os << r.kind << "@" << r.t << ":" << r.v;
}

class LogSink : public PacketSink {
 public:
  LogSink(sim::Simulator* sim, std::vector<Record>* log)
      : sim_(sim), log_(log) {}
  void receive(PacketPtr packet) override {
    log_->push_back({'r', sim_->now(), static_cast<std::int64_t>(packet->uid)});
  }

 private:
  sim::Simulator* sim_;
  std::vector<Record>* log_;
};

// One port under test plus the script helpers every case uses.
template <class P>
struct Harness {
  explicit Harness(std::unique_ptr<Queue> queue = nullptr)
      : port(&sim, "p", kRate, kProp,
             queue != nullptr ? std::move(queue)
                              : std::make_unique<DropTailQueue>(1 << 20)) {
    port.set_peer(&sink);
    port.set_drain_callback([this] {
      log.push_back({'d', sim.now(),
                     static_cast<std::int64_t>(port.queue().packet_length())});
      if (on_drain) on_drain();
    });
  }

  void send(std::int64_t payload = 1000) {
    auto p = make_packet();
    p->uid = ++next_uid;
    p->payload_bytes = payload;
    log.push_back({'s', sim.now(), static_cast<std::int64_t>(p->uid)});
    port.send(std::move(p));
  }
  void probe_idle() { log.push_back({'i', sim.now(), port.idle() ? 1 : 0}); }

  sim::Simulator sim;
  std::vector<Record> log;
  LogSink sink{&sim, &log};
  P port;
  std::function<void()> on_drain;
  std::uint64_t next_uid = 0;
};

// Serialisation time of a send() with the default payload.
sim::Time tx_time() {
  auto p = make_packet();
  p->payload_bytes = 1000;
  return sim::transmission_time(p->wire_bytes(), kRate);
}

// Runs `script` against both ports and requires identical logs; returns the
// log for case-specific checks, and each simulator's executed event count.
struct Outcome {
  std::vector<Record> log;
  std::uint64_t port_events = 0;
  std::uint64_t reference_events = 0;
};

template <class Script>
Outcome run_both(Script script,
                 const std::function<std::unique_ptr<Queue>()>& make_queue =
                     [] { return std::make_unique<DropTailQueue>(1 << 20); }) {
  Harness<Port> port(make_queue());
  Harness<ReferencePort> reference(make_queue());
  script(port);
  script(reference);
  EXPECT_EQ(port.log, reference.log);
  EXPECT_EQ(port.sim.now(), reference.sim.now());
  return {port.log, port.sim.executed_events(),
          reference.sim.executed_events()};
}

TEST(PortTxDoneTest, KeyedArrivalAtTxDoneStartsThere) {
  const sim::Time tx = tx_time();
  const Outcome out = run_both([tx](auto& h) {
    h.send();  // A: transmits over [0, tx)
    h.sim.schedule_at_keyed(tx, 5, [&h] {
      h.probe_idle();  // keyed sorts before the tx-done: still busy
      h.send();        // B
    });
    h.sim.run();
  });
  ASSERT_EQ(out.log[2], (Record{'i', tx, 0}));
  EXPECT_EQ(out.log[4], (Record{'d', tx, 0})) << "B starts at A's tx-done";
}

TEST(PortTxDoneTest, UnkeyedArrivalBelowReservedSeqWaitsForTxDone) {
  const sim::Time tx = tx_time();
  const Outcome out = run_both([tx](auto& h) {
    // Scheduled before A starts, so its seq is below the tx-done's.
    h.sim.schedule_at(tx, [&h] {
      h.probe_idle();
      h.send();  // B
    });
    h.send();  // A
    h.sim.schedule_at(tx, [&h] { h.probe_idle(); });  // seq above
    h.sim.run();
  });
  ASSERT_EQ(out.log[2], (Record{'i', tx, 0}));
  // B starts in the tx-done, which sorts before the later probe.
  EXPECT_EQ(out.log[4], (Record{'d', tx, 0}));
  EXPECT_EQ(out.log[5], (Record{'i', tx, 0}));
}

TEST(PortTxDoneTest, UnkeyedArrivalAboveReservedSeqStartsAtOnce) {
  const sim::Time tx = tx_time();
  const Outcome out = run_both([tx](auto& h) {
    h.send();  // A
    h.sim.schedule_at(tx, [&h] {
      h.probe_idle();  // the tx-done would have run first: idle
      h.send();        // B starts inside this event
    });
    h.sim.run();
  });
  ASSERT_EQ(out.log[2], (Record{'i', tx, 1}));
  EXPECT_EQ(out.log[4], (Record{'d', tx, 0}));
  EXPECT_LT(out.port_events, out.reference_events);
}

TEST(PortTxDoneTest, SendAfterRunUntilTxDone) {
  const sim::Time tx = tx_time();
  const Outcome out = run_both([tx](auto& h) {
    h.send();  // A
    h.sim.run_until(tx - 1);
    h.probe_idle();  // busy
    h.send();        // B: waits for A's tx-done
    h.sim.run_until(2 * tx);
    h.probe_idle();  // B's tx-done at 2tx counts as run
    h.port.set_propagation_delay(kProp);  // asserts idle
    h.send();                             // C starts at once
    h.sim.run();
  });
  const std::vector<Record> starts = [&] {
    std::vector<Record> d;
    for (const Record& r : out.log) {
      if (r.kind == 'd') d.push_back(r);
    }
    return d;
  }();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[1].t, tx);
  EXPECT_EQ(starts[2].t, 2 * tx);
}

TEST(PortTxDoneTest, PortIsIdleAfterRunUntilPastLastTxDone) {
  Harness<Port> h;
  h.send();
  EXPECT_FALSE(h.port.idle());
  h.sim.run_until(tx_time());
  EXPECT_TRUE(h.port.idle());
  sim::Simulator other;
  h.port.rebind_simulator(&other);  // asserts idle
  EXPECT_TRUE(h.port.idle());
}

TEST(PortTxDoneTest, NullDequeueEndsTransmission) {
  const sim::Time tx = tx_time();
  run_both(
      [tx](auto& h) {
        h.send();  // kept: starts at 0
        h.send();  // admitted but not kept: the tx-done dequeues null
        h.sim.schedule_at(tx / 2, [&h] { h.send(); });  // kept
        h.sim.schedule_at(3 * tx, [&h] {
          h.send();  // not kept, idle port: start finds nothing
          h.probe_idle();
          h.send();  // kept: starts at once
        });
        h.sim.run();
      },
      [] { return std::make_unique<LossyQueue>(); });
}

// Random scripts: three packet sizes whose serialisation times share a
// factor so tx-done times collide with arrivals, keyed and unkeyed events
// scheduled in random order (random seqs), events that schedule more
// events, sends from the drain callback, sends from outside between
// run_until steps, and a small drop-tail queue.
template <class P>
void random_script(Harness<P>& h, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Wire sizes w, 2w and w/2, so every serialisation time is a multiple
  // of `unit`, the grid the script's event times sit on.
  const sim::Time unit = tx_time() / 2;
  const std::int64_t header = [] { return make_packet()->wire_bytes(); }();
  const std::int64_t payloads[] = {1000, 2000 + header,
                                   (1000 + header) / 2 - header};
  auto pick_payload = [&rng, &payloads] {
    return payloads[std::uniform_int_distribution<int>(0, 2)(rng)];
  };
  int budget = 400;  // total sends, so scripts terminate
  h.on_drain = [&] {
    if (budget > 0 && rng() % 8 == 0) {
      --budget;
      h.send(pick_payload());
    }
  };
  std::function<void(int)> action = [&](int depth) {
    const int kind = static_cast<int>(rng() % 4);
    if (kind == 0) h.probe_idle();
    const int sends = rng() % 4 == 0 ? 1 + static_cast<int>(rng() % 2) : 0;
    for (int i = 0; i < sends && budget > 0; ++i, --budget) {
      h.send(pick_payload());
    }
    if (depth < 3 && rng() % 2 == 0) {
      const sim::Time delay = unit * static_cast<sim::Time>(rng() % 4);
      if (rng() % 2 == 0) {
        h.sim.schedule_keyed(delay, rng() % 4,
                             [&action, depth] { action(depth + 1); });
      } else {
        h.sim.schedule(delay, [&action, depth] { action(depth + 1); });
      }
    }
  };
  sim::Time horizon = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 8; ++i) {
      const sim::Time at =
          h.sim.now() + unit * static_cast<sim::Time>(rng() % 48);
      if (rng() % 2 == 0) {
        h.sim.schedule_at_keyed(at, rng() % 4, [&action] { action(0); });
      } else {
        h.sim.schedule_at(at, [&action] { action(0); });
      }
    }
    if (rng() % 2 == 0 && budget > 0) {
      --budget;
      h.probe_idle();
      h.send(pick_payload());  // from outside any event
    }
    horizon += unit * static_cast<sim::Time>(rng() % 32);
    h.sim.run_until(horizon);
  }
  h.sim.run();
  h.on_drain = nullptr;
}

TEST(PortTxDoneTest, RandomScriptsMatchReference) {
  const std::uint64_t base = testlib::test_seed(16);
  std::uint64_t saved = 0;
  std::uint64_t reference_events = 0;
  for (std::uint64_t s = 0; s < 50; ++s) {
    const std::uint64_t seed = base + s;
    const Outcome out = run_both(
        [seed](auto& h) { random_script(h, seed); },
        [] { return std::make_unique<DropTailQueue>(6000); });
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    saved += out.reference_events - out.port_events;
    reference_events += out.reference_events;
  }
  // About 4% of the reference's events are tx-dones with nothing queued.
  EXPECT_GT(saved, reference_events / 50) << "tx-done events were not skipped";
}

}  // namespace
}  // namespace acdc::net
