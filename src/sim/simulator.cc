#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace acdc::sim {

EventId Simulator::schedule(Time delay, EventAction action) {
  assert(delay >= 0);
  return queue_.schedule(now_ + delay, std::move(action));
}

EventId Simulator::schedule_at(Time at, EventAction action) {
  assert(at >= now_);
  return queue_.schedule(at, std::move(action));
}

EventId Simulator::schedule_keyed(Time delay, std::uint64_t key,
                                  EventAction action) {
  assert(delay >= 0);
  return queue_.schedule(now_ + delay, key, std::move(action));
}

EventId Simulator::schedule_at_keyed(Time at, std::uint64_t key,
                                     EventAction action) {
  assert(at >= now_);
  return queue_.schedule(at, key, std::move(action));
}

EventId Simulator::schedule_at_keyed_seq(Time at, std::uint64_t key,
                                         std::uint64_t tie_seq,
                                         EventAction action) {
  assert(at >= now_);
  assert(tie_seq & kExplicitTieSeqBit);
  return queue_.schedule(at, key, tie_seq, std::move(action));
}

EventId Simulator::schedule_at_reserved(Time at, std::uint64_t seq,
                                        EventAction action) {
  assert(at >= now_);
  assert(!passed(at, kUnkeyedTieKey, seq));
  return queue_.schedule(at, kUnkeyedTieKey, seq, std::move(action));
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time deadline) {
  while (!queue_.empty()) {
    const Time next = queue_.next_time();
    if (next == kNoTime || next > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
  mark_run_through(deadline);
}

void Simulator::run_before(Time bound) {
  while (!queue_.empty()) {
    const Time next = queue_.next_time();
    if (next == kNoTime || next >= bound) break;
    step();
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Next next = queue_.take_next();
  now_ = next.at;
  raise_mark({next.at, next.key, next.seq});
  next.action();
  return true;
}

}  // namespace acdc::sim
