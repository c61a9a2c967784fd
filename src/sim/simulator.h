// The discrete-event simulation driver.
//
// A Simulator owns the virtual clock and the event queue. Components keep a
// non-owning pointer to the Simulator that outlives them (the Simulator is
// always constructed first in a scenario and destroyed last).
//
// It also keeps a mark: the greatest (at, key, seq) position it has run,
// raised to (t, max, max) when run_until or advance_to move the clock to t.
// A component that may not need an event reserves the event's seq instead
// of scheduling it. If it needs the event later, passed() tells whether
// the event would already have run (the component acts as if it had) or
// not (it schedules the event at the reserved position).
#pragma once

#include <cstdint>
#include <limits>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace acdc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `action` to run `delay` from now (delay >= 0). EventAction is
  // small-buffer optimized: callables up to kInlineFunctionBytes schedule
  // without touching the heap.
  EventId schedule(Time delay, EventAction action);

  // Schedules `action` at absolute time `at` (at >= now()).
  EventId schedule_at(Time at, EventAction action);

  // Keyed variants: same-time events order by `key` before insertion order
  // (see EventQueue). Packet deliveries use a content-derived key so the
  // serial and sharded engines order same-tick arrivals identically.
  EventId schedule_keyed(Time delay, std::uint64_t key, EventAction action);
  EventId schedule_at_keyed(Time at, std::uint64_t key, EventAction action);

  // Keyed variant with an explicit tie sequence (see mail_tie_seq): the
  // parallel executor schedules drained cross-shard mail with
  // (src_shard, mailbox_seq) as the tie-break so (at, key) collisions order
  // identically at any thread count and drain timing.
  EventId schedule_at_keyed_seq(Time at, std::uint64_t key,
                                std::uint64_t tie_seq, EventAction action);

  // Reserves the tie sequence the next schedule would take (see
  // EventQueue::reserve_seq); schedule_at_reserved later places an unkeyed
  // event at (at, seq), exactly where scheduling it now would have.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }
  EventId schedule_at_reserved(Time at, std::uint64_t seq,
                               EventAction action);

  // True once an event at (at, key, seq) would already have been popped:
  // some event at or after that position has run, or the clock was moved
  // to `at` or beyond by run_until/advance_to. Only meaningful for a
  // position reserved in the past (an event that could have been in the
  // queue all along).
  bool passed(Time at, std::uint64_t key, std::uint64_t seq) const {
    if (at != mark_.at) return at < mark_.at;
    if (key != mark_.key) return key < mark_.key;
    return seq <= mark_.seq;
  }

  void cancel(EventId id) { queue_.cancel(id); }

  // Runs events until the queue drains. The clock and the mark end at the
  // last event run, so a position reserved past it still counts as ahead.
  void run();

  // Runs events with timestamp <= deadline; the clock ends at
  // max(now, deadline) so periodic samplers see a full final interval.
  void run_until(Time deadline);

  // Runs at most one event. Returns false when the queue is empty.
  bool step();

  // ---- Epoch hooks for the parallel executor (sim/parallel) ----
  // Runs every event with timestamp strictly below `bound`; the clock stays
  // at the last executed event (it does NOT jump to bound), so a later
  // schedule_at from a cross-shard mailbox can still land anywhere in
  // [now, bound).
  void run_before(Time bound);
  // Timestamp of the earliest pending event; kNoTime when the queue is
  // empty. The shard executor uses this to compute the global safe window.
  Time next_event_time() const { return queue_.next_time(); }
  // Moves the clock forward without running anything (end-of-window catch-up
  // so periodic samplers and run_until callers see a full final interval).
  void advance_to(Time t) {
    if (now_ < t) now_ = t;
    mark_run_through(t);
  }

  std::uint64_t executed_events() const { return queue_.executed_count(); }

 private:
  struct Position {
    Time at = 0;
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
  };

  void raise_mark(const Position& p) {
    if (!passed(p.at, p.key, p.seq)) mark_ = p;
  }
  // Every position at tick <= t counts as run.
  void mark_run_through(Time t) {
    raise_mark({t, ~std::uint64_t{0}, ~std::uint64_t{0}});
  }

  Time now_ = 0;
  Position mark_;  // greatest (at, key, seq) run so far
  EventQueue queue_;
};

}  // namespace acdc::sim
