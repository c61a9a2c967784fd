// Allocation-free event queue: a 4-ary heap of POD entries over out-of-line
// slot storage, with generation-tagged O(log n) removal on cancel.
//
// Design notes (this is the simulator's hottest structure):
//  - Heap entries are 32-byte PODs {time, key, seq, slot}; sift operations
//    move only these, never the callbacks. Each slot records its entry's
//    heap position, so cancel() takes the entry out of the heap at once and
//    the heap only ever holds live events. This matters because TCP
//    re-arms its RTO on every ACK: flagged-but-kept entries would outnumber
//    the live ones by two orders of magnitude.
//  - Callbacks live in a slot arena (EventAction, small-buffer optimized) and
//    are addressed by index; slots are recycled through a freelist, so
//    steady-state schedule/cancel/fire churn performs zero heap traffic once
//    the arena and heap vectors reach their high-water marks.
//  - An EventId packs {generation, slot}. cancel() validates the generation,
//    so a stale id (slot since recycled) is a no-op — the same contract the
//    old unordered_set gave, without the per-cancel node allocation.
//  - Ties break by an optional explicit key first, then schedule order
//    (monotonic `seq`), preserving the seed's determinism contract exactly.
//    The key exists for packet-delivery events: a content-derived canonical
//    key makes same-timestamp deliveries order identically on the serial
//    and sharded engines, where insertion order necessarily differs (a
//    cross-shard delivery is inserted at mailbox-drain time, not at its
//    causal schedule time). Keyed events order before unkeyed ones at the
//    same timestamp.
//  - reserve_seq() hands out the insertion sequence a schedule() would
//    take, without scheduling anything. A caller that may not need its
//    event (a port's tx-done when its queue is empty) reserves the seq and
//    schedules later only if it must; the event then pops exactly where it
//    would have had it been scheduled at reservation time.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace acdc::sim {

// Identifies a scheduled event so it can be cancelled (e.g. TCP RTO timers).
// Packed {generation:32, slot:32}; generations start at 1 so no valid id is
// ever 0.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

// Tie key for events scheduled without one; sorts after every real key.
inline constexpr std::uint64_t kUnkeyedTieKey = ~std::uint64_t{0};

// Explicit tie sequences (schedule(at, key, tie_seq, action)) occupy the
// upper half of the sequence space so they sort after every locally-inserted
// event with the same (at, key). Cross-shard mail uses
// mail_tie_seq(src_shard, mailbox_seq): the resulting order for (at, key)
// collisions is a pure function of simulation content — (src_shard,
// per-mailbox seq) — independent of when each executor thread happened to
// drain its inboxes. Local insertion counters stay below this bit for the
// lifetime of any feasible run (2^63 events).
inline constexpr std::uint64_t kExplicitTieSeqBit = std::uint64_t{1} << 63;

inline constexpr std::uint64_t mail_tie_seq(std::uint32_t src_shard,
                                            std::uint64_t mailbox_seq) {
  return kExplicitTieSeqBit | (static_cast<std::uint64_t>(src_shard) << 48) |
         (mailbox_seq & ((std::uint64_t{1} << 48) - 1));
}

class EventQueue {
 public:
  // Schedules `action` at absolute time `at`. Ties are broken by insertion
  // order so the simulation is deterministic.
  EventId schedule(Time at, EventAction action);

  // As above with an explicit tie key: same-time events order by key before
  // insertion order, and before any unkeyed event at that time.
  EventId schedule(Time at, std::uint64_t key, EventAction action);

  // As above, but with a caller-supplied tie sequence instead of the
  // insertion counter. Used for cross-shard mail so (at, key) collisions
  // order deterministically regardless of drain timing; `tie_seq` must have
  // kExplicitTieSeqBit set (see mail_tie_seq) and be unique per (at, key),
  // or come from reserve_seq().
  EventId schedule(Time at, std::uint64_t key, std::uint64_t tie_seq,
                   EventAction action);

  // Takes the next insertion sequence without scheduling. Passing it later
  // as `tie_seq` (with any key) places the event where a schedule() made
  // now would have placed it.
  std::uint64_t reserve_seq() { return next_seq_++; }

  // Cancels a pending event. Cancelling an already-fired, already-cancelled
  // or invalid id is a no-op, which keeps timer bookkeeping in callers
  // simple.
  void cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; kNoTime when empty.
  Time next_time() const { return heap_.empty() ? kNoTime : heap_[0].at; }

  struct Next {
    Time at = 0;
    std::uint64_t key = kUnkeyedTieKey;
    std::uint64_t seq = 0;
    EventAction action;
  };

  // Pops the earliest event without running it, so the caller can advance
  // its clock before invoking the action. Precondition: !empty().
  Next take_next();

  std::uint64_t executed_count() const { return executed_; }

  // Capacity introspection for the perf tests: arena / heap high-water
  // marks (steady state must not grow them).
  std::size_t slot_capacity() const { return slots_.size(); }
  std::size_t heap_capacity() const { return heap_.capacity(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Entry {
    Time at = 0;
    std::uint64_t key = kUnkeyedTieKey;  // tie-break 1: explicit key
    std::uint64_t seq = 0;               // tie-break 2: insertion order
    std::uint32_t slot = 0;              // index into slots_
  };

  // A slot's generation matches an outstanding EventId only while its event
  // is in the heap: release_slot() bumps it on fire and on cancel.
  struct Slot {
    EventAction action;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    std::uint32_t heap_pos = 0;  // index of this slot's entry in heap_
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void place(std::size_t i, const Entry& entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void remove_at(std::size_t i);

  std::vector<Entry> heap_;  // 4-ary min-heap ordered by earlier()
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace acdc::sim
