#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace acdc::sim {

namespace {

constexpr EventId pack_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

constexpr std::uint32_t id_generation(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr std::uint32_t id_slot(EventId id) {
  return static_cast<std::uint32_t>(id);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNoSlot;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.action.reset();
  // Bumping the generation here invalidates every EventId already handed out
  // for this slot, so cancels arriving after the fire or cancel are no-ops.
  ++slot.generation;
  if (slot.generation == 0) slot.generation = 1;  // keep ids nonzero
  slot.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::place(std::size_t i, const Entry& entry) {
  heap_[i] = entry;
  slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i) {
  const Entry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(moving, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, moving);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry moving = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + 4 <= n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], moving)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, moving);
}

// Fills the hole at `i` with the last entry, which may belong either above
// or below it.
void EventQueue::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  if (i > 0 && earlier(last, heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

EventId EventQueue::schedule(Time at, EventAction action) {
  return schedule(at, kUnkeyedTieKey, std::move(action));
}

EventId EventQueue::schedule(Time at, std::uint64_t key, EventAction action) {
  return schedule(at, key, next_seq_++, std::move(action));
}

EventId EventQueue::schedule(Time at, std::uint64_t key, std::uint64_t tie_seq,
                             EventAction action) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  heap_.push_back(Entry{at, key, tie_seq, index});
  sift_up(heap_.size() - 1);
  return pack_id(slot.generation, index);
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t index = id_slot(id);
  if (index >= slots_.size() || slots_[index].generation != id_generation(id)) {
    return;  // already fired, already cancelled, or a recycled slot
  }
  remove_at(slots_[index].heap_pos);
  release_slot(index);
}

EventQueue::Next EventQueue::take_next() {
  assert(!heap_.empty());
  const std::uint32_t index = heap_[0].slot;
  Next next{heap_[0].at, heap_[0].key, heap_[0].seq,
            std::move(slots_[index].action)};
  remove_at(0);
  release_slot(index);
  ++executed_;
  return next;
}

}  // namespace acdc::sim
