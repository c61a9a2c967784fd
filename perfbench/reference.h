// The reference loop: a fixed piece of host work, run in short slices
// between an episode's simulated chunks, whose speed tells how fast the
// machine was while that episode ran.
//
// On a shared host the simulator's speed moves by tens of percent with the
// load other tenants put on the caches and memory, in phases that can last
// longer than a run. The loop is shaped like the simulator's hot path (a
// binary min-heap of timestamps popped and re-pushed, as an event queue
// does, plus a random read-modify-write into a table larger than the L2
// cache, as flow-table and packet accesses are), so it slows down with the
// simulator. The benchmark scales its host times by the loop's speed
// during the same episode relative to its nominal speed. The loop is not
// part of the simulator, so a change to the simulator moves the scaled
// numbers as it moves the raw ones.
#pragma once

#include <cstdint>
#include <vector>

namespace acdc::perfbench {

class ReferenceLoop {
 public:
  // The time per step the scaled figures are quoted at. Its value only
  // sets their scale: a round figure near what one step took on the box
  // of record (README.md), where runs measured 180-260 ns.
  static constexpr double kNominalNsPerStep = 200.0;

  ReferenceLoop();

  // Runs `steps` steps and returns the host seconds they took.
  double run(std::int64_t steps);

 private:
  std::vector<std::uint64_t> heap_;   // min-heap of timestamps
  std::vector<std::uint64_t> table_;  // power-of-two size
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

// Host time spent in reference steps, and its slowdown: the ratio of the
// measured time per step to the nominal one, 1.0 at the nominal speed and
// above 1 when the machine ran slower.
struct RefTime {
  double s = 0;
  std::int64_t steps = 0;

  double slowdown() const;
};

// Runs each loop in slices of `slice_steps` steps until it has run for at
// least `seconds`, the first on the calling thread and each other one on a
// thread of its own, all at once: with one loop per worker thread of a
// sharded episode, the loops see the load on as many cores as the workers
// did. Adds every loop's time to *all and the first loop's to *first.
void run_for(std::vector<ReferenceLoop>& loops, double seconds,
             std::int64_t slice_steps, RefTime* all, RefTime* first);

}  // namespace acdc::perfbench
