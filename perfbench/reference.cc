#include "reference.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

namespace acdc::perfbench {
namespace {

constexpr std::size_t kHeapEntries = 16384;      // 128 KiB
constexpr std::size_t kTableEntries = 1u << 19;  // 4 MiB

std::uint64_t next(std::uint64_t& s) {  // xorshift64
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

ReferenceLoop::ReferenceLoop() : table_(kTableEntries, 0) {
  heap_.reserve(kHeapEntries);
  for (std::size_t i = 0; i < kHeapEntries; ++i) {
    heap_.push_back(next(rng_) >> 40);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

double ReferenceLoop::run(std::int64_t steps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < steps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint64_t t = heap_.back();
    const std::uint64_t r = next(rng_);
    table_[(r >> 20) & (kTableEntries - 1)] += t;
    heap_.back() = t + (r >> 50);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void run_for(std::vector<ReferenceLoop>& loops, double seconds,
             std::int64_t slice_steps, RefTime* all, RefTime* first) {
  std::vector<RefTime> spent(loops.size());
  auto work = [&](std::size_t i) {
    do {
      spent[i].s += loops[i].run(slice_steps);
      spent[i].steps += slice_steps;
    } while (spent[i].s < seconds);
  };
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < loops.size(); ++i) others.emplace_back(work, i);
  work(0);
  for (std::thread& t : others) t.join();
  for (const RefTime& t : spent) {
    all->s += t.s;
    all->steps += t.steps;
  }
  first->s += spent[0].s;
  first->steps += spent[0].steps;
}

double RefTime::slowdown() const {
  if (steps <= 0) return 1.0;
  return s * 1e9 / static_cast<double>(steps) /
         ReferenceLoop::kNominalNsPerStep;
}

}  // namespace acdc::perfbench
