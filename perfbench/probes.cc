#include "probes.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

namespace acdc::perfbench {
namespace {

std::mutex registry_mutex;
// Ledgers of the current generation, guarded by registry_mutex. Threads
// hold raw pointers tagged with the generation they were made in, so a
// ledger freed by reset_ledgers() is never dereferenced again.
std::vector<std::unique_ptr<Ledger>> registry;
std::atomic<std::uint64_t> generation{1};

struct ThreadSlot {
  Ledger* ledger = nullptr;
  std::uint64_t gen = 0;
};
thread_local ThreadSlot slot;

}  // namespace

void Ledger::add(const Ledger& o) {
  for (int l = 0; l < kLayerCount; ++l) {
    self_ns[l] += o.self_ns[l];
    packets[l] += o.packets[l];
  }
  stack_egress_packets += o.stack_egress_packets;
}

Ledger& thread_ledger() {
  const std::uint64_t gen = generation.load(std::memory_order_acquire);
  if (slot.gen != gen) {
    auto ledger = std::make_unique<Ledger>();
    ledger->pool = &net::PacketPool::instance();
    slot.ledger = ledger.get();
    slot.gen = gen;
    std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::move(ledger));
  }
  return *slot.ledger;
}

void reset_ledgers() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  registry.clear();
  generation.fetch_add(1, std::memory_order_acq_rel);
}

Ledger sum_ledgers() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  Ledger total;
  for (const auto& l : registry) total.add(*l);
  return total;
}

std::vector<net::PacketPool*> ledger_pools() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  std::vector<net::PacketPool*> pools;
  for (const auto& l : registry) {
    if (std::find(pools.begin(), pools.end(), l->pool) == pools.end()) {
      pools.push_back(l->pool);
    }
  }
  return pools;
}

void TimedVswitch::handle_egress(net::PacketPtr packet) {
  if (in_egress_burst_) {
    AcdcVswitch::handle_egress(std::move(packet));
    return;
  }
  Span span(kAcdcEgress, 1);
  AcdcVswitch::handle_egress(std::move(packet));
}

void TimedVswitch::handle_ingress(net::PacketPtr packet) {
  if (in_ingress_burst_) {
    AcdcVswitch::handle_ingress(std::move(packet));
    return;
  }
  Span span(kAcdcIngress, 1);
  AcdcVswitch::handle_ingress(std::move(packet));
}

void TimedVswitch::handle_egress_burst(net::PacketPtr* packets,
                                       std::size_t count) {
  Span span(kAcdcEgress, static_cast<std::int64_t>(count));
  in_egress_burst_ = true;
  AcdcVswitch::handle_egress_burst(packets, count);
  in_egress_burst_ = false;
}

void TimedVswitch::handle_ingress_burst(net::PacketPtr* packets,
                                        std::size_t count) {
  Span span(kAcdcIngress, static_cast<std::int64_t>(count));
  in_ingress_burst_ = true;
  AcdcVswitch::handle_ingress_burst(packets, count);
  in_ingress_burst_ = false;
}

void StackProbe::handle_egress(net::PacketPtr packet) {
  ++thread_ledger().stack_egress_packets;
  send_down(std::move(packet));
}

void StackProbe::handle_ingress(net::PacketPtr packet) {
  Span span(kHostStack, 1);
  send_up(std::move(packet));
}

}  // namespace acdc::perfbench
