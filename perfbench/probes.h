// Layer probes for the traced run, attached from outside the simulator
// through its public extension points only:
//
//   - the harness times Simulator::step() itself (see workloads.cc);
//   - TimedVswitch is an AcdcVswitch whose four datapath entry points open
//     a span before delegating, installed with Host::add_filter;
//   - StackProbe is a pass-through DuplexFilter on the stack side of the
//     vSwitch; its ingress handler spans the host stack's receive path.
//
// No probe sits between the NIC and the vSwitch, so the NIC's rx bursts
// still reach AcdcVswitch::process_burst and its prefetch pipeline.
//
// Spans nest on a per-thread stack. A layer's self time is its span time
// minus the time of the spans opened inside it, so the self times of all
// layers partition the timed steps exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "acdc/vswitch.h"
#include "net/datapath.h"
#include "net/packet_pool.h"

namespace acdc::perfbench {

enum Layer : int {
  kSimLayer = 0,     // event dispatch, switches, NIC, timers: the step rest
  kAcdcEgress,       // vSwitch egress, including the NIC transmit enqueue
  kAcdcIngress,      // vSwitch ingress
  kHostStack,        // TCP receive path and the apps it calls back into
  kLayerCount,
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's span accounting.
struct Ledger {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> packets{};  // packets per layer
  std::int64_t stack_egress_packets = 0;  // segments the stacks sent
  // child_ns[d] accumulates the time of closed spans whose parent sits at
  // depth d; depth 0 is the harness's step loop.
  static constexpr int kMaxDepth = 32;
  std::array<std::int64_t, kMaxDepth> child_ns{};
  int depth = 0;
  net::PacketPool* pool = nullptr;  // the thread's packet pool

  void add(const Ledger& o);
};

// The calling thread's ledger, created on first use in the current
// generation. reset_ledgers() starts a new generation (call it while no
// other thread records); sum_ledgers() folds every ledger of the current
// generation.
Ledger& thread_ledger();
void reset_ledgers();
Ledger sum_ledgers();
// Distinct packet pools seen by the current generation's threads.
std::vector<net::PacketPool*> ledger_pools();

class Span {
 public:
  Span(Layer layer, std::int64_t packets)
      : ledger_(thread_ledger()), layer_(layer) {
    if (ledger_.depth + 1 >= Ledger::kMaxDepth) std::abort();
    ledger_.packets[layer] += packets;
    ++ledger_.depth;
    ledger_.child_ns[static_cast<std::size_t>(ledger_.depth)] = 0;
    start_ = now_ns();
  }
  ~Span() {
    const std::int64_t dur = now_ns() - start_;
    const auto d = static_cast<std::size_t>(ledger_.depth);
    ledger_.self_ns[layer_] += dur - ledger_.child_ns[d];
    --ledger_.depth;
    ledger_.child_ns[d - 1] += dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger& ledger_;
  Layer layer_;
  std::int64_t start_ = 0;
};

// AcdcVswitch with spans around its datapath entry points. The burst
// handlers span the whole burst; the per-packet handlers they call back
// into are not spanned again.
class TimedVswitch : public vswitch::AcdcVswitch {
 public:
  using vswitch::AcdcVswitch::AcdcVswitch;

 protected:
  void handle_egress(net::PacketPtr packet) override;
  void handle_ingress(net::PacketPtr packet) override;
  void handle_egress_burst(net::PacketPtr* packets,
                           std::size_t count) override;
  void handle_ingress_burst(net::PacketPtr* packets,
                            std::size_t count) override;

 private:
  bool in_egress_burst_ = false;
  bool in_ingress_burst_ = false;
};

// Pass-through filter between the TCP stack and the vSwitch. Egress only
// counts (the vSwitch egress span that follows is the child of whatever
// sent the segment); ingress spans the stack's handling of the packet.
class StackProbe : public net::DuplexFilter {
 protected:
  void handle_egress(net::PacketPtr packet) override;
  void handle_ingress(net::PacketPtr packet) override;
};

}  // namespace acdc::perfbench
