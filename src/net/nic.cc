#include "net/nic.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace acdc::net {

Nic::Nic(sim::Simulator* sim, std::string name, sim::Rate rate,
         sim::Time propagation_delay, std::int64_t tx_queue_bytes)
    : sim_(sim),
      name_(std::move(name)),
      tx_port_(sim, name_ + ":tx", rate, propagation_delay,
               std::make_unique<DropTailQueue>(tx_queue_bytes)) {}

void Nic::receive(PacketPtr packet) {
  ++received_packets_;
  received_bytes_ += packet->wire_bytes();
  // Forensic delivery tap: fires before the ingress filter chain, so the
  // uid the sender's stack stamped is still intact here.
  if (packet->uid != 0 && trace_ != nullptr && trace_->enabled()) {
    trace_->emit(obs::EventType::kPktDeliver, [&](obs::TraceEvent& ev) {
      ev.t = sim_->now();
      ev.source = trace_source_;
      ev.src_ip = packet->ip.src;
      ev.dst_ip = packet->ip.dst;
      ev.src_port = packet->tcp.src_port;
      ev.dst_port = packet->tcp.dst_port;
      ev.a = static_cast<std::int64_t>(packet->uid);
      ev.b = packet->payload_bytes;
    });
  }
  if (up_ == nullptr) return;
  // Coalesce: buffer the packet and drain the batch in a zero-delay event.
  // The drain's tie key is the *first* buffered packet's delivery key, so
  // same-tick event ordering — and therefore the serial-vs-sharded digest —
  // is a pure function of packet identities, never of arrival batching.
  const bool first = rx_buf_.empty();
  const std::uint64_t key =
      first ? Port::delivery_tie_key(*packet) : 0;
  rx_buf_.push_back(std::move(packet));
  if (first && !rx_drain_scheduled_) {
    rx_drain_scheduled_ = true;
    sim_->schedule_keyed(0, key, [this] { drain_rx(); });
  }
}

void Nic::drain_rx() {
  rx_drain_scheduled_ = false;
  // Swap out the buffer first: burst processing can deliver new packets
  // back into this NIC synchronously (vSwitch-injected ACKs, forwarded
  // traffic), which must start a fresh batch rather than mutate this one.
  // The two vectors trade places on every drain, so neither loses its
  // capacity and steady-state receives do not allocate.
  assert(rx_batch_.empty());
  rx_batch_.swap(rx_buf_);
  for (std::size_t i = 0; i < rx_batch_.size(); i += kRxBurst) {
    const std::size_t n = std::min(kRxBurst, rx_batch_.size() - i);
    up_->receive_burst(&rx_batch_[i], n);
  }
  rx_batch_.clear();
}

void Nic::set_trace(obs::FlightRecorder* recorder) {
  trace_ = recorder;
  trace_source_ =
      recorder != nullptr ? recorder->register_source(name_ + ":rx") : 0;
  tx_port_.set_trace(recorder);
}

void Nic::register_metrics(obs::MetricsRegistry& registry,
                           const std::string& prefix) const {
  registry.register_counter(prefix + ".rx_packets", &received_packets_);
  registry.register_counter(prefix + ".rx_bytes", &received_bytes_);
  tx_port_.register_metrics(registry);
}

}  // namespace acdc::net
