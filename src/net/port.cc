#include "net/port.h"

#include <cassert>
#include <utility>

#include "net/pcap.h"

namespace acdc::net {

std::uint64_t Port::delivery_tie_key(const Packet& packet) {
  // FNV-1a over the packet's invariant identity. uid alone is not enough:
  // vSwitch-crafted packets (FACKs, injected dupACKs) keep uid 0.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(packet.uid);
  mix((static_cast<std::uint64_t>(packet.ip.src) << 32) | packet.ip.dst);
  mix((static_cast<std::uint64_t>(packet.tcp.src_port) << 48) |
      (static_cast<std::uint64_t>(packet.tcp.dst_port) << 32) |
      packet.tcp.seq);
  mix((static_cast<std::uint64_t>(packet.tcp.ack_seq) << 32) |
      static_cast<std::uint64_t>(packet.payload_bytes));
  return h;
}

Port::Port(sim::Simulator* sim, std::string name, sim::Rate rate,
           sim::Time propagation_delay, std::unique_ptr<Queue> queue)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      propagation_delay_(propagation_delay),
      queue_(std::move(queue)) {
  assert(rate_ > 0);
}

void Port::send(PacketPtr packet) {
  packet->enqueued_at = sim_->now();
  if (!queue_->enqueue(std::move(packet))) return;
  if (tx_done_scheduled_) return;
  if (idle()) {
    start_transmission();
  } else {
    schedule_tx_done();
  }
}

void Port::set_trace(obs::FlightRecorder* recorder) {
  trace_ = recorder;
  trace_source_ = recorder != nullptr ? recorder->register_source(name_) : 0;
  queue_->set_trace(recorder, trace_source_);
}

void Port::register_metrics(obs::MetricsRegistry& registry) const {
  registry.register_counter(name_ + ".tx_packets", &transmitted_packets_);
  registry.register_counter(name_ + ".tx_bytes", &transmitted_bytes_);
  queue_->register_metrics(registry, name_);
  sojourn_ns_ = &registry.histogram(name_ + ".sojourn_ns");
}

void Port::schedule_tx_done() {
  tx_done_scheduled_ = true;
  sim_->schedule_at_reserved(tx_done_at_, tx_done_seq_,
                             [this] { start_transmission(); });
}

void Port::start_transmission() {
  tx_done_scheduled_ = false;
  PacketPtr packet = queue_->dequeue();
  if (packet == nullptr) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  const sim::Time tx = sim::transmission_time(packet->wire_bytes(), rate_);
  ++transmitted_packets_;
  transmitted_bytes_ += packet->wire_bytes();
  if (telemetry_ != nullptr) {
    telemetry_->stamp(*packet, queue_->byte_length(), sim_->now());
  }

  // Observation taps at transmission start: queue sojourn for the
  // histogram, one trace event per dequeue, and the pcap bridge. The
  // forensic tx tap supersedes the occupancy sample for uid-stamped
  // packets — never both, so full-tap tracing does not double the dequeue
  // event volume. The tap carries the queue wait in x (the same quantity
  // the sojourn histogram records); occupancy for tapped traffic comes
  // from the queue_bytes gauges on the metrics clock.
  if (sojourn_ns_ != nullptr) {
    sojourn_ns_->record(sim_->now() - packet->enqueued_at);
  }
  if (trace_ != nullptr && trace_->enabled()) {
    if (packet->uid != 0) {
      trace_->emit(obs::EventType::kPktTxStart, [&](obs::TraceEvent& ev) {
        ev.t = sim_->now();
        ev.source = trace_source_;
        ev.src_ip = packet->ip.src;
        ev.dst_ip = packet->ip.dst;
        ev.src_port = packet->tcp.src_port;
        ev.dst_port = packet->tcp.dst_port;
        ev.a = static_cast<std::int64_t>(packet->uid);
        ev.b = tx;
        ev.x = static_cast<double>(sim_->now() - packet->enqueued_at);
      });
    } else {
      trace_->emit(obs::EventType::kQueueOccupancy,
                   [&](obs::TraceEvent& ev) {
                     ev.t = sim_->now();
                     ev.source = trace_source_;
                     ev.a = queue_->byte_length();
                     ev.b = static_cast<std::int64_t>(queue_->packet_length());
                   });
    }
  }
  if (pcap_ != nullptr) pcap_->write(*packet, sim_->now());

  // Deliver at tx + propagation. A remote peer (cross-shard link) takes the
  // delivery time with the packet instead of a local event. Both paths
  // carry the content-derived tie key so same-tick arrivals at the receiver
  // order identically on either engine.
  const std::uint64_t key = delivery_tie_key(*packet);
  if (remote_peer_ != nullptr) {
    remote_peer_->deliver(packet.release(),
                          sim_->now() + tx + propagation_delay_, key);
  } else {
    // The closure owns the packet, so an event destroyed unfired (scenario
    // teardown mid-flight) returns it to the pool instead of leaking it.
    sim_->schedule_keyed(tx + propagation_delay_, key,
                         [peer = peer_, p = std::move(packet)]() mutable {
                           if (peer != nullptr) peer->receive(std::move(p));
                         });
  }
  // Free the transmitter at tx: reserve the tx-done's seq now (after the
  // delivery's, as scheduling both here would), and schedule it only if a
  // packet is waiting; send() schedules it if one arrives in time.
  tx_done_at_ = sim_->now() + tx;
  tx_done_seq_ = sim_->reserve_seq();
  if (!queue_->empty()) schedule_tx_done();
  if (on_drain_) on_drain_();
}

}  // namespace acdc::net
