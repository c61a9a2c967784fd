// The AC/DC sender module (§3, left side of Fig. 3): on egress data it
// reconstructs sequence state, marks packets ECT, takes RTT samples and
// polices non-conforming flows; on ingress ACKs it extracts PACK/FACK
// feedback, updates the reconstructed connection variables, completes RTT
// samples (RFC 6298, Karn's rule), runs the virtual congestion control
// (Fig. 5) and enforces the result by overwriting RWND (§3.3).
#pragma once

#include "acdc/core.h"
#include "net/packet.h"

namespace acdc::vswitch {

class SenderModule {
 public:
  // Timeout inference (§3.1): a flow with an RTT sample times out at its
  // own RTO clamped to [kMinRto, kMaxRto]; a sample-less flow after the
  // fixed kInactivityTimeout.
  static constexpr sim::Time kInactivityTimeout = sim::milliseconds(40);
  static constexpr sim::Time kMinRto = sim::milliseconds(10);
  static constexpr sim::Time kMaxRto = sim::seconds(4);
  // Window slack the policer tolerates before dropping, in MSS.
  static constexpr double kPoliceSlackMss = 4.0;

  explicit SenderModule(AcdcCore& core) : core_(core) {}

  // Egress packets in the data direction (payload/SYN/FIN). Returns false
  // when the policer consumed the packet.
  bool process_egress(net::Packet& packet);

  // Ingress packets carrying an ACK for our data direction. Returns false
  // when the packet was consumed (FACK).
  bool process_ingress_ack(net::Packet& packet);

  // Periodic stall scan: infers RTOs (§3.1) at each flow's own RFC 6298
  // RTO when an estimate exists, else at kInactivityTimeout. Returns the number of flows whose virtual CC was reset.
  int infer_timeouts(sim::Time now);

 private:
  void learn_from_egress_syn(const FlowRef& f, const net::Packet& syn);
  void learn_from_ingress_synack(const FlowRef& f, const net::Packet& synack);
  void track_sequences(FlowHot& s, const net::Packet& packet, sim::Time now);
  bool police(const FlowRef& f, const net::Packet& packet);
  void enforce_window(const FlowRef& f, net::Packet& ack);
  std::int64_t enforced_window_bytes(const FlowHot& s) const;

  AcdcCore& core_;
};

}  // namespace acdc::vswitch
