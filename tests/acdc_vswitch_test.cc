// Integration tests for the AC/DC vSwitch datapath on a host pair:
// transparency, ECN marking/stripping, PACK/FACK feedback, RWND
// enforcement, observer mode, policing, per-flow policy, timeout inference,
// flow GC, and the §3.3 injection features.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "acdc/vswitch.h"
#include "host/host.h"
#include "net/datapath.h"
#include "sim/simulator.h"
#include "tcp/tcp_connection.h"

namespace acdc {
namespace {

using host::Host;
using tcp::TcpConfig;
using tcp::TcpConnection;
using vswitch::AcdcConfig;
using vswitch::AcdcVswitch;
using vswitch::FlowKey;

// Wire-level observer/impairment placed between the two NICs: can mark CE
// on data (a congested ECN switch in one filter) and record what it saw.
class WireTap : public net::PacketSink {
 public:
  explicit WireTap(net::PacketSink* next) : next_(next) {}

  void receive(net::PacketPtr p) override {
    if (p->payload_bytes > 0) {
      ++data_packets_;
      if (net::ecn_capable(p->ip.ecn)) ++ect_data_packets_;
      if (mark_all_ && net::ecn_capable(p->ip.ecn)) {
        p->ip.ecn = net::Ecn::kCe;
        ++marked_;
      }
      if (drop_next_ > 0) {
        --drop_next_;
        return;
      }
    }
    if (p->tcp.options.acdc) ++packs_seen_;
    if (p->acdc_fack) ++facks_seen_;
    next_->receive(std::move(p));
  }

  net::PacketSink* next_;
  bool mark_all_ = false;
  int drop_next_ = 0;
  std::int64_t data_packets_ = 0;
  std::int64_t ect_data_packets_ = 0;
  std::int64_t marked_ = 0;
  std::int64_t packs_seen_ = 0;
  std::int64_t facks_seen_ = 0;
};

struct AcdcPair {
  sim::Simulator sim;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  std::unique_ptr<AcdcVswitch> vs_a;
  std::unique_ptr<AcdcVswitch> vs_b;
  std::unique_ptr<WireTap> tap_ab;
  std::unique_ptr<WireTap> tap_ba;

  explicit AcdcPair(const AcdcConfig& cfg = AcdcConfig{}) {
    host::HostConfig hc;
    // No fabric buffer on this switchless link: let the NIC absorb
    // slow-start bursts so only deliberate impairments cause loss.
    hc.nic_queue_bytes = 8 * 1024 * 1024;
    a = std::make_unique<Host>(&sim, "A", net::make_ip(10, 0, 0, 1), hc);
    b = std::make_unique<Host>(&sim, "B", net::make_ip(10, 0, 0, 2), hc);
    vs_a = std::make_unique<AcdcVswitch>(&sim, cfg);
    vs_b = std::make_unique<AcdcVswitch>(&sim, cfg);
    a->add_filter(vs_a.get());
    b->add_filter(vs_b.get());
    tap_ab = std::make_unique<WireTap>(&b->nic());
    tap_ba = std::make_unique<WireTap>(&a->nic());
    a->nic().tx_port().set_peer(tap_ab.get());
    b->nic().tx_port().set_peer(tap_ba.get());
  }

  TcpConnection* start_transfer(std::int64_t bytes,
                                TcpConfig cfg = TcpConfig{}) {
    b->listen(80, cfg);
    TcpConnection* c = a->connect(b->ip(), 80, cfg);
    c->on_established = [c, bytes] { c->send(bytes); };
    return c;
  }
};

TcpConfig cubic_cfg() {
  TcpConfig c;
  c.cc = tcp::CcId::kCubic;
  c.mss = 1448;
  return c;
}

TEST(AcdcVswitchTest, TransparentToCleanTransfer) {
  AcdcPair net;
  TcpConnection* c = net.start_transfer(1'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_EQ(c->stats().retransmissions, 0);
}

TEST(AcdcVswitchTest, TwoEntriesPerConnection) {
  AcdcPair net;
  net.start_transfer(100'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(100));
  // Each vSwitch tracks both directions (§4).
  EXPECT_EQ(net.vs_a->flows().size(), 2u);
  EXPECT_EQ(net.vs_b->flows().size(), 2u);
}

TEST(AcdcVswitchTest, MarksEgressDataEctEvenForNonEcnVm) {
  AcdcPair net;
  net.start_transfer(500'000, cubic_cfg());  // CUBIC VM: no ECN
  net.sim.run_until(sim::seconds(1));
  EXPECT_GT(net.tap_ab->data_packets_, 0);
  EXPECT_EQ(net.tap_ab->ect_data_packets_, net.tap_ab->data_packets_)
      << "all data on the wire must be ECN-capable (§3.2)";
}

TEST(AcdcVswitchTest, GeneratesPackFeedbackOnAcks) {
  AcdcPair net;
  net.start_transfer(500'000, cubic_cfg());
  net.sim.run_until(sim::seconds(1));
  EXPECT_GT(net.tap_ba->packs_seen_, 0) << "ACKs must carry PACK feedback";
  EXPECT_GT(net.vs_b->stats().packs_attached, 0);
  // The PACK option never reaches the VM: A's stack saw clean ACKs (if it
  // had, nothing in the stack would strip it; assert the vswitch did).
  EXPECT_EQ(net.vs_a->stats().facks_consumed, 0);
}

TEST(AcdcVswitchTest, EnforcesWindowUnderCongestion) {
  AcdcPair net;
  net.tap_ab->mark_all_ = true;  // saturated ECN switch
  TcpConnection* c = net.start_transfer(2'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2'000'000);
  EXPECT_GT(net.vs_a->stats().windows_lowered, 0);
  // The VM's view of the peer window is AC/DC's enforced window: small.
  EXPECT_LT(c->peer_rwnd_bytes(), 256 * 1024);
  // And the VM's own stack never saw ECN feedback.
  EXPECT_EQ(c->stats().ecn_reductions, 0);
}

TEST(AcdcVswitchTest, StripsCeBeforeReceiverVm) {
  AcdcPair net;
  net.tap_ab->mark_all_ = true;
  TcpConfig ecn_cfg = cubic_cfg();
  ecn_cfg.ecn = true;  // even an ECN-capable VM must not see CE (§3.2)
  TcpConnection* c = net.start_transfer(1'000'000, ecn_cfg);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_GT(net.tap_ab->marked_, 0);
  EXPECT_EQ(c->stats().ecn_reductions, 0)
      << "ECE must never reach the sending VM";
}

TEST(AcdcVswitchTest, ObserverModeComputesButDoesNotEnforce) {
  AcdcConfig cfg;
  cfg.enforce = false;  // Fig. 9: log, don't overwrite
  obs::FlightRecorder rec(256);
  AcdcPair net(cfg);
  net.tap_ab->mark_all_ = true;
  int window_logs = 0;
  std::int64_t last_window = 0;
  net.vs_a->attach_observability({.recorder = &rec, .name = "vs_a"});
  const std::uint32_t vs_a = rec.register_source("vs_a");
  rec.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type != obs::EventType::kWindowEnforced || ev.source != vs_a) {
      return;
    }
    ++window_logs;
    last_window = ev.a;
  });
  TcpConnection* c = net.start_transfer(1'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_GT(window_logs, 0);
  EXPECT_GT(last_window, 0);
  EXPECT_EQ(net.vs_a->stats().windows_lowered, 0);
  EXPECT_GT(c->peer_rwnd_bytes(), 1 << 20) << "peer window untouched";
}

TEST(AcdcVswitchTest, ObserverModeLeavesTenantTrafficUntouched) {
  // Fig. 9's observer: enforce = false turns off every transform the VM
  // could notice — RWND rewrite, egress ECT marking, CE stripping and ECE
  // hiding — while the PACK/FACK machinery keeps feeding the virtual CC.
  AcdcConfig cfg;
  cfg.enforce = false;

  // A non-ECN VM's data leaves unmarked, so a marking switch cannot mark it.
  {
    AcdcPair net(cfg);
    net.tap_ab->mark_all_ = true;
    TcpConnection* c = net.start_transfer(500'000, cubic_cfg());
    net.sim.run_until(sim::seconds(1));
    EXPECT_GT(net.tap_ab->data_packets_, 0);
    EXPECT_EQ(net.tap_ab->ect_data_packets_, 0) << "no egress ECT marking";
    EXPECT_EQ(net.tap_ab->marked_, 0);
    EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 500'000);
    EXPECT_EQ(c->stats().ecn_reductions, 0);
  }

  // An ECN VM: CE reaches the receiving VM, which echoes ECE, and the ECE
  // reaches the sending VM, whose own stack reduces. The vSwitch still
  // logs a window per ACK from the feedback it consumed, and never rewrites
  // the RWND.
  obs::FlightRecorder rec(256);
  AcdcPair net(cfg);
  net.tap_ab->mark_all_ = true;
  int window_logs = 0;
  std::int64_t min_window = INT64_MAX;
  net.vs_a->attach_observability({.recorder = &rec, .name = "vs_a"});
  const std::uint32_t vs_a = rec.register_source("vs_a");
  rec.add_listener([&](const obs::TraceEvent& ev) {
    if (ev.type == obs::EventType::kWindowEnforced && ev.source == vs_a) {
      ++window_logs;
      min_window = std::min(min_window, ev.a);
    }
  });
  TcpConfig ecn_cfg = cubic_cfg();
  ecn_cfg.ecn = true;
  TcpConnection* c = net.start_transfer(1'000'000, ecn_cfg);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_GT(net.tap_ab->marked_, 0);
  EXPECT_GT(c->stats().ecn_reductions, 0) << "CE and ECE reach the VMs";
  EXPECT_GT(net.vs_b->stats().packs_attached, 0) << "feedback generated";
  EXPECT_GT(net.vs_a->stats().acks_processed, 0);
  EXPECT_GT(window_logs, 0) << "windows still logged";
  EXPECT_LT(min_window, 10 * 1448)
      << "the consumed CE feedback cut the virtual window";
  EXPECT_EQ(net.vs_a->stats().windows_lowered, 0) << "no RWND rewrite";
  EXPECT_GT(c->peer_rwnd_bytes(), 1 << 20) << "peer window untouched";
}

TEST(AcdcVswitchTest, FackPathWhenPackDoesNotFit) {
  AcdcConfig cfg;
  cfg.mtu_bytes = 48;  // force every PACK to overflow into a FACK
  AcdcPair net(cfg);
  net.start_transfer(300'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 300'000);
  EXPECT_GT(net.vs_b->stats().facks_sent, 0);
  EXPECT_EQ(net.vs_a->stats().facks_consumed, net.vs_b->stats().facks_sent);
  EXPECT_GT(net.tap_ba->facks_seen_, 0);
}

TEST(AcdcVswitchTest, PolicingDropsNonConformingFlow) {
  AcdcConfig cfg;
  AcdcPair net(cfg);
  vswitch::FlowPolicy police = net.vs_a->policy().default_policy();
  police.police = true;
  net.vs_a->policy().set_default(police);
  net.tap_ab->mark_all_ = true;  // heavy congestion -> tiny enforced window

  TcpConfig rogue = cubic_cfg();
  rogue.cc = tcp::CcId::kAggressive;
  rogue.ignore_peer_rwnd = true;
  net.start_transfer(5'000'000, rogue);
  net.sim.run_until(sim::seconds(2));
  EXPECT_GT(net.vs_a->stats().policed_drops, 0)
      << "a stack ignoring RWND must be policed (§3.3)";
}

TEST(AcdcVswitchTest, ConformingFlowIsNotPoliced) {
  AcdcConfig cfg;
  AcdcPair net(cfg);
  vswitch::FlowPolicy police = net.vs_a->policy().default_policy();
  police.police = true;
  net.vs_a->policy().set_default(police);
  net.tap_ab->mark_all_ = true;
  net.start_transfer(1'000'000, cubic_cfg());
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.vs_a->stats().policed_drops, 0);
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
}

TEST(AcdcVswitchTest, PerFlowPolicyAssignsAlgorithm) {
  AcdcPair net;
  vswitch::FlowPolicy wan;
  wan.kind = vswitch::VccKind::kCubic;
  net.vs_a->policy().add_dst_port_rule(80, wan);
  net.start_transfer(100'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(200));
  const FlowKey key{net.a->ip(), net.b->ip(),
                    net.a->connections()[0]->local().port, 80};
  vswitch::FlowRef entry = net.vs_a->flows().find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry.cold->policy.kind, vswitch::VccKind::kCubic);
  EXPECT_EQ(entry.hot->cc_kind, vswitch::VccKind::kCubic);
}

TEST(AcdcVswitchTest, RwndCapBoundsFlow) {
  AcdcPair net;
  vswitch::FlowPolicy capped;
  capped.max_rwnd_bytes = 20'000;
  net.vs_a->policy().set_default(capped);
  TcpConnection* c = net.start_transfer(5'000'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(500));
  // The enforced value is the cap rounded up to the peer's window-scale
  // granularity (2^9 here).
  EXPECT_LE(c->peer_rwnd_bytes(), 20'000 + 512);
  EXPECT_LE(c->bytes_in_flight(), 20'000 + 512 + 1448);
}

TEST(AcdcVswitchTest, InfersTimeoutsOnStall) {
  AcdcPair net;
  TcpConfig slow = cubic_cfg();
  // The VM recovers slower than AC/DC's sample-less inactivity timeout.
  slow.min_rto = sim::milliseconds(200);
  ASSERT_LT(vswitch::SenderModule::kInactivityTimeout, slow.min_rto);
  net.b->listen(80, slow);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, slow);
  c->on_established = [&, c] {
    // Blackhole the path so every data segment is lost.
    net.tap_ab->drop_next_ = 1'000'000;
    c->send(200'000);
  };
  net.sim.run_until(sim::milliseconds(150));
  EXPECT_GT(net.vs_a->stats().inferred_timeouts, 0);
  const FlowKey key{net.a->ip(), net.b->ip(), c->local().port, 80};
  vswitch::FlowRef entry = net.vs_a->flows().find(key);
  ASSERT_TRUE(entry);
  EXPECT_LE(entry.hot->cwnd_bytes, 2.0 * entry.hot->mss)
      << "virtual window collapses on inferred RTO";
}

TEST(AcdcVswitchTest, GarbageCollectsClosedFlows) {
  AcdcConfig cfg;
  cfg.fin_linger = sim::milliseconds(100);
  cfg.gc_interval = sim::milliseconds(200);
  AcdcPair net(cfg);
  net.b->listen(80, cubic_cfg(), [](TcpConnection* srv) {
    srv->on_deliver = [srv](std::int64_t total) {
      if (total >= 10'000) srv->close();
    };
  });
  TcpConnection* c = net.a->connect(net.b->ip(), 80, cubic_cfg());
  c->on_established = [c] {
    c->send(10'000);
    c->close();
  };
  net.sim.run_until(sim::milliseconds(50));
  EXPECT_EQ(net.vs_a->flows().size(), 2u);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.vs_a->flows().size(), 0u) << "FIN + linger must GC entries";
  EXPECT_GT(net.vs_a->flows().stats().gc_removed, 0);
}

TEST(AcdcVswitchTest, WindowUpdateInjection) {
  AcdcPair net;
  vswitch::FlowPolicy capped;
  capped.max_rwnd_bytes = 30'000;
  net.vs_a->policy().set_default(capped);
  TcpConnection* c = net.start_transfer(200'000, cubic_cfg());
  net.sim.run_until(sim::milliseconds(100));
  const FlowKey key{net.a->ip(), net.b->ip(), c->local().port, 80};
  ASSERT_TRUE(net.vs_a->send_window_update(key));
  net.sim.run_until(sim::milliseconds(101));
  EXPECT_EQ(net.vs_a->stats().injected_window_updates, 1);
  EXPECT_LE(c->peer_rwnd_bytes(), 30'000);
  // Unknown flow -> refused.
  FlowKey bogus = key;
  bogus.dst_port = 1;
  EXPECT_FALSE(net.vs_a->send_window_update(bogus));
}

TEST(AcdcVswitchTest, DupackInjectionTriggersVmRetransmit) {
  AcdcConfig cfg;
  AcdcPair net(cfg);
  TcpConfig nosack = cubic_cfg();  // bare dupACKs only count without SACK
  nosack.sack = false;
  nosack.min_rto = sim::seconds(2);  // VM RTO far too large (§3.3 use case)
  net.b->listen(80, nosack);
  TcpConnection* c = net.a->connect(net.b->ip(), 80, nosack);
  c->on_established = [&, c] {
    // A first message succeeds (priming the vSwitch's ACK template)...
    c->send(1'448);
    // ...then the next segment is lost; a lone segment begets no dupACKs.
    net.sim.schedule(sim::milliseconds(1), [&, c] {
      net.tap_ab->drop_next_ = 1;
      c->send(1'448);
    });
  };
  net.sim.run_until(sim::milliseconds(100));
  ASSERT_EQ(net.b->connections()[0]->delivered_bytes(), 1'448);
  const FlowKey key{net.a->ip(), net.b->ip(), c->local().port, 80};
  ASSERT_TRUE(net.vs_a->send_dupacks(key, 3));
  net.sim.run_until(sim::milliseconds(200));
  EXPECT_GE(c->stats().fast_retransmits, 1);
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 2 * 1'448)
      << "vSwitch-generated dupACKs must trigger the VM's fast retransmit";
}

TEST(AcdcVswitchTest, DctcpHostStackUnderAcdcStaysQuiet) {
  // Table 1 "DCTCP" row: a DCTCP VM under AC/DC. The vSwitch hides all ECN
  // signals, so the VM's own DCTCP never reduces; AC/DC drives the rate.
  AcdcPair net;
  net.tap_ab->mark_all_ = true;
  TcpConfig d = cubic_cfg();
  d.cc = tcp::CcId::kDctcp;
  d.ecn = true;
  TcpConnection* c = net.start_transfer(1'000'000, d);
  net.sim.run_until(sim::seconds(2));
  EXPECT_EQ(net.b->connections()[0]->delivered_bytes(), 1'000'000);
  EXPECT_EQ(c->stats().ecn_reductions, 0);
  EXPECT_GT(net.vs_a->stats().windows_lowered, 0);
}

}  // namespace
}  // namespace acdc
