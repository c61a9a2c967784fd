// Packet-pool recycling tests: a recycled packet must come back in the
// default-constructed state (no leaked ECN bits, TCP options, flags or
// bookkeeping), the SACK small-vector must keep wire-legal blocks inline,
// pooling must be observable through PacketPool::stats(), and packets still
// in flight when a scenario is destroyed must come back to the pool.
#include <gtest/gtest.h>

#include "exp/star.h"
#include "net/fault.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/small_vec.h"

namespace acdc::net {
namespace {

// Scribble over every field a datapath run can touch.
void dirty(Packet& p) {
  p.ip.src = make_ip(10, 0, 0, 1);
  p.ip.dst = make_ip(10, 0, 0, 2);
  p.ip.ttl = 3;
  p.ip.dscp = 46;
  p.ip.ecn = Ecn::kCe;
  p.ip.id = 777;
  p.tcp.src_port = 40'000;
  p.tcp.dst_port = 80;
  p.tcp.seq = 123'456;
  p.tcp.ack_seq = 654'321;
  p.tcp.flags.syn = true;
  p.tcp.flags.ack = true;
  p.tcp.flags.ece = true;
  p.tcp.flags.cwr = true;
  p.tcp.window_raw = 999;
  p.tcp.reserved_vm_ecn = true;
  p.tcp.options.mss = 1448;
  p.tcp.options.window_scale = 9;
  p.tcp.options.sack_permitted = true;
  p.tcp.options.sack.push_back({100, 200});
  p.tcp.options.sack.push_back({300, 400});
  p.tcp.options.acdc = AcdcFeedback{5000, 1000};
  p.payload_bytes = 8960;
  p.acdc_fack = true;
  p.uid = 42;
  p.enqueued_at = 1'000'000;
}

TEST(PacketPoolTest, RecycledPacketIsPristine) {
  PacketPool& pool = PacketPool::instance();
  if (!pool.enabled()) GTEST_SKIP() << "ACDC_PACKET_POOL=0";
  pool.trim();

  PacketPtr p = make_packet();
  Packet* addr = p.get();
  dirty(*p);
  p.reset();  // releases to the pool
  EXPECT_EQ(pool.free_count(), 1u);

  PacketPtr q = make_packet();
  ASSERT_EQ(q.get(), addr) << "expected freelist reuse";
  const Packet fresh;
  // Header + ECN bits.
  EXPECT_EQ(q->ip.src, fresh.ip.src);
  EXPECT_EQ(q->ip.ttl, fresh.ip.ttl);
  EXPECT_EQ(q->ip.dscp, fresh.ip.dscp);
  EXPECT_EQ(q->ip.ecn, Ecn::kNotEct);
  EXPECT_EQ(q->ip.id, 0);
  // TCP header, flags, options.
  EXPECT_EQ(q->tcp.seq, 0u);
  EXPECT_EQ(q->tcp.ack_seq, 0u);
  EXPECT_EQ(q->tcp.flags, TcpFlags{});
  EXPECT_EQ(q->tcp.window_raw, 0);
  EXPECT_FALSE(q->tcp.reserved_vm_ecn);
  EXPECT_FALSE(q->tcp.options.mss.has_value());
  EXPECT_FALSE(q->tcp.options.window_scale.has_value());
  EXPECT_FALSE(q->tcp.options.sack_permitted);
  EXPECT_TRUE(q->tcp.options.sack.empty());
  EXPECT_FALSE(q->tcp.options.acdc.has_value());
  // Bookkeeping.
  EXPECT_EQ(q->payload_bytes, 0);
  EXPECT_FALSE(q->acdc_fack);
  EXPECT_EQ(q->uid, 0u);
  EXPECT_EQ(q->enqueued_at, 0);
}

TEST(PacketPoolTest, SteadyStateReusesInsteadOfAllocating) {
  PacketPool& pool = PacketPool::instance();
  if (!pool.enabled()) GTEST_SKIP() << "ACDC_PACKET_POOL=0";
  pool.trim();
  { PacketPtr warm = make_packet(); }  // seed the freelist

  const auto before = pool.stats();
  for (int i = 0; i < 1000; ++i) {
    PacketPtr p = make_packet();
    dirty(*p);
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.fresh_allocs, before.fresh_allocs);
  EXPECT_EQ(after.reuses - before.reuses, 1000);
  EXPECT_EQ(after.releases - before.releases, 1000);
}

// Runs 5 ms of an 8 MB CUBIC transfer across a 2-host AC/DC star, then
// destroys the scenario mid-flow. Packets on the wire at that moment live
// only in pending delivery events (port propagation, fault-injector
// jitter); tearing the event queue down must release every one of them.
void expect_teardown_returns_in_flight_packets(const FaultConfig& faults) {
  const std::int64_t before = PacketPool::instance().live();
  {
    exp::StarConfig cfg;
    cfg.hosts = 2;
    cfg.scenario.link_faults = faults;
    exp::Star star(cfg);
    exp::Scenario& s = star.scenario();
    s.attach_acdc(star.host(0), {});
    s.attach_acdc(star.host(1), {});
    s.add_bulk_flow(star.host(0), star.host(1),
                    s.tcp_config(tcp::CcId::kCubic), /*start=*/0, 8 << 20);
    s.run_until(sim::milliseconds(5));
    ASSERT_GT(PacketPool::instance().live(), before) << "nothing in flight";
    if (faults.jitter_p > 0) {
      EXPECT_GT(s.fault_stats().jittered, 0);
    }
  }
  EXPECT_EQ(PacketPool::instance().live(), before);
}

TEST(PacketPoolTest, TeardownReturnsInFlightPackets) {
  expect_teardown_returns_in_flight_packets(FaultConfig{});
}

TEST(PacketPoolTest, TeardownReturnsJitterDelayedPackets) {
  FaultConfig faults;
  faults.jitter_p = 1.0;
  faults.jitter_max = sim::microseconds(20);
  expect_teardown_returns_in_flight_packets(faults);
}

TEST(PacketPoolTest, ClonePreservesContentAndReturnsPooledPacket) {
  Packet original;
  dirty(original);
  PacketPtr copy = clone_packet(original);
  EXPECT_EQ(copy->tcp.options.sack, original.tcp.options.sack);
  EXPECT_EQ(copy->tcp.seq, original.tcp.seq);
  EXPECT_EQ(copy->ip.ecn, Ecn::kCe);
  EXPECT_EQ(copy->payload_bytes, 8960);
}

TEST(SmallVecTest, StaysInlineUpToCapacityThenSpills) {
  SmallVec<SackBlock, 4> v;
  EXPECT_TRUE(v.empty());
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back({i, i + 1});
  EXPECT_TRUE(v.is_inline()) << "4 wire-legal SACK blocks must stay inline";
  v.push_back({9, 10});  // malformed-input spill path
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], (SackBlock{0, 1}));
  EXPECT_EQ(v[4], (SackBlock{9, 10}));
}

TEST(SmallVecTest, ClearKeepsCapacityForReuse) {
  SmallVec<SackBlock, 4> v;
  for (std::uint32_t i = 0; i < 8; ++i) v.push_back({i, i + 1});
  EXPECT_FALSE(v.is_inline());
  v.clear();
  EXPECT_TRUE(v.empty());
  // Refilling past 4 must not allocate again: capacity was retained.
  for (std::uint32_t i = 0; i < 8; ++i) v.push_back({i, i + 1});
  EXPECT_EQ(v.size(), 8u);
}

TEST(SmallVecTest, CopyAndCompare) {
  SmallVec<SackBlock, 4> a{{1, 2}, {3, 4}};
  SmallVec<SackBlock, 4> b = a;
  EXPECT_EQ(a, b);
  b.push_back({5, 6});
  EXPECT_NE(a, b);
  a = b;
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace acdc::net
