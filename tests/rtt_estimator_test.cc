// Unit tests for the fixed-point RFC 6298 estimator (tcp/rtt_estimator.h)
// against hand-computed sequences, run at both instantiations — the
// vSwitch's whole-µs one and the tenant stack's ns one — plus the sender
// module's sampling discipline: one outstanding sample per flow, completed
// by the cumulative ACK, and Karn's rule (a retransmitted segment never
// yields a sample).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "acdc/sender_module.h"
#include "sim/simulator.h"
#include "tcp/rtt_estimator.h"

namespace acdc::vswitch {
namespace {

// Runs `body` on a fresh estimator of each instantiation, with the number
// of ticks per µs (typed as a tick). The hand-computed sequences below are in µs; at the ns
// instantiation every value scales by 1000, except where the 1 µs
// granularity floor (1 tick vs 1000 ticks) shows.
template <typename Body>
void for_each_instantiation(Body body) {
  {
    SCOPED_TRACE("us ticks");
    body(tcp::UsRttEstimator{}, std::uint32_t{1});
  }
  {
    SCOPED_TRACE("ns ticks");
    body(tcp::NsRttEstimator{}, sim::microseconds(1));
  }
}

TEST(RttEstimator, FirstSampleSeedsSrttAndHalfVariance) {
  for_each_instantiation([](auto e, auto us) {
    EXPECT_FALSE(e.has_sample());
    e.on_sample(100 * us);
    EXPECT_TRUE(e.has_sample());
    // RFC 6298 §2.2: srtt = R, rttvar = R/2 -> rto = srtt + 4·rttvar = 3R.
    EXPECT_EQ(e.srtt_x8(), 800 * us);
    EXPECT_EQ(e.rttvar_x4(), 200 * us);
    EXPECT_EQ(e.srtt(), 100 * us);
    EXPECT_EQ(e.min_rtt(), 100 * us);
    EXPECT_EQ(e.rto(), 300 * us);
  });
}

TEST(RttEstimator, SteadySampleDecaysVariance) {
  for_each_instantiation([](auto e, auto us) {
    e.on_sample(100 * us);
    // Identical sample: err = 0, so srtt holds and rttvar loses a quarter.
    e.on_sample(100 * us);
    EXPECT_EQ(e.srtt_x8(), 800 * us);
    EXPECT_EQ(e.rttvar_x4(), 150 * us);
    EXPECT_EQ(e.rto(), 250 * us);
  });
}

TEST(RttEstimator, LargerSampleRaisesBothTerms) {
  for_each_instantiation([](auto e, auto us) {
    e.on_sample(100 * us);
    // err = +80: srtt_x8 += 80 (one-eighth gain in x8 units), and rttvar
    // gains |err| - rttvar/4 = 80 - 50 = 30.
    e.on_sample(180 * us);
    EXPECT_EQ(e.srtt_x8(), 880 * us);
    EXPECT_EQ(e.srtt(), 110 * us);
    EXPECT_EQ(e.rttvar_x4(), 230 * us);
    EXPECT_EQ(e.rto(), 340 * us);
    EXPECT_EQ(e.min_rtt(), 100 * us) << "min must not rise";
  });
}

TEST(RttEstimator, SmallerSampleUsesSlowDecrease) {
  for_each_instantiation([](auto e, auto us) {
    e.on_sample(100 * us);
    // err = -40. srtt drops by 40/8 = 5µs. For the deviation, |err| = 40
    // is below rttvar/4 = 50, so the Linux slow-decrease shift never
    // engages and rttvar only sheds the difference: 200 + (40 - 50) = 190.
    e.on_sample(60 * us);
    EXPECT_EQ(e.srtt_x8(), 760 * us);
    EXPECT_EQ(e.srtt(), 95 * us);
    EXPECT_EQ(e.rttvar_x4(), 190 * us);
    EXPECT_EQ(e.min_rtt(), 60 * us);
  });
}

TEST(RttEstimator, SlowDecreaseShiftEngagesOnBigDownwardError) {
  for_each_instantiation([](auto e, auto us) {
    e.on_sample(1000 * us);  // srtt_x8 = 8000, rttvar_x4 = 2000
    // err = -900: |err| - rttvar/4 = 900 - 500 = 400 > 0, so the decrease
    // is geared down by 8 -> rttvar gains only 50 instead of 400.
    e.on_sample(100 * us);
    EXPECT_EQ(e.srtt_x8(), 7100 * us);
    EXPECT_EQ(e.rttvar_x4(), 2050 * us);
  });
}

TEST(RttEstimator, BackoffShiftsExponentiallyAndSaturates) {
  for_each_instantiation([](auto e, auto us) {
    e.on_sample(100 * us);  // rto = 300
    EXPECT_EQ(e.rto(0), 300 * us);
    EXPECT_EQ(e.rto(1), 600 * us);
    EXPECT_EQ(e.rto(3), 2'400 * us);
    // The shift clamps at 24 so a stuck flow can't overflow the arithmetic.
    const std::int64_t rto = 300 * us;
    EXPECT_EQ(e.rto(24), rto << 24);
    EXPECT_EQ(e.rto(60), rto << 24);
  });
}

TEST(RttEstimator, ZeroSampleCountsAsOneMicrosecond) {
  for_each_instantiation([](auto e, auto us) {
    // A 0-tick sample counts as one tick: 1 µs or 1 ns.
    e.on_sample(0);
    EXPECT_TRUE(e.has_sample());
    EXPECT_EQ(e.srtt(), decltype(us){1});
    EXPECT_EQ(e.min_rtt(), decltype(us){1});
    // rto = srtt + max(G, 4·rttvar) = 1 + max(1 µs, 2 ticks).
    EXPECT_EQ(e.rto(), 1 + std::max<std::int64_t>(us, 2));
  });
}

TEST(RttEstimator, ConvergesOnConstantInput) {
  for_each_instantiation([](auto e, auto us) {
    e.on_sample(200 * us);
    for (int i = 0; i < 50; ++i) e.on_sample(200 * us);
    EXPECT_EQ(e.srtt(), 200 * us);
    // rttvar decays geometrically until rttvar_x4 >> 2 == 0 (i.e. 3 ticks).
    EXPECT_EQ(e.rttvar_x4(), decltype(us){3});
    // 4·rttvar is now below the 1 µs granularity G, which takes over:
    // rto = 203 µs at µs ticks, 200 µs + 1 µs at ns ticks.
    EXPECT_EQ(e.rto(), 200 * us + std::max<std::int64_t>(us, 3));
    EXPECT_EQ(e.min_rtt(), 200 * us);
  });
}

TEST(RttEstimator, NsSampleAbove537MsDoesNotOverflow) {
  // srtt ×8 in ns passes 2^32 at ~537 ms, which is why the tenant stack
  // keeps 64-bit ticks.
  tcp::NsRttEstimator e;
  e.on_sample(sim::milliseconds(600));
  EXPECT_EQ(e.srtt_x8(), sim::milliseconds(4'800));
  EXPECT_EQ(e.srtt(), sim::milliseconds(600));
  EXPECT_EQ(e.rto(), sim::milliseconds(1'800));
  e.on_sample(sim::milliseconds(680));
  EXPECT_EQ(e.srtt(), sim::milliseconds(610));
  EXPECT_EQ(e.min_rtt(), sim::milliseconds(600));
}

// --- Sampling discipline in the sender module -----------------------------

constexpr net::IpAddr kVm = net::make_ip(10, 0, 0, 1);
constexpr net::IpAddr kPeer = net::make_ip(10, 0, 0, 2);

net::Packet data_packet(std::uint32_t seq, std::int64_t payload) {
  net::Packet p;
  p.ip.src = kVm;
  p.ip.dst = kPeer;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 80;
  p.tcp.seq = seq;
  p.tcp.flags.ack = true;
  p.payload_bytes = payload;
  return p;
}

net::Packet ack_packet(std::uint32_t ack_seq) {
  net::Packet p;
  p.ip.src = kPeer;
  p.ip.dst = kVm;
  p.tcp.src_port = 80;
  p.tcp.dst_port = 1000;
  p.tcp.ack_seq = ack_seq;
  p.tcp.flags.ack = true;
  p.tcp.window_raw = 65'535;
  return p;
}

class RttSamplingTest : public ::testing::Test {
 protected:
  RttSamplingTest() : sender_(core_) { core_.sim = &sim_; }

  FlowHot& entry() {
    return *core_.entry(FlowKey{kVm, kPeer, 1000, 80},
                        AcdcCore::kCacheSndEgress)
                .hot;
  }
  bool egress(net::Packet p) { return sender_.process_egress(p); }
  bool ingress(net::Packet p) { return sender_.process_ingress_ack(p); }

  sim::Simulator sim_;
  AcdcCore core_;
  SenderModule sender_{core_};
};

TEST_F(RttSamplingTest, AckCompletingTheSampleFeedsTheEstimator) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  sim_.run_until(sim::microseconds(300));
  ASSERT_TRUE(ingress(ack_packet(2'000)));
  EXPECT_FALSE(entry().rtt_sample_pending);
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_TRUE(entry().rtt.has_sample());
  EXPECT_EQ(entry().rtt.srtt(), 300u);
  EXPECT_EQ(entry().rtt.min_rtt(), 300u);
}

TEST_F(RttSamplingTest, PartialAckKeepsTheSamplePending) {
  ASSERT_TRUE(egress(data_packet(1'000, 3'000)));
  sim_.run_until(sim::microseconds(100));
  // The sample covers the whole segment (end = 4000); acking half of it
  // must not complete the measurement.
  ASSERT_TRUE(ingress(ack_packet(2'500)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  EXPECT_EQ(core_.stats.rtt_samples, 0);
  sim_.run_until(sim::microseconds(250));
  ASSERT_TRUE(ingress(ack_packet(4'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_EQ(entry().rtt.srtt(), 250u) << "timed from the original send";
}

TEST_F(RttSamplingTest, KarnsRuleDropsRetransmittedSamples) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  // Retransmission of the sampled segment: the measurement is poisoned
  // (the eventual ACK could match either transmission).
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  EXPECT_FALSE(entry().rtt_sample_pending);
  sim_.run_until(sim::microseconds(500));
  ASSERT_TRUE(ingress(ack_packet(2'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 0);
  EXPECT_FALSE(entry().rtt.has_sample());

  // The next fresh segment re-arms sampling as usual.
  ASSERT_TRUE(egress(data_packet(2'000, 1'000)));
  EXPECT_TRUE(entry().rtt_sample_pending);
  sim_.run_until(sim::microseconds(700));
  ASSERT_TRUE(ingress(ack_packet(3'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_EQ(entry().rtt.srtt(), 200u);
}

TEST_F(RttSamplingTest, OnlyOneSampleInFlightPerFlow) {
  ASSERT_TRUE(egress(data_packet(1'000, 1'000)));
  const std::uint32_t armed_end = entry().rtt_sample_end;
  // A second in-flight segment must not re-arm (one timer per flow, like
  // the classic non-timestamp TCP sampler).
  sim_.run_until(sim::microseconds(50));
  ASSERT_TRUE(egress(data_packet(2'000, 1'000)));
  EXPECT_EQ(entry().rtt_sample_end, armed_end);
  sim_.run_until(sim::microseconds(100));
  // The cumulative ACK for both completes the one pending sample.
  ASSERT_TRUE(ingress(ack_packet(3'000)));
  EXPECT_EQ(core_.stats.rtt_samples, 1);
  EXPECT_EQ(entry().rtt.srtt(), 100u);
}

TEST_F(RttSamplingTest, SynSegmentsAreNotSampled) {
  net::Packet syn = data_packet(100, 0);
  syn.tcp.flags = net::TcpFlags{};
  syn.tcp.flags.syn = true;
  ASSERT_TRUE(egress(syn));
  EXPECT_FALSE(entry().rtt_sample_pending)
      << "handshake-only flows keep the inactivity-scan fallback";
}

}  // namespace
}  // namespace acdc::vswitch
