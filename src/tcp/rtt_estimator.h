// RFC 6298 smoothed RTT estimation and RTO computation — the one
// implementation behind both the tenant TCP stack and the AC/DC vSwitch,
// which rebuilds the same sender state per flow (§3.1).
//
// Linux-style fixed point: srtt is kept ×8 and rttvar ×4, so the EWMA
// updates are pure integer shifts — no floating point on the per-ACK path.
// The negative-error branch uses Linux's slow-decrease variant: when a
// sample is below srtt, the deviation term only decays at 1/8 of the usual
// gain, so one fast ACK after a congestion epoch cannot collapse the RTO.
//
// `Tick` is the sample type and `kGranularity` the clock granularity G in
// ticks. The vSwitch keeps whole µs in 32 bits (FlowHot's line layout
// depends on the 12-byte footprint); the tenant stack keeps sim::Time ns,
// because srtt ×8 in ns overflows 32 bits at about 537 ms. Both use
// G = 1 µs. Initial RTO, RTO bounds and the backoff cap are each caller's
// policy.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.h"

namespace acdc::tcp {

template <typename Tick, Tick kGranularity>
class RttEstimator {
 public:
  // The backoff shift saturates here so a stuck flow can't overflow the
  // arithmetic.
  static constexpr unsigned kMaxBackoffShift = 24;

  bool has_sample() const { return srtt_x8_ != 0; }
  Tick srtt() const { return srtt_x8_ >> 3; }
  Tick min_rtt() const { return min_rtt_; }  // 0 = no sample yet
  // The raw fixed-point state.
  Tick srtt_x8() const { return srtt_x8_; }
  Tick rttvar_x4() const { return rttvar_x4_; }

  // Folds one completed measurement in. Karn's rule is the caller's job:
  // never feed a sample whose segment was retransmitted.
  void on_sample(Tick rtt) {
    if (rtt < 1) rtt = 1;  // a sub-tick RTT still counts
    if (min_rtt_ == 0 || rtt < min_rtt_) min_rtt_ = rtt;
    if (!has_sample()) {
      // First sample: srtt = rtt, rttvar = rtt/2 (RFC 6298 §2.2).
      srtt_x8_ = rtt << 3;
      rttvar_x4_ = rtt << 1;
      return;
    }
    // srtt += (rtt - srtt) / 8, carried out in x8 units.
    std::int64_t err = static_cast<std::int64_t>(rtt) -
                       static_cast<std::int64_t>(srtt_x8_ >> 3);
    srtt_x8_ = static_cast<Tick>(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(srtt_x8_) + err));
    if (err < 0) {
      err = -err - static_cast<std::int64_t>(rttvar_x4_ >> 2);
      if (err > 0) err >>= 3;  // slow decrease
    } else {
      err -= static_cast<std::int64_t>(rttvar_x4_ >> 2);
    }
    rttvar_x4_ = static_cast<Tick>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(rttvar_x4_) + err));
  }

  // RTO = srtt + max(G, 4·rttvar) (the ×4 scaling makes the 4· a plain
  // read), with the exponential backoff applied as a shift. Only meaningful
  // once has_sample().
  std::int64_t rto(unsigned backoff = 0) const {
    const std::int64_t rto =
        static_cast<std::int64_t>(srtt_x8_ >> 3) +
        static_cast<std::int64_t>(std::max(kGranularity, rttvar_x4_));
    return rto << std::min(backoff, kMaxBackoffShift);
  }

 private:
  Tick srtt_x8_ = 0;    // smoothed RTT << 3; 0 = no sample yet
  Tick rttvar_x4_ = 0;  // mean deviation << 2
  Tick min_rtt_ = 0;    // smallest sample seen (τ for PowerTCP)
};

// The vSwitch's per-flow estimator: whole microseconds.
using UsRttEstimator = RttEstimator<std::uint32_t, 1>;
// The tenant stack's estimator: sim::Time nanoseconds.
using NsRttEstimator = RttEstimator<sim::Time, sim::microseconds(1)>;

}  // namespace acdc::tcp
