// Flow-table occupancy sweep — the 10M-flow datapath headline bench.
//
// bench_datapath_pps's multiflow workload holds occupancy at 1024 flows; this
// bench asks the scaling question instead: how much per-packet throughput
// survives when the open-addressed table holds 10k / 100k / 1M / 10M resident
// flows and every packet lands on a uniformly random one. At the large
// occupancies the working set is far beyond any cache level, so the number is
// dominated by exactly what the hot/cold split and the burst-prefetch pass
// exist to hide: the DRAM touch per lookup.
//
// Each measured iteration drives one rx-sized burst (default 32) through both
// directions of the vSwitch: an egress data burst for a batch of
// LCG-randomized flows, then the matching ingress ACK burst (with PACK
// feedback), both through the vSwitch's two-stage prefetch pipeline.
//
// Every flow keeps kOutstanding segments in flight and each ACK covers only
// the oldest one, so ACKs land mid-window the way they do on a real
// many-flow host: the observation-window boundary — where the virtual CC
// reads alpha and beta and may cut — rolls once per kOutstanding visits,
// not on every packet. An every-ACK-is-a-boundary workload (each ACK
// covering snd_nxt exactly) puts per-window state on the per-packet path
// and measures a regime no real flow sits in.
//
// The self-relative gate is ratio_1m_10k: pps at 1M resident flows must stay
// >= 70% of pps at 10k (run_perf.sh --check). Self-relative because it
// measures the table's cache behavior, not the machine's absolute speed.
//
// Measurement is interleaved: all occupancy arms are populated up front and
// each round times one trial of every arm back to back, taking the best
// round per arm (same discipline as bench_datapath_pps's overhead A/B). On
// shared machines interference arrives in multi-second phases; sequential
// arms would each marinate in a different phase and the *ratio* — the only
// number the gate reads — would absorb the difference. Interleaving makes a
// phase hit all arms alike, and best-of finds each arm's least-perturbed
// round.
//
// The 10M point needs ~5 GB of flow state, so it only runs when
// /proc/meminfo reports enough MemAvailable, and never under --quick.
//
// Output: a flat JSON object on stdout (or --json <path>); bench/run_perf.sh
// merges it into BENCH_datapath.json under "multiflow".
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "acdc/vswitch.h"
#include "sim/simulator.h"

namespace acdc {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBurst = 32;
constexpr std::uint32_t kSegment = 1448;
// Segments each flow keeps in flight; ACKs trail the send edge by this much.
constexpr std::uint32_t kOutstanding = 8;

class NullSink : public net::PacketSink {
 public:
  void receive(net::PacketPtr packet) override { last_ = packet.get(); }

 private:
  const net::Packet* last_ = nullptr;  // defeat dead-code elimination
};

net::IpAddr vm_ip() { return net::make_ip(10, 0, 0, 1); }

net::IpAddr peer_ip(std::uint32_t flow) {
  // Unique per flow up to ~16.7M: the flow index spread over three octets.
  return net::make_ip(10, static_cast<std::uint8_t>(1 + (flow >> 16)),
                      static_cast<std::uint8_t>((flow >> 8) & 0xff),
                      static_cast<std::uint8_t>(flow & 0xff));
}

net::TcpPort flow_port(std::uint32_t flow) {
  return static_cast<net::TcpPort>(10'000 + (flow % 40'000));
}

net::PacketPtr make_data_packet(std::uint32_t flow, std::uint32_t seq) {
  auto p = net::make_packet();
  p->ip.src = vm_ip();
  p->ip.dst = peer_ip(flow);
  p->tcp.src_port = flow_port(flow);
  p->tcp.dst_port = 80;
  p->tcp.seq = seq;
  p->tcp.flags.ack = true;
  p->tcp.ack_seq = 1;
  p->payload_bytes = 1448;
  return p;
}

net::PacketPtr make_ack_packet(std::uint32_t flow, std::uint32_t ack_seq) {
  auto p = net::make_packet();
  p->ip.src = peer_ip(flow);
  p->ip.dst = vm_ip();
  p->tcp.src_port = 80;
  p->tcp.dst_port = flow_port(flow);
  p->tcp.flags.ack = true;
  p->tcp.ack_seq = ack_seq;
  p->tcp.window_raw = 30'000;
  p->tcp.options.acdc = net::AcdcFeedback{ack_seq, ack_seq / 8};
  return p;
}

struct OccupancySample {
  std::size_t flows = 0;
  double per_sec = 0;
  double ns_each = 0;
  std::size_t table_capacity = 0;
  std::int64_t rehashes = 0;
};

// One occupancy point: a populated vSwitch plus the driver state needed to
// run timed trials against it. All arms stay live for the whole sweep so
// rounds can interleave them.
class OccupancyArm {
 public:
  OccupancyArm(std::size_t flows, std::uint64_t packets)
      : flows_(flows),
        iters_(packets / (2 * kBurst)),
        vs_(&sim_, vswitch::AcdcConfig{}),
        snd_nxt_(flows) {
    vs_.set_down(&down_);
    vs_.set_up(&up_);
    // Resident set: one established flow per index, created through the
    // real egress path so every entry carries initialized CC + sequence
    // state. The opening segment is a jumbo covering kOutstanding+1 MSS of
    // sequence space, so the in-flight window every later visit maintains
    // exists from the first measured packet.
    for (std::uint32_t f = 0; f < flows_; ++f) {
      auto p = make_data_packet(f, 1);
      p->payload_bytes = static_cast<std::int64_t>(kOutstanding + 1) * kSegment;
      vs_.egress_in().receive(std::move(p));
      snd_nxt_[f] = 1 + (kOutstanding + 1) * kSegment;
    }
    if (vs_.flows().size() != flows_) {
      std::fprintf(stderr, "ERROR: table holds %zu flows, expected %zu\n",
                   vs_.flows().size(), flows_);
      std::exit(1);
    }
    draw_batch(batch_);
    for (std::uint64_t i = 0; i < iters_ / 16 + 1; ++i) step();  // warm up
  }

  // Runs one timed trial and folds it into the arm's best-of.
  void run_trial() {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters_; ++i) step();
    const auto t1 = Clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (best_secs_ == 0 || secs < best_secs_) best_secs_ = secs;
  }

  OccupancySample sample() {
    const double measured = static_cast<double>(iters_ * 2 * kBurst);
    OccupancySample s;
    s.flows = flows_;
    s.per_sec = measured / best_secs_;
    s.ns_each = best_secs_ * 1e9 / measured;
    s.table_capacity = vs_.flows().capacity();
    s.rehashes = vs_.flows().stats().rehashes;
    return s;
  }

 private:
  void draw_batch(std::uint32_t* out) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
      out[i] = static_cast<std::uint32_t>((lcg_ >> 33) % flows_);
#if defined(__GNUC__) || defined(__clang__)
      // Warm the bench's own per-flow sequence slot a whole iteration
      // ahead, so harness misses don't pollute the table-scaling signal
      // being measured.
      __builtin_prefetch(&snd_nxt_[out[i]], 1);
#endif
    }
  }

  void step() {
    draw_batch(next_batch_);  // prefetches for the NEXT iteration
    for (std::size_t i = 0; i < kBurst; ++i) {
      pkts_[i] = make_data_packet(batch_[i], snd_nxt_[batch_[i]]);
      snd_nxt_[batch_[i]] += kSegment;
    }
    vs_.egress_in().receive_burst(pkts_, kBurst);
    // Each ACK covers the oldest in-flight segment: it advances by one MSS
    // per visit (never a dupack) while staying kOutstanding segments behind
    // the send edge, so the flow is mid-window on almost every visit.
    for (std::size_t i = 0; i < kBurst; ++i) {
      pkts_[i] = make_ack_packet(
          batch_[i], snd_nxt_[batch_[i]] - kOutstanding * kSegment);
    }
    vs_.ingress_in().receive_burst(pkts_, kBurst);
    std::memcpy(batch_, next_batch_, sizeof(batch_));
  }

  std::size_t flows_;
  std::uint64_t iters_;
  sim::Simulator sim_;
  vswitch::AcdcVswitch vs_;
  NullSink down_;
  NullSink up_;
  std::vector<std::uint32_t> snd_nxt_;
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
  std::uint32_t batch_[kBurst];
  std::uint32_t next_batch_[kBurst];
  net::PacketPtr pkts_[kBurst];
  double best_secs_ = 0;
};

constexpr int kRounds = 25;

// MemAvailable in bytes, or -1 when /proc/meminfo is unreadable.
std::int64_t mem_available_bytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return -1;
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "MemAvailable: %lld kB",
                    reinterpret_cast<long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
}

}  // namespace
}  // namespace acdc

int main(int argc, char** argv) {
  std::uint64_t packets = 1'500'000;  // measured per occupancy point
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--packets") == 0) {
      packets = std::strtoull(next("--packets"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      // Still long enough per trial to reach cache steady state at 1M
      // occupancy: a trial shorter than one last-level-cache refill
      // (~4M lines on a large shared L3) measures the warm-up transient
      // and understates the large arms.
      packets = 1'200'000;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next("--json");
    } else {
      std::fprintf(stderr, "usage: %s [--packets N] [--quick] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<std::size_t> occupancies = {10'000, 100'000, 1'000'000};
  // The 10M point is the headline but needs ~5 GB of flow state plus table
  // slack; skip it (loudly) rather than swap. The gate metric only needs
  // the 10k and 1M points, so skipping never hides a regression.
  bool ran_10m = false;
  if (quick) {
    std::fprintf(stderr, "quick mode: capping occupancy sweep at 1M flows\n");
  } else {
    const std::int64_t avail = acdc::mem_available_bytes();
    if (avail >= std::int64_t{8} * 1024 * 1024 * 1024) {
      occupancies.push_back(10'000'000);
      ran_10m = true;
    } else {
      std::fprintf(stderr,
                   "skipping 10M point: MemAvailable %.1f GB < 8 GB\n",
                   static_cast<double>(avail) / (1 << 30));
    }
  }

  std::vector<std::unique_ptr<acdc::OccupancyArm>> arms;
  for (std::size_t flows : occupancies) {
    arms.push_back(std::make_unique<acdc::OccupancyArm>(flows, packets));
  }
  for (int round = 0; round < acdc::kRounds; ++round) {
    for (auto& arm : arms) arm->run_trial();
  }

  std::vector<acdc::OccupancySample> samples;
  for (const auto& arm : arms) {
    samples.push_back(arm->sample());
    const acdc::OccupancySample& s = samples.back();
    std::fprintf(stderr,
                 "occupancy %8zu: %.2f Mpps (%.1f ns/pkt, cap %zu, "
                 "%lld rehashes)\n",
                 s.flows, s.per_sec / 1e6, s.ns_each, s.table_capacity,
                 static_cast<long long>(s.rehashes));
  }

  const double ratio_1m_10k = samples[2].per_sec / samples[0].per_sec;

  std::FILE* out = stdout;
  if (!json_path.empty()) {
    out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"multiflow_pps\",\n"
               "  \"burst\": %zu,\n"
               "  \"packets_per_point\": %llu,\n"
               "  \"pps_10k\": %.0f,\n"
               "  \"ns_10k\": %.2f,\n"
               "  \"pps_100k\": %.0f,\n"
               "  \"ns_100k\": %.2f,\n"
               "  \"pps_1m\": %.0f,\n"
               "  \"ns_1m\": %.2f,\n",
               acdc::kBurst, static_cast<unsigned long long>(packets),
               samples[0].per_sec, samples[0].ns_each, samples[1].per_sec,
               samples[1].ns_each, samples[2].per_sec, samples[2].ns_each);
  if (ran_10m) {
    std::fprintf(out,
                 "  \"pps_10m\": %.0f,\n"
                 "  \"ns_10m\": %.2f,\n"
                 "  \"rehashes_10m\": %lld,\n",
                 samples[3].per_sec, samples[3].ns_each,
                 static_cast<long long>(samples[3].rehashes));
  }
  std::fprintf(out, "  \"ratio_1m_10k\": %.3f\n}\n", ratio_1m_10k);
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr, "ratio 1M/10k: %.3f\n", ratio_1m_10k);
  return 0;
}
