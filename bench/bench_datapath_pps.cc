// Datapath packets-per-second microbench — the perf-trajectory anchor.
//
// Measures the simulator's hot path the way the paper measures the OVS
// datapath (§5.2, Figs. 11-12): the steady-state per-packet cost of the
// AC/DC vSwitch, plus the event-scheduler churn cost that RTO/scan/metrics
// timers put on the simulation core. An interposing operator new/delete
// (alloc_probe.cc) counts heap traffic so "allocation-free steady state" is
// a measured number, not a claim.
//
// Workloads:
//   pingpong  — one flow, egress data + ingress ACK-with-feedback per
//               iteration: the per-flow fast path (flow cache, packet pool).
//   multiflow — 1024 flows round-robin egress data: hash-table pressure,
//               defeats the single-entry flow cache on purpose.
//   events    — RTO-style timer churn: re-arm (cancel+schedule) a far timer
//               and fire a near one each iteration.
//   parallel  — an 8-shard leaf-spine fabric with ring bulk traffic, run on
//               the conservative parallel engine at 1/2/4/8 worker threads:
//               end-to-end events/sec and the t8-vs-t1 speedup.
//   overhead  — the same end-to-end dumbbell run untraced and then with the
//               flight recorder + per-packet forensic taps enabled: the
//               tracing tax on delivered packets/sec (ratio of each arm's
//               best trial over seven interleaved pairs; the post-run merge +
//               delay attribution is timed separately as
//               forensics_analysis_ms). run_perf.sh --check gates the tap
//               overhead at <= 10%. The untraced arm also counts heap
//               allocations per delivered packet over the second half of the
//               horizon (e2e_allocs_per_packet_steady, gated at <= 0.25)
//               and simulator events executed per delivered packet over the
//               whole horizon (e2e_events_per_packet, a deterministic count
//               that run_perf.sh --check also gates).
//
// Output: a flat JSON object on stdout (or --json <path>); bench/run_perf.sh
// merges it with the committed pre-PR baseline into BENCH_datapath.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "acdc/vswitch.h"
#include "alloc_probe.h"
#include "exp/dumbbell.h"
#include "exp/leaf_spine.h"
#include "forensics/delay_analyzer.h"
#include "obs/merge.h"
#include "sim/parallel/executor.h"
#include "sim/simulator.h"

namespace acdc {
namespace {

using Clock = std::chrono::steady_clock;

class NullSink : public net::PacketSink {
 public:
  void receive(net::PacketPtr packet) override { last_ = packet.get(); }

 private:
  const net::Packet* last_ = nullptr;  // defeat dead-code elimination
};

net::PacketPtr make_data_packet(int flow, std::uint32_t seq) {
  auto p = net::make_packet();
  p->ip.src = net::make_ip(10, 0, 0, 1);
  p->ip.dst = net::make_ip(10, 1, static_cast<std::uint8_t>(flow >> 8),
                           static_cast<std::uint8_t>(flow & 0xff));
  p->tcp.src_port = static_cast<net::TcpPort>(10'000 + (flow % 50'000));
  p->tcp.dst_port = 80;
  p->tcp.seq = seq;
  p->tcp.flags.ack = true;
  p->tcp.ack_seq = 1;
  p->payload_bytes = 1448;
  return p;
}

net::PacketPtr make_ack_packet(int flow, std::uint32_t ack_seq,
                               std::uint32_t fb_total) {
  auto p = net::make_packet();
  p->ip.src = net::make_ip(10, 1, static_cast<std::uint8_t>(flow >> 8),
                           static_cast<std::uint8_t>(flow & 0xff));
  p->ip.dst = net::make_ip(10, 0, 0, 1);
  p->tcp.src_port = 80;
  p->tcp.dst_port = static_cast<net::TcpPort>(10'000 + (flow % 50'000));
  p->tcp.flags.ack = true;
  p->tcp.ack_seq = ack_seq;
  p->tcp.window_raw = 30'000;
  p->tcp.options.acdc = net::AcdcFeedback{fb_total, fb_total / 8};
  return p;
}

struct Harness {
  sim::Simulator sim;
  vswitch::AcdcVswitch vs{&sim, vswitch::AcdcConfig{}};
  NullSink down;
  NullSink up;
  int flows;

  explicit Harness(int flow_count) : flows(flow_count) {
    vs.set_down(&down);
    vs.set_up(&up);
    for (int f = 0; f < flows; ++f) {
      vs.egress_in().receive(make_data_packet(f, 1));
    }
  }
};

struct Sample {
  double per_sec = 0;
  double ns_each = 0;
  double allocs_each = 0;
};

// One flow, forward data + reverse ACK (with PACK feedback) per iteration.
Sample run_pingpong(std::uint64_t iters) {
  Harness h(1);
  std::uint32_t seq = 1449;
  std::uint32_t ack = 1;
  auto step = [&] {
    h.vs.egress_in().receive(make_data_packet(0, seq));
    seq += 1448;
    ack += 1448;
    h.vs.ingress_in().receive(make_ack_packet(0, ack, ack));
  };
  for (std::uint64_t i = 0; i < iters / 16; ++i) step();  // warm up

  bench::AllocWindow aw;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) step();
  const auto t1 = Clock::now();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double packets = 2.0 * static_cast<double>(iters);
  Sample s;
  s.per_sec = packets / secs;
  s.ns_each = secs * 1e9 / packets;
  s.allocs_each = static_cast<double>(aw.allocs()) / packets;
  return s;
}

// Round-robin egress data across many flows: flow-table pressure.
Sample run_multiflow(std::uint64_t iters, int flows) {
  Harness h(flows);
  std::uint32_t seq = 1449;
  int f = 0;
  auto step = [&] {
    h.vs.egress_in().receive(make_data_packet(f, seq));
    if (++f == h.flows) {
      f = 0;
      seq += 1448;
    }
  };
  for (std::uint64_t i = 0; i < iters / 16; ++i) step();

  bench::AllocWindow aw;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) step();
  const auto t1 = Clock::now();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double packets = static_cast<double>(iters);
  Sample s;
  s.per_sec = packets / secs;
  s.ns_each = secs * 1e9 / packets;
  s.allocs_each = static_cast<double>(aw.allocs()) / packets;
  return s;
}

// RTO-style churn: every iteration re-arms a far timer (cancel + schedule)
// and schedules + fires a near event. Events = scheduled callbacks.
Sample run_events(std::uint64_t iters) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  sim::EventId pending = sim::kInvalidEventId;
  auto step = [&] {
    if (pending != sim::kInvalidEventId) sim.cancel(pending);
    pending = sim.schedule(sim::milliseconds(10), [&fired] { ++fired; });
    sim.schedule(sim::microseconds(1), [&fired] { ++fired; });
    sim.step();
  };
  for (std::uint64_t i = 0; i < iters / 16; ++i) step();

  bench::AllocWindow aw;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) step();
  const auto t1 = Clock::now();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double events = 2.0 * static_cast<double>(iters);
  Sample s;
  s.per_sec = events / secs;
  s.ns_each = secs * 1e9 / events;
  s.allocs_each = static_cast<double>(aw.allocs()) / events;
  if (fired == 0) std::fprintf(stderr, "events never fired?\n");
  return s;
}

struct ParallelSample {
  int threads = 0;  // 0 = serial engine (no partition), the speedup anchor
  double events_per_sec = 0;
  double wall_secs = 0;
  std::uint64_t events = 0;
  bool parallel = false;  // false when the partition fell back to serial
  // Executor diagnostics (zero on the serial arm): how the wall time was
  // spent. msgs = cross-shard handoffs; null windows = safe-time
  // publications that executed nothing (pure sync traffic); barrier/idle ns
  // are summed across worker threads.
  std::uint64_t windows = 0;
  std::uint64_t msgs = 0;
  std::uint64_t null_msgs = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t idle_wait_ns = 0;
};

// End-to-end parallel workload: an 8-leaf/4-spine fabric partitioned into 8
// shards (one leaf + its hosts per shard), with every host running a bulk
// flow to its peer under the next leaf — all traffic crosses a shard cut.
// The shard count is fixed so the event stream is identical at every thread
// count; only wall time should change. threads == 0 runs the identical
// workload on the serial engine — the anchor for the t1 overhead gate
// (parallel at one thread must stay within 15% of serial).
ParallelSample run_parallel_leaf_spine(int threads, sim::Time horizon) {
  exp::LeafSpineConfig cfg;
  cfg.leaves = 8;
  cfg.spines = 4;
  cfg.hosts_per_leaf = 6;
  cfg.scenario.seed = 7;
  exp::LeafSpine fabric(cfg);
  exp::Scenario& sc = fabric.scenario();
  exp::PartitionReport report;
  if (threads > 0) report = sc.enable_parallel(8, threads);

  const tcp::TcpConfig tcp_cfg = sc.tcp_config(tcp::CcId::kCubic);
  int pair = 0;
  for (int l = 0; l < cfg.leaves; ++l) {
    for (int i = 0; i < cfg.hosts_per_leaf; ++i) {
      sc.add_bulk_flow(fabric.host(l, i),
                       fabric.host((l + 1) % cfg.leaves, i), tcp_cfg,
                       sim::microseconds(10 + pair));
      ++pair;
    }
  }

  const auto t0 = Clock::now();
  sc.run_until(horizon);
  const auto t1 = Clock::now();

  ParallelSample s;
  s.threads = threads;
  s.wall_secs = std::chrono::duration<double>(t1 - t0).count();
  s.events = sc.executed_events();
  s.events_per_sec = static_cast<double>(s.events) / s.wall_secs;
  s.parallel = report.parallel;
  if (sc.executor() != nullptr) {
    const sim::par::ParallelExecutor::Stats st = sc.executor()->stats();
    s.windows = st.epochs;
    s.msgs = st.messages;
    s.null_msgs = st.null_msgs;
    s.barrier_wait_ns = st.barrier_wait_ns;
    s.idle_wait_ns = st.idle_wait_ns;
  }
  return s;
}

struct OverheadSample {
  double untraced_pps = 0;
  double traced_pps = 0;
  double overhead_pct = 0;   // positive = tracing is slower
  double analysis_ms = 0;    // post-run merge + delay-attribution wall time
  double untraced_allocs_per_packet = 0;  // worst trial, second half only
  double untraced_events_per_packet = 0;  // identical in every trial
};

struct E2eSample {
  double pps = 0;
  // Heap allocations per NIC-delivered packet over the second half of the
  // horizon, once connections, pools and buffers have reached their
  // high-water marks.
  double allocs_per_packet_steady = 0;
  // Simulator events executed per NIC-delivered packet, whole horizon.
  double events_per_packet = 0;
};

// End-to-end dumbbell (4 bulk flows) measured as NIC-delivered packets per
// wall second. The traced run carries the full tap set (packet origin /
// tx-start / deliver events into the ring) — exactly what a user
// debugging latency would enable — and the post-run merge + forensics
// analysis is timed separately into *analysis_ms.
E2eSample run_dumbbell_e2e(bool traced, sim::Time horizon,
                           double* analysis_ms = nullptr) {
  exp::DumbbellConfig dc;
  dc.scenario.seed = 11;
  dc.pairs = 4;
  exp::Dumbbell bell(dc);
  exp::Scenario& sc = bell.scenario();
  // Ring sized for always-on deployment (1 MB ~ the last few ms of fabric
  // history at ~5 tap events per delivered packet): the measured tracing
  // tax is dominated by the ring's cache footprint, not the tap
  // instructions — at this size the full tap set costs ~6-8% of e2e pps,
  // while a deep-retention 16 MB ring (what the soak and fuzz failure
  // paths use, where wall time is irrelevant) measures ~15% on a 4 MB-LLC
  // box purely from evicting the simulation's working set.
  if (traced) {
    sc.enable_tracing(std::size_t{1} << 14, /*metrics_interval=*/0);
  }
  const tcp::TcpConfig tcp_cfg = sc.tcp_config(tcp::CcId::kCubic);
  for (int i = 0; i < dc.pairs; ++i) {
    sc.add_bulk_flow(bell.sender(i), bell.receiver(i), tcp_cfg,
                     sim::microseconds(10 + i));
  }

  auto delivered = [&] {
    std::int64_t packets = 0;
    for (int i = 0; i < dc.pairs; ++i) {
      packets += bell.sender(i)->nic().received_packets();
      packets += bell.receiver(i)->nic().received_packets();
    }
    return packets;
  };

  const auto t0 = Clock::now();
  sc.run_until(horizon / 2);
  const std::int64_t half_packets = delivered();
  const bench::AllocWindow aw;
  sc.run_until(horizon);
  const auto t1 = Clock::now();
  const std::uint64_t steady_allocs = aw.allocs();
  // Post-run merge + analysis is a debugging cost paid once per run, not a
  // per-packet tax; report its wall time separately instead of folding it
  // into the pps figure the overhead gate compares.
  std::int64_t analyzed = 0;
  if (traced) {
    const auto a0 = Clock::now();
    const obs::MergedTrace merged = obs::merge_recorders(sc.recorders());
    const forensics::Report report =
        forensics::DelayAnalyzer::analyze(merged);
    analyzed = report.packets_delivered;
    if (analysis_ms != nullptr) {
      *analysis_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - a0)
              .count();
    }
  }

  const std::int64_t packets = delivered();
  if (traced && analyzed == 0) {
    std::fprintf(stderr, "forensics analyzed no packets?\n");
  }
  E2eSample s;
  s.pps = static_cast<double>(packets) /
          std::chrono::duration<double>(t1 - t0).count();
  s.allocs_per_packet_steady =
      static_cast<double>(steady_allocs) /
      static_cast<double>(std::max<std::int64_t>(1, packets - half_packets));
  s.events_per_packet = static_cast<double>(sc.executed_events()) /
                        static_cast<double>(std::max<std::int64_t>(1, packets));
  return s;
}

OverheadSample run_tracing_overhead(sim::Time horizon) {
  OverheadSample s;
  // The simulated work is deterministic, so run-to-run pps spread is pure
  // scheduler/cache/frequency interference — and interference only ever
  // slows a trial down. Run five back-to-back untraced/traced pairs (the
  // interleave keeps both arms in the same frequency regime) and take each
  // arm's best trial as its least-perturbed speed; the gate compares those
  // two bests. Per-pair medians were tried first and still swung several
  // points run-to-run, because a single stolen timeslice skews whichever
  // half of a short pair it lands on; seven pairs gives each arm enough
  // shots at an unperturbed trial.
  for (int trial = 0; trial < 7; ++trial) {
    const E2eSample untraced = run_dumbbell_e2e(false, horizon);
    double analysis_ms = 0;
    const double traced = run_dumbbell_e2e(true, horizon, &analysis_ms).pps;
    s.untraced_pps = std::max(s.untraced_pps, untraced.pps);
    s.untraced_allocs_per_packet = std::max(
        s.untraced_allocs_per_packet, untraced.allocs_per_packet_steady);
    s.untraced_events_per_packet = untraced.events_per_packet;
    if (traced > s.traced_pps) {
      s.traced_pps = traced;
      s.analysis_ms = analysis_ms;
    }
  }
  s.overhead_pct = (1.0 - s.traced_pps / s.untraced_pps) * 100.0;
  return s;
}

}  // namespace
}  // namespace acdc

int main(int argc, char** argv) {
  std::uint64_t packet_iters = 2'000'000;
  std::uint64_t multiflow_iters = 2'000'000;
  std::uint64_t event_iters = 1'000'000;
  int flows = 1024;
  std::int64_t parallel_ms = 40;  // simulated horizon; 0 skips the sweep
  std::int64_t overhead_ms = 200;  // tracing A/B horizon; 0 skips it
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--packet-iters") == 0) {
      packet_iters = std::strtoull(next("--packet-iters"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--multiflow-iters") == 0) {
      multiflow_iters = std::strtoull(next("--multiflow-iters"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--event-iters") == 0) {
      event_iters = std::strtoull(next("--event-iters"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--flows") == 0) {
      flows = std::atoi(next("--flows"));
    } else if (std::strcmp(argv[i], "--parallel-ms") == 0) {
      parallel_ms = std::atoll(next("--parallel-ms"));
    } else if (std::strcmp(argv[i], "--overhead-ms") == 0) {
      overhead_ms = std::atoll(next("--overhead-ms"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next("--json");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--packet-iters N] [--multiflow-iters N] "
                   "[--event-iters N] [--flows N] [--parallel-ms N] "
                   "[--overhead-ms N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const acdc::Sample ping = acdc::run_pingpong(packet_iters);
  const acdc::Sample multi = acdc::run_multiflow(multiflow_iters, flows);
  const acdc::Sample events = acdc::run_events(event_iters);

  acdc::OverheadSample overhead;
  if (overhead_ms > 0) {
    overhead =
        acdc::run_tracing_overhead(acdc::sim::milliseconds(overhead_ms));
    std::fprintf(stderr,
                 "tracing overhead: %.2f Mpps untraced, %.2f Mpps traced "
                 "(%.1f%%), analysis %.1f ms; e2e %.3f allocs/pkt steady, "
                 "%.3f events/pkt\n",
                 overhead.untraced_pps / 1e6, overhead.traced_pps / 1e6,
                 overhead.overhead_pct, overhead.analysis_ms,
                 overhead.untraced_allocs_per_packet,
                 overhead.untraced_events_per_packet);
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::vector<acdc::ParallelSample> sweep;
  acdc::ParallelSample serial_arm;
  if (parallel_ms > 0) {
    const acdc::sim::Time horizon = acdc::sim::milliseconds(parallel_ms);
    serial_arm = acdc::run_parallel_leaf_spine(0, horizon);
    std::fprintf(stderr, "parallel serial-arm: %.2f Mev/s (%.0f ms wall)\n",
                 serial_arm.events_per_sec / 1e6, serial_arm.wall_secs * 1e3);
    for (int t : {1, 2, 4, 8}) {
      sweep.push_back(acdc::run_parallel_leaf_spine(t, horizon));
      const acdc::ParallelSample& s = sweep.back();
      std::fprintf(stderr,
                   "parallel t%d: %.2f Mev/s (%.0f ms wall, %s; "
                   "%llu windows, %llu msgs, %llu null, "
                   "barrier %.1f ms, idle %.1f ms)\n",
                   s.threads, s.events_per_sec / 1e6, s.wall_secs * 1e3,
                   s.parallel ? "sharded" : "serial fallback",
                   static_cast<unsigned long long>(s.windows),
                   static_cast<unsigned long long>(s.msgs),
                   static_cast<unsigned long long>(s.null_msgs),
                   static_cast<double>(s.barrier_wait_ns) / 1e6,
                   static_cast<double>(s.idle_wait_ns) / 1e6);
    }
  }

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
               "  \"bench\": \"datapath_pps\",\n"
               "  \"packets_per_sec\": %.0f,\n"
               "  \"ns_per_packet\": %.2f,\n"
               "  \"allocs_per_packet_steady\": %.4f,\n"
               "  \"multiflow_packets_per_sec\": %.0f,\n"
               "  \"multiflow_ns_per_packet\": %.2f,\n"
               "  \"multiflow_allocs_per_packet\": %.4f,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"ns_per_event\": %.2f,\n"
               "  \"allocs_per_event_steady\": %.4f,\n"
               "  \"flows_multiflow\": %d",
               ping.per_sec, ping.ns_each, ping.allocs_each, multi.per_sec,
               multi.ns_each, multi.allocs_each, events.per_sec,
               events.ns_each, events.allocs_each, flows);
  if (overhead_ms > 0) {
    std::fprintf(out,
                 ",\n"
                 "  \"e2e_pps_untraced\": %.0f,\n"
                 "  \"e2e_pps_traced\": %.0f,\n"
                 "  \"tracing_overhead_pct\": %.2f,\n"
                 "  \"forensics_analysis_ms\": %.2f,\n"
                 "  \"e2e_allocs_per_packet_steady\": %.4f,\n"
                 "  \"e2e_events_per_packet\": %.4f",
                 overhead.untraced_pps, overhead.traced_pps,
                 overhead.overhead_pct, overhead.analysis_ms,
                 overhead.untraced_allocs_per_packet,
                 overhead.untraced_events_per_packet);
  }
  if (!sweep.empty()) {
    std::fprintf(out,
                 ",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"parallel_sim_ms\": %lld,\n"
                 "  \"parallel_sharded\": %s,\n"
                 "  \"parallel_events_per_sec_serial\": %.0f",
                 hw_threads, static_cast<long long>(parallel_ms),
                 sweep[0].parallel ? "true" : "false",
                 serial_arm.events_per_sec);
    for (const acdc::ParallelSample& s : sweep) {
      const double msgs_per_window =
          s.windows > 0
              ? static_cast<double>(s.msgs) / static_cast<double>(s.windows)
              : 0.0;
      std::fprintf(out,
                   ",\n  \"parallel_events_per_sec_t%d\": %.0f"
                   ",\n  \"parallel_windows_t%d\": %llu"
                   ",\n  \"parallel_msgs_per_window_t%d\": %.3f"
                   ",\n  \"parallel_null_msgs_t%d\": %llu"
                   ",\n  \"parallel_barrier_wait_ms_t%d\": %.2f"
                   ",\n  \"parallel_idle_wait_ms_t%d\": %.2f",
                   s.threads, s.events_per_sec, s.threads,
                   static_cast<unsigned long long>(s.windows), s.threads,
                   msgs_per_window, s.threads,
                   static_cast<unsigned long long>(s.null_msgs), s.threads,
                   static_cast<double>(s.barrier_wait_ns) / 1e6, s.threads,
                   static_cast<double>(s.idle_wait_ns) / 1e6);
    }
    std::fprintf(out, ",\n  \"parallel_speedup_t8\": %.3f",
                 sweep.back().events_per_sec / sweep.front().events_per_sec);
    if (serial_arm.events_per_sec > 0) {
      std::fprintf(out, ",\n  \"parallel_t1_vs_serial\": %.3f",
                   sweep.front().events_per_sec / serial_arm.events_per_sec);
    }
  }
  std::fprintf(out, "\n}\n");
  if (out != stdout) std::fclose(out);
  std::fprintf(stderr,
               "pingpong: %.2f Mpps (%.1f ns/pkt, %.3f allocs/pkt)\n"
               "multiflow(%d): %.2f Mpps (%.1f ns/pkt, %.3f allocs/pkt)\n"
               "events: %.2f Mev/s (%.1f ns/ev, %.3f allocs/ev)\n",
               ping.per_sec / 1e6, ping.ns_each, ping.allocs_each, flows,
               multi.per_sec / 1e6, multi.ns_each, multi.allocs_each,
               events.per_sec / 1e6, events.ns_each, events.allocs_each);
  return 0;
}
