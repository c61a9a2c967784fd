#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "exp/dumbbell.h"
#include "exp/leaf_spine.h"
#include "exp/scenario.h"
#include "host/echo_app.h"
#include "net/packet_pool.h"
#include "sim/rng.h"
#include "stats/percentile.h"

namespace acdc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Fixed workload shapes. Only the seed varies between runs. ----

// bulk: dumbbell, 4 sender hosts x 4 long-lived CUBIC flows, MTU 1500.
constexpr int kBulkPairs = 4;
constexpr int kBulkFlowsPerHost = 4;
constexpr sim::Time kBulkHorizon = sim::milliseconds(100);

// churn: 4-pair star, Poisson 5000 flows/s per source, 2 KB each, table
// cap below peak concurrency.
constexpr int kChurnPairs = 4;
constexpr double kChurnRate = 5000.0;
constexpr std::int64_t kChurnBytes = 2000;
constexpr std::int64_t kChurnTableCap = 2048;
constexpr sim::Time kChurnArrivals = sim::milliseconds(600);
constexpr sim::Time kChurnHorizon = sim::milliseconds(1200);

// service: 4x2 leaf-spine, closed-loop users offering ~50k requests/s.
// The issue window spans five mean think times, so sessions go round the
// think -> request -> think loop several times. (100k users at 2 s think
// time would need a window of several seconds, too long to repeat episodes
// within a run.)
constexpr std::int64_t kServiceUsers = 1'000;
constexpr int kServiceUsersPerConnection = 10;
constexpr sim::Time kServiceThink = sim::milliseconds(20);
constexpr sim::Time kServiceDeadline = sim::milliseconds(40);
constexpr sim::Time kServiceIssue = sim::milliseconds(100);
constexpr sim::Time kServiceHorizon =
    kServiceIssue + kServiceDeadline + sim::milliseconds(200);

// bulk-sharded: 8-leaf/4-spine ring, every flow crosses a shard cut.
constexpr int kShardedLeaves = 8;
constexpr int kShardedSpines = 4;
constexpr int kShardedHostsPerLeaf = 6;
constexpr int kShardedShards = 8;
constexpr sim::Time kShardedHorizon = sim::milliseconds(20);

// RTT probe sampling. The sharded ring's horizon is short, so its probes
// start late enough to skip the slow-start transient.
constexpr sim::Time kRttProbeInterval = sim::microseconds(100);
constexpr sim::Time kChurnRttProbeInterval = sim::microseconds(500);
constexpr sim::Time kShardedRttProbeStart = sim::milliseconds(5);

// Reference slices: the loops run in slices of this many steps (about
// 0.4 ms) after each chunk until each has run for this share of the
// chunk.
constexpr std::int64_t kRefSliceSteps = 2000;
constexpr double kRefShare = 0.1;

// RNG stream for the benchmark's own draws (flow start offsets), kept
// apart from every stream the scenario splits from the same seed.
constexpr std::uint64_t kStartJitterStream = 0x9e4fbe4c;

// Bulk flows start within the first half millisecond, staggered by the
// seed so that no two runs of different seeds line their flows up alike.
sim::Time bulk_start(sim::Rng& jitter) {
  return sim::microseconds(10) + jitter.uniform_int(0, sim::microseconds(500));
}

struct Chunking {
  sim::Time horizon;
  sim::Time chunk;  // table occupancy is sampled at chunk boundaries
};

Chunking chunking(Kind kind) {
  switch (kind) {
    case Kind::kBulk:
      return {kBulkHorizon, sim::milliseconds(10)};
    case Kind::kChurn:
      return {kChurnHorizon, sim::milliseconds(50)};
    case Kind::kService:
      return {kServiceHorizon, sim::milliseconds(20)};
    case Kind::kBulkSharded:
      return {kShardedHorizon, sim::milliseconds(5)};
  }
  return {0, 1};
}

// One built workload. The probes are declared first so they outlive the
// scenario whose hosts point at them.
struct Build {
  std::vector<std::unique_ptr<StackProbe>> stack_probes;
  std::vector<std::unique_ptr<TimedVswitch>> timed;

  std::unique_ptr<exp::Dumbbell> bell;
  std::unique_ptr<exp::LeafSpine> fabric;
  std::unique_ptr<exp::Scenario> own;
  exp::Scenario* scn = nullptr;
  std::vector<host::Host*> hosts;
  std::vector<vswitch::AcdcVswitch*> vswitches;
  std::vector<host::EchoApp*> rtt_probes;
  app::ServiceTier* tier = nullptr;
  bool traced = false;

  // Installs the host's vSwitch: Scenario::attach_acdc untraced; the probe
  // pair (stack side first, since filters see egress in insertion order)
  // when traced.
  void attach_acdc(host::Host* h, vswitch::AcdcConfig cfg) {
    if (!traced) {
      vswitches.push_back(scn->attach_acdc(h, cfg));
      return;
    }
    if (cfg.mtu_bytes == 9000) cfg.mtu_bytes = scn->config().mtu_bytes;
    stack_probes.push_back(std::make_unique<StackProbe>());
    h->add_filter(stack_probes.back().get());
    timed.push_back(std::make_unique<TimedVswitch>(scn->sim_for(h), cfg));
    h->add_filter(timed.back().get());
    vswitches.push_back(timed.back().get());
  }
};

void build_bulk(Build& b, std::uint64_t seed, Clock::time_point t0,
                Outcome& out) {
  exp::DumbbellConfig dc;
  dc.scenario.seed = seed;
  dc.scenario.mtu_bytes = 1500;
  dc.pairs = kBulkPairs;
  b.bell = std::make_unique<exp::Dumbbell>(dc);
  b.scn = &b.bell->scenario();
  for (int i = 0; i < kBulkPairs; ++i) {
    b.hosts.push_back(b.bell->sender(i));
    b.hosts.push_back(b.bell->receiver(i));
  }
  out.setup_topology_s = seconds_since(t0);

  for (host::Host* h : b.hosts) b.attach_acdc(h, vswitch::AcdcConfig{});
  sim::Rng jitter(sim::mix_seed(seed, kStartJitterStream));
  const tcp::TcpConfig tcp_cfg = b.scn->tcp_config(tcp::CcId::kCubic);
  for (int i = 0; i < kBulkPairs; ++i) {
    for (int f = 0; f < kBulkFlowsPerHost; ++f) {
      b.scn->add_bulk_flow(b.bell->sender(i), b.bell->receiver(i), tcp_cfg,
                           bulk_start(jitter));
    }
    b.rtt_probes.push_back(b.scn->add_rtt_probe(
        b.bell->sender(i), b.bell->receiver(i), tcp_cfg,
        sim::milliseconds(1) + jitter.uniform_int(0, kRttProbeInterval),
        kRttProbeInterval));
  }
}

void build_churn(Build& b, std::uint64_t seed, Clock::time_point t0,
                 Outcome& out) {
  exp::ScenarioConfig sc;
  sc.seed = seed;
  b.own = std::make_unique<exp::Scenario>(sc);
  b.scn = b.own.get();
  net::Switch* hub = b.scn->add_switch("hub");
  std::vector<host::Host*> senders;
  std::vector<host::Host*> receivers;
  for (int i = 0; i < kChurnPairs; ++i) {
    host::Host* s = b.scn->add_host("cs" + std::to_string(i));
    host::Host* r = b.scn->add_host("cr" + std::to_string(i));
    b.scn->attach(s, hub);
    b.scn->attach(r, hub);
    senders.push_back(s);
    receivers.push_back(r);
    b.hosts.push_back(s);
    b.hosts.push_back(r);
  }
  out.setup_topology_s = seconds_since(t0);

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = kChurnTableCap;
  acfg.infer_timeouts = false;  // the lifecycle path, not the scanner
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);
  for (host::Host* h : b.hosts) b.attach_acdc(h, acfg);

  sim::Rng jitter(sim::mix_seed(seed, kStartJitterStream));
  workload::ChurnConfig ccfg;
  ccfg.arrival = workload::ArrivalKind::kPoisson;
  ccfg.flows_per_sec = kChurnRate;
  ccfg.message_bytes = kChurnBytes;
  ccfg.linger = sim::milliseconds(200);  // keeps the table under pressure
  ccfg.stop_after = kChurnArrivals;
  for (int i = 0; i < kChurnPairs; ++i) {
    b.scn->add_churn_workload(senders[static_cast<std::size_t>(i)],
                              receivers[static_cast<std::size_t>(i)],
                              b.scn->tcp_config(tcp::CcId::kCubic), ccfg);
    b.rtt_probes.push_back(b.scn->add_rtt_probe(
        senders[static_cast<std::size_t>(i)],
        receivers[static_cast<std::size_t>(i)],
        b.scn->tcp_config(tcp::CcId::kCubic),
        sim::milliseconds(1) + jitter.uniform_int(0, kChurnRttProbeInterval),
        kChurnRttProbeInterval));
  }
}

void build_service(Build& b, std::uint64_t seed, Clock::time_point t0,
                   Outcome& out) {
  exp::LeafSpineConfig lcfg;
  lcfg.scenario.seed = seed;
  lcfg.scenario.mtu_bytes = 1500;
  lcfg.leaves = 4;
  lcfg.spines = 2;
  lcfg.hosts_per_leaf = 4;
  b.fabric = std::make_unique<exp::LeafSpine>(lcfg);
  b.scn = &b.fabric->scenario();
  app::ServiceRoles roles;
  for (int h = 0; h < 4; ++h) roles.clients.push_back(b.fabric->host(0, h));
  roles.frontends = {b.fabric->host(1, 0), b.fabric->host(2, 0)};
  for (int l = 1; l <= 2; ++l) {
    for (int h = 1; h < 4; ++h) roles.workers.push_back(b.fabric->host(l, h));
  }
  roles.storage = {b.fabric->host(3, 0), b.fabric->host(3, 1)};
  for (int l = 0; l < lcfg.leaves; ++l) {
    for (int h = 0; h < lcfg.hosts_per_leaf; ++h) {
      b.hosts.push_back(b.fabric->host(l, h));
    }
  }
  out.setup_topology_s = seconds_since(t0);

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = 8192;
  acfg.infer_timeouts = false;  // the service, not the scanner
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);
  for (host::Host* h : b.hosts) b.attach_acdc(h, acfg);

  app::ServiceConfig svc;
  svc.users.users = kServiceUsers;
  svc.users.users_per_connection = kServiceUsersPerConnection;
  svc.users.think_time_mean = kServiceThink;
  svc.users.deadline = kServiceDeadline;
  svc.users.slo = sim::milliseconds(10);
  svc.users.curve = app::LoadCurve::kSteady;
  svc.users.stop_after = kServiceIssue;
  svc.users.keep_latency_samples = true;
  svc.fanout.fanout = 3;
  b.tier = b.scn->add_service_workload(roles, svc,
                                       b.scn->tcp_config(tcp::CcId::kCubic));
}

void build_bulk_sharded(Build& b, std::uint64_t seed, Clock::time_point t0,
                        Outcome& out) {
  exp::LeafSpineConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.mtu_bytes = 1500;
  cfg.leaves = kShardedLeaves;
  cfg.spines = kShardedSpines;
  cfg.hosts_per_leaf = kShardedHostsPerLeaf;
  b.fabric = std::make_unique<exp::LeafSpine>(cfg);
  b.scn = &b.fabric->scenario();
  const exp::PartitionReport report =
      b.scn->enable_parallel(kShardedShards, sharded_threads());
  out.parallel = report.parallel;
  out.threads = report.threads;
  for (int l = 0; l < kShardedLeaves; ++l) {
    for (int i = 0; i < kShardedHostsPerLeaf; ++i) {
      b.hosts.push_back(b.fabric->host(l, i));
    }
  }
  out.setup_topology_s = seconds_since(t0);

  for (host::Host* h : b.hosts) b.attach_acdc(h, vswitch::AcdcConfig{});
  sim::Rng jitter(sim::mix_seed(seed, kStartJitterStream));
  const tcp::TcpConfig tcp_cfg = b.scn->tcp_config(tcp::CcId::kCubic);
  // One bulk flow and one RTT probe from every host to its peer under the
  // next leaf; the probes span every path, so the tail does not hang on
  // which few flows ECMP happens to collide.
  for (int l = 0; l < kShardedLeaves; ++l) {
    for (int i = 0; i < kShardedHostsPerLeaf; ++i) {
      host::Host* src = b.fabric->host(l, i);
      host::Host* dst = b.fabric->host((l + 1) % kShardedLeaves, i);
      b.scn->add_bulk_flow(src, dst, tcp_cfg, bulk_start(jitter));
      b.rtt_probes.push_back(b.scn->add_rtt_probe(
          src, dst, tcp_cfg,
          kShardedRttProbeStart + jitter.uniform_int(0, kRttProbeInterval),
          kRttProbeInterval));
    }
  }
}

void sample_table_peak(const Build& b, Outcome& out) {
  for (vswitch::AcdcVswitch* vs : b.vswitches) {
    out.table_peak = std::max(out.table_peak,
                              static_cast<std::int64_t>(vs->flows().size()));
  }
}

// Drives the serial engine exactly as Simulator::run_until does, with one
// clock read per step: the step's time minus the spans opened inside it is
// the event layer's self time.
void run_traced_until(sim::Simulator& sim, sim::Time deadline) {
  Ledger& ledger = thread_ledger();
  std::int64_t prev = now_ns();
  while (true) {
    const sim::Time next = sim.next_event_time();
    if (next == sim::kNoTime || next > deadline) break;
    ledger.child_ns[0] = 0;
    sim.step();
    const std::int64_t t = now_ns();
    ledger.self_ns[kSimLayer] += (t - prev) - ledger.child_ns[0];
    prev = t;
  }
  sim.advance_to(deadline);
}

void add_stats(vswitch::AcdcStats& into, const vswitch::AcdcStats& s) {
  into.egress_data_packets += s.egress_data_packets;
  into.ingress_data_packets += s.ingress_data_packets;
  into.acks_processed += s.acks_processed;
  into.packs_attached += s.packs_attached;
  into.facks_sent += s.facks_sent;
  into.facks_consumed += s.facks_consumed;
  into.windows_lowered += s.windows_lowered;
  into.policed_drops += s.policed_drops;
  into.inferred_timeouts += s.inferred_timeouts;
  into.injected_dupacks += s.injected_dupacks;
  into.injected_window_updates += s.injected_window_updates;
  into.rtt_samples += s.rtt_samples;
  into.feedback_resyncs += s.feedback_resyncs;
  into.flow_cache_hits += s.flow_cache_hits;
  into.flow_cache_misses += s.flow_cache_misses;
}

void add_stats(vswitch::FlowTable::Stats& into,
               const vswitch::FlowTable::Stats& s) {
  into.lookups += s.lookups;
  into.hits += s.hits;
  into.inserts += s.inserts;
  into.removals += s.removals;
  into.gc_removed += s.gc_removed;
  into.evictions += s.evictions;
  into.admission_rejects += s.admission_rejects;
  into.rehashes += s.rehashes;
}

double p99(const stats::Sampler& s) {
  return s.empty() ? 0.0 : s.percentile(99.0);
}

void collect(Kind kind, const Build& b, Outcome& out) {
  exp::Scenario& scn = *b.scn;
  out.events = static_cast<std::int64_t>(scn.executed_events());
  for (host::Host* h : b.hosts) {
    out.delivered_packets += h->nic().received_packets();
    out.conns_opened += h->connections_opened();
    for (const auto& conn : h->connections()) {
      out.tcp_segments += conn->stats().segments_sent;
      out.tcp_retx += conn->stats().retransmissions;
      out.tcp_rtos += conn->stats().rtos;
    }
  }
  for (vswitch::AcdcVswitch* vs : b.vswitches) {
    add_stats(out.acdc, vs->stats());
    add_stats(out.table, vs->flows().stats());
  }
  out.fabric = scn.fabric_stats();
  if (scn.executor() != nullptr) out.par = scn.executor()->stats();

  stats::Sampler rtt_ms;
  for (const host::EchoApp* probe : b.rtt_probes) {
    for (double v : probe->rtt_ms().values()) rtt_ms.add(v);
  }

  switch (kind) {
    case Kind::kBulk:
    case Kind::kBulkSharded: {
      out.ops = out.delivered_packets;
      for (const auto& app : scn.bulk_flows()) {
        out.goodput_bytes += app->sender_connection()->acked_payload_bytes();
      }
      out.p99_ms = p99(rtt_ms);
      out.attempted = out.tcp_segments;
      out.failed = out.tcp_retx;
      if (out.goodput_bytes <= 0) {
        out.check_failures.push_back("bulk: no payload acked");
      }
      if (out.acdc.windows_lowered <= 0) {
        out.check_failures.push_back("bulk: vSwitch never lowered a window");
      }
      if (kind == Kind::kBulkSharded && !out.parallel) {
        out.check_failures.push_back("bulk-sharded: fell back to serial");
      }
      break;
    }
    case Kind::kChurn: {
      out.churn = scn.churn_stats();
      const workload::ChurnStats& c = out.churn;
      out.ops = c.completed;
      out.goodput_bytes = c.acked_bytes;
      out.attempted = c.started + c.skipped;
      const std::int64_t undrained = c.started - c.completed - c.aborted;
      out.failed = c.aborted + c.skipped + undrained;
      out.p99_ms = p99(rtt_ms);
      if (c.started != c.completed + c.aborted) {
        out.check_failures.push_back(
            "churn: started != completed + aborted after the drain");
      }
      if (out.table_peak > kChurnTableCap) {
        out.check_failures.push_back("churn: flow table above its cap");
      }
      break;
    }
    case Kind::kService: {
      out.service = b.tier->stats();
      const app::UserGroupStats& u = out.service.user;
      out.ops = u.completed;
      out.goodput_bytes = u.response_bytes;
      stats::Sampler latency_ms;
      for (std::int64_t ns : u.samples) {
        latency_ms.add(static_cast<double>(ns) / 1e6);
      }
      out.p99_ms = p99(latency_ms);
      out.attempted = u.issued;
      out.failed = u.deadline_misses + u.degraded;
      if (u.issued != u.completed + u.deadline_misses) {
        out.check_failures.push_back(
            "service: issued != completed + deadline misses");
      }
      if (!b.tier->drained()) {
        out.check_failures.push_back("service: tier did not drain");
      }
      break;
    }
  }
  if (out.ops <= 0) out.check_failures.push_back("no operation completed");
}

}  // namespace

bool parse_kind(const std::string& name, Kind* kind) {
  for (Kind k : {Kind::kBulk, Kind::kChurn, Kind::kService,
                 Kind::kBulkSharded}) {
    if (name == kind_name(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBulk:
      return "bulk";
    case Kind::kChurn:
      return "churn";
    case Kind::kService:
      return "service";
    case Kind::kBulkSharded:
      return "bulk-sharded";
  }
  return "?";
}

int sharded_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 2u));
}

void pin_sharded_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int left = sharded_threads();
  if (CPU_COUNT(&allowed) <= left) return;
  cpu_set_t pick;
  CPU_ZERO(&pick);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && left > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pick);
      --left;
    }
  }
  sched_setaffinity(0, sizeof pick, &pick);
}

int reference_threads(Kind kind) {
  return kind == Kind::kBulkSharded ? sharded_threads() : 1;
}

std::uint64_t Outcome::digest() const {
  // FNV-1a over the simulated outcome: counts only, never host time.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  auto mix_double = [&mix](double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  for (std::int64_t v :
       {ops, delivered_packets, events, goodput_bytes, attempted, failed,
        acdc.egress_data_packets, acdc.ingress_data_packets,
        acdc.acks_processed, acdc.packs_attached, acdc.facks_sent,
        acdc.windows_lowered, acdc.policed_drops, acdc.inferred_timeouts,
        acdc.rtt_samples, table.inserts, table.removals, table.gc_removed,
        table.evictions, table.admission_rejects, table_peak,
        fabric.enqueued_packets, fabric.dropped_packets,
        fabric.marked_packets, fabric.peak_bytes, tcp_segments, tcp_retx,
        tcp_rtos, conns_opened, churn.started, churn.completed,
        churn.aborted, churn.skipped, churn.acked_bytes,
        churn.peak_concurrent, service.user.issued, service.user.completed,
        service.user.deadline_misses, service.user.degraded,
        service.user.response_bytes, service.fanout.leaf_calls,
        static_cast<std::int64_t>(par.messages)}) {
    mix(v);
  }
  mix_double(p99_ms);
  return h;
}

Outcome run_episode(Kind kind, std::uint64_t seed, bool traced,
                    std::vector<ReferenceLoop>& refs) {
  Outcome out;
  out.traced = traced;
  net::PacketPool& main_pool = net::PacketPool::instance();
  main_pool.trim();  // every episode starts from an empty freelist

  Build b;
  b.traced = traced;
  const Clock::time_point t0 = Clock::now();
  switch (kind) {
    case Kind::kBulk:
      build_bulk(b, seed, t0, out);
      break;
    case Kind::kChurn:
      build_churn(b, seed, t0, out);
      break;
    case Kind::kService:
      build_service(b, seed, t0, out);
      break;
    case Kind::kBulkSharded:
      build_bulk_sharded(b, seed, t0, out);
      break;
  }
  out.setup_s = seconds_since(t0);
  out.setup_workload_s = out.setup_s - out.setup_topology_s;

  const Chunking ch = chunking(kind);
  const bool serial_traced = traced && b.scn->executor() == nullptr;
  // Spans recorded during set-up (connections opened at construction send
  // their SYNs right away) belong to set-up: start a fresh generation.
  if (traced) {
    reset_ledgers();
    thread_ledger();
  }
  const std::int64_t main_fresh0 = main_pool.stats().fresh_allocs;
  for (sim::Time t = ch.chunk; t <= ch.horizon; t += ch.chunk) {
    const Clock::time_point c0 = Clock::now();
    if (serial_traced) {
      run_traced_until(b.scn->simulator(), t);
    } else {
      b.scn->run_until(t);
    }
    sample_table_peak(b, out);
    const double chunk_s = seconds_since(c0);
    out.run_s += chunk_s;
    run_for(refs, kRefShare * chunk_s, kRefSliceSteps, &out.ref,
            &out.ref_main);
  }
  out.sim_seconds = sim::to_seconds(ch.horizon);

  collect(kind, b, out);
  if (traced) {
    out.ledger = sum_ledgers();
    for (net::PacketPool* pool : ledger_pools()) {
      // The main thread's pool outlives episodes; worker pools are new.
      out.pool_fresh_allocs += pool == &main_pool
                                   ? pool->stats().fresh_allocs - main_fresh0
                                   : pool->stats().fresh_allocs;
      out.pool_live_peak += pool->live_high_water();
    }
  }
  return out;
}

}  // namespace acdc::perfbench
