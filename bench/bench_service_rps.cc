// Closed-loop service-tier macrobench — how fast the simulator sustains the
// full 3-tier request pipeline (user sessions -> frontends -> partition-
// aggregate across workers -> storage) end to end, with AC/DC vSwitches on
// every host so the flow table and virtual-CC enforcement sit on the
// measured path.
//
// Where bench_churn_pps stresses open-loop flow lifecycle turnover, this
// drives the closed loop: every simulated user waits for its response (or a
// deadline miss) before thinking and issuing again, so the headline number
// — wall-clock requests/sec — measures the whole stack: RPC framing over
// real TCP, fan-out coordinators, per-tier servers, and SLO accounting.
// Request p99 and the miss/violation counters ride along so a latency
// regression shows up even when raw throughput looks fine.
//
// Arms: --users 10000 (default) is the CI-speed arm; --sweep runs the
// 10k/100k/1M-user scale ladder at constant ~50k offered requests/sec
// (think time grows with the population, so more users means more live
// sessions and flow-table/conduit state, not more bandwidth — the fabric
// stays inside its SLO and the ladder isolates how the simulator's
// throughput and the request tail hold up as session concurrency scales
// 100x). Arbitrary arms via --users/--think-ms; pair the big ones with
// --shards/--threads to use the parallel engine.
//
// Output: a flat JSON object on stdout (or --json <path>); bench/run_perf.sh
// merges it into BENCH_datapath.json next to the datapath and churn numbers.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "acdc/vswitch.h"
#include "app/service.h"
#include "exp/leaf_spine.h"
#include "exp/scenario.h"

namespace acdc {
namespace {

using Clock = std::chrono::steady_clock;

struct ServiceBenchConfig {
  std::int64_t users = 10'000;
  int users_per_conn = 50;
  std::int64_t think_ms = 200;  // closed-loop think time (mean)
  std::int64_t deadline_ms = 40;
  std::int64_t slo_ms = 10;
  std::int64_t sim_ms = 2000;  // issue window; deadline + drain after
  std::int64_t table_cap = 8192;  // per vSwitch
  int shards = 0;  // > 1: parallel engine
  int threads = 0;
};

struct ServiceBenchResult {
  double wall_secs = 0;
  std::uint64_t events = 0;
  app::ServiceStats stats;
  bool drained = false;
  std::size_t table_peak = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

// Exact percentile when the sample vector was kept (small arms), histogram
// bucket upper bound otherwise (scale arms keep memory fixed).
double latency_ms(const app::UserGroupStats& u, double q) {
  if (!u.samples.empty()) {
    std::vector<std::int64_t> s = u.samples;
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(s.size() - 1));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank),
                     s.end());
    return static_cast<double>(s[rank]) / 1e6;
  }
  return static_cast<double>(u.latency.quantile(q)) / 1e6;
}

ServiceBenchResult run_service(const ServiceBenchConfig& cfg) {
  // Same 4-leaf/2-spine shape as the service soak: every tier hop crosses
  // leaves, so sharded arms always exercise the cross-shard mailbox path.
  exp::LeafSpineConfig lcfg;
  lcfg.scenario.seed = 17;
  lcfg.scenario.mtu_bytes = 1500;
  lcfg.leaves = 4;
  lcfg.spines = 2;
  lcfg.hosts_per_leaf = 4;
  exp::LeafSpine fabric(lcfg);
  exp::Scenario& scn = fabric.scenario();

  app::ServiceRoles roles;
  for (int h = 0; h < 4; ++h) roles.clients.push_back(fabric.host(0, h));
  roles.frontends = {fabric.host(1, 0), fabric.host(2, 0)};
  for (int l = 1; l <= 2; ++l) {
    for (int h = 1; h < 4; ++h) roles.workers.push_back(fabric.host(l, h));
  }
  roles.storage = {fabric.host(3, 0), fabric.host(3, 1)};

  if (cfg.shards > 1) {
    scn.enable_parallel(cfg.shards,
                        cfg.threads > 0 ? cfg.threads : cfg.shards);
  }

  vswitch::AcdcConfig acfg;
  acfg.flow_table_max_entries = cfg.table_cap;
  acfg.infer_timeouts = false;  // measure the service, not the scanner
  acfg.gc_interval = sim::milliseconds(250);
  acfg.fin_linger = sim::milliseconds(100);

  std::vector<vswitch::AcdcVswitch*> vswitches;
  auto attach_all = [&](const std::vector<host::Host*>& hosts) {
    for (host::Host* h : hosts) vswitches.push_back(scn.attach_acdc(h, acfg));
  };
  attach_all(roles.clients);
  attach_all(roles.frontends);
  attach_all(roles.workers);
  attach_all(roles.storage);

  app::ServiceConfig svc;
  svc.users.users = cfg.users;
  svc.users.users_per_connection = cfg.users_per_conn;
  svc.users.think_time_mean = sim::milliseconds(cfg.think_ms);
  svc.users.deadline = sim::milliseconds(cfg.deadline_ms);
  svc.users.slo = sim::milliseconds(cfg.slo_ms);
  svc.users.curve = app::LoadCurve::kSteady;
  svc.users.stop_after = sim::milliseconds(cfg.sim_ms);
  // Exact percentiles on the CI arm; fixed-memory histogram at scale.
  svc.users.keep_latency_samples = cfg.users <= 10'000;
  svc.fanout.fanout = 3;
  app::ServiceTier* tier = scn.add_service_workload(
      roles, svc, scn.tcp_config(tcp::CcId::kCubic));

  ServiceBenchResult out;
  const sim::Time horizon = sim::milliseconds(cfg.sim_ms) +
                            sim::milliseconds(cfg.deadline_ms) +
                            sim::milliseconds(500);  // drain tail
  const sim::Time step = sim::milliseconds(100);
  const auto t0 = Clock::now();
  for (sim::Time t = step; t <= horizon; t += step) {
    scn.run_until(t);
    for (vswitch::AcdcVswitch* vs : vswitches) {
      out.table_peak = std::max(out.table_peak, vs->flows().size());
    }
  }
  const auto t1 = Clock::now();

  out.wall_secs = std::chrono::duration<double>(t1 - t0).count();
  out.events = scn.executed_events();
  out.stats = tier->stats();
  out.drained = tier->drained();
  out.p50_ms = latency_ms(out.stats.user, 0.5);
  out.p99_ms = latency_ms(out.stats.user, 0.99);
  return out;
}

// One arm's keys, with `suffix` appended to every metric name ("" for the
// single-arm run and for the compatibility mirror of the sweep's 10k arm).
void emit_arm(std::FILE* out, const char* suffix,
              const ServiceBenchConfig& cfg, const ServiceBenchResult& r,
              bool last) {
  const app::UserGroupStats& u = r.stats.user;
  const double rps_wall = static_cast<double>(u.completed) / r.wall_secs;
  const double events_per_sec = static_cast<double>(r.events) / r.wall_secs;
  const double rps_sim =
      r.stats.requests_per_sec(sim::milliseconds(cfg.sim_ms));
  std::fprintf(out,
               "  \"service_rps_wall%s\": %.0f,\n"
               "  \"service_rps_sim%s\": %.0f,\n"
               "  \"service_events_per_sec%s\": %.0f,\n"
               "  \"service_users%s\": %lld,\n"
               "  \"service_requests_issued%s\": %lld,\n"
               "  \"service_requests_completed%s\": %lld,\n"
               "  \"service_deadline_misses%s\": %lld,\n"
               "  \"service_slo_violations%s\": %lld,\n"
               "  \"service_p50_ms%s\": %.3f,\n"
               "  \"service_p99_ms%s\": %.3f,\n"
               "  \"service_table_peak%s\": %zu,\n"
               "  \"service_drained%s\": %d,\n"
               "  \"service_sim_ms%s\": %lld,\n"
               "  \"service_shards%s\": %d%s\n",
               suffix, rps_wall, suffix, rps_sim, suffix, events_per_sec,
               suffix, static_cast<long long>(cfg.users), suffix,
               static_cast<long long>(u.issued), suffix,
               static_cast<long long>(u.completed), suffix,
               static_cast<long long>(u.deadline_misses), suffix,
               static_cast<long long>(u.slo_violations), suffix, r.p50_ms,
               suffix, r.p99_ms, suffix, r.table_peak, suffix,
               r.drained ? 1 : 0, suffix, static_cast<long long>(cfg.sim_ms),
               suffix, cfg.shards, last ? "" : ",");
}

// Gates that hold on any arm: the tier must run dry and the request
// ledger must close. Returns false (and complains) otherwise.
bool gate_arm(const char* label, const ServiceBenchConfig& cfg,
              const ServiceBenchResult& r) {
  const app::UserGroupStats& u = r.stats.user;
  std::fprintf(stderr,
               "service%s: %.0f req/s wall (%lld users, %lld/%lld completed, "
               "%.2f Mev/s, p99 %.2f ms, miss %lld, slo %lld, drained %d)\n",
               label, static_cast<double>(u.completed) / r.wall_secs,
               static_cast<long long>(cfg.users),
               static_cast<long long>(u.completed),
               static_cast<long long>(u.issued),
               static_cast<double>(r.events) / r.wall_secs / 1e6, r.p99_ms,
               static_cast<long long>(u.deadline_misses),
               static_cast<long long>(u.slo_violations), r.drained ? 1 : 0);
  bool ok = true;
  if (!r.drained) {
    std::fprintf(stderr, "ERROR:%s service tier failed to drain by the horizon\n",
                 label);
    ok = false;
  }
  if (u.issued != u.completed + u.deadline_misses) {
    std::fprintf(stderr, "ERROR:%s request accounting does not close\n",
                 label);
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace acdc

int main(int argc, char** argv) {
  acdc::ServiceBenchConfig cfg;
  std::string json_path;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--users") == 0) {
      cfg.users = std::atoll(next("--users"));
    } else if (std::strcmp(argv[i], "--think-ms") == 0) {
      cfg.think_ms = std::atoll(next("--think-ms"));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      cfg.deadline_ms = std::atoll(next("--deadline-ms"));
    } else if (std::strcmp(argv[i], "--slo-ms") == 0) {
      cfg.slo_ms = std::atoll(next("--slo-ms"));
    } else if (std::strcmp(argv[i], "--sim-ms") == 0) {
      cfg.sim_ms = std::atoll(next("--sim-ms"));
    } else if (std::strcmp(argv[i], "--cap") == 0) {
      cfg.table_cap = std::atoll(next("--cap"));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      cfg.shards = std::atoi(next("--shards"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      cfg.threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.users = 2000;
      cfg.sim_ms = 600;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next("--json");
    } else {
      std::fprintf(stderr,
                   "usage: %s [--users N] [--think-ms M] [--deadline-ms M] "
                   "[--slo-ms M] [--sim-ms M] [--cap C] [--shards S] "
                   "[--threads T] [--quick] [--sweep] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // The sweep ladder holds offered load at ~50k req/s while sessions scale
  // 100x: think time grows with the population, so the fabric never
  // oversubscribes and the arms isolate concurrency cost.
  struct Arm {
    const char* suffix;
    std::int64_t users;
    std::int64_t think_ms;
  };
  std::vector<Arm> arms;
  if (sweep) {
    arms = {{"_10k", 10'000, 200},
            {"_100k", 100'000, 2'000},
            {"_1m", 1'000'000, 20'000}};
  } else {
    arms = {{"", cfg.users, cfg.think_ms}};
  }

  std::vector<acdc::ServiceBenchConfig> arm_cfgs;
  std::vector<acdc::ServiceBenchResult> arm_results;
  bool ok = true;
  for (const Arm& arm : arms) {
    acdc::ServiceBenchConfig c = cfg;
    c.users = arm.users;
    c.think_ms = arm.think_ms;
    arm_cfgs.push_back(c);
    arm_results.push_back(acdc::run_service(c));
    ok = acdc::gate_arm(arm.suffix, c, arm_results.back()) && ok;
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
               "  \"bench\": \"service_rps\",\n"
               "  \"service_sweep\": %d,\n",
               sweep ? 1 : 0);
  // One key set per arm: unsuffixed for a single run, _10k/_100k/_1m for
  // the sweep (run_perf.sh picks the schema by service_sweep).
  for (std::size_t a = 0; a < arms.size(); ++a) {
    acdc::emit_arm(out, arms[a].suffix, arm_cfgs[a], arm_results[a],
                   a + 1 == arms.size());
  }
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}
