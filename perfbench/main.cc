// acdc_perfbench: runs one benchmark workload for a wall-clock budget and
// prints one JSON line with every metric, its quartiles and sample count,
// the self-check results and the simulated-outcome digest. perfbench/run.py
// builds this binary and turns that line into the benchmark's result.
//
//   acdc_perfbench --workload bulk --seed 1 --seconds 10 --trace 0
//
// The run repeats whole episodes (set-up + a fixed simulated horizon) until
// the budget is spent. --trace 0 runs untraced episodes only and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced episodes and
// reports the per-layer metrics: self times from the traced ones, tracing
// overhead as traced versus untraced run time. Every episode runs the
// reference loop between its simulated chunks; the end-to-end host times
// are scaled by how much slower than nominal that loop ran (reference.h).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace acdc::perfbench {
namespace {

struct Args {
  Kind kind = Kind::kBulk;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// A metric's reported value plus the spread of the episodes it came from.
struct Summary {
  double value = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  std::size_t n = 0;
};

// Reports the median. Quartiles by linear interpolation between order
// statistics (the "inclusive" method).
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  s.value = s.median;
  return s;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class MetricWriter {
 public:
  void add(const char* name, const char* unit, const Summary& s) {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", "
                  "\"q1\": %.9g, \"median\": %.9g, \"q3\": %.9g, "
                  "\"n\": %zu}",
                  out_.empty() ? "" : ", ", name, s.value, unit, s.q1,
                  s.median, s.q3, s.n);
    out_ += buf;
  }
  void add(const char* name, const char* unit, double value) {
    add(name, unit, Summary{value, value, value, value, 1});
  }
  const std::string& json() const { return out_; }

 private:
  std::string out_;
};

template <typename F>
std::vector<double> each(const std::vector<Outcome>& eps, F f) {
  std::vector<double> v;
  v.reserve(eps.size());
  for (const Outcome& o : eps) v.push_back(f(o));
  return v;
}

// A size field of /proc/self/status in MB: VmHWM is the process's peak
// resident set so far, VmRSS the current one. Unlike getrusage's ru_maxrss,
// VmHWM belongs to this program image alone: ru_maxrss carries the
// high-water mark of whatever process forked us across exec.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  const std::size_t len = std::strlen(field);
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':' &&
        std::sscanf(line + len + 1, "%ld", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void end_to_end(const std::vector<Outcome>& eps, double rss_mb, bool correct,
                MetricWriter& m, MetricWriter& raw) {
  // The unscaled host times and the slowdown that scaled them, for the
  // record beside the metrics.
  raw.add("pkts_per_s", "1/s", summarize(each(eps, [](const Outcome& o) {
            return static_cast<double>(o.delivered_packets) / o.run_s;
          })));
  raw.add("ops_per_s", "1/s", summarize(each(eps, [](const Outcome& o) {
            return static_cast<double>(o.ops) / o.run_s;
          })));
  raw.add("setup_s", "s", summarize(each(eps, [](const Outcome& o) {
            return o.setup_s;
          })));
  raw.add("slowdown", "ratio", summarize(each(eps, [](const Outcome& o) {
            return o.ref.slowdown();
          })));

  // Host times are scaled by the episode's reference slowdown (see
  // reference.h) and reported as the median over episodes. Set-up runs on
  // the main thread alone, so it is scaled by the main thread's loop.
  m.add("pkts_per_s", "1/s", summarize(each(eps, [](const Outcome& o) {
          return static_cast<double>(o.delivered_packets) / o.run_s *
                 o.ref.slowdown();
        })));
  m.add("ops_per_s", "1/s", summarize(each(eps, [](const Outcome& o) {
          return static_cast<double>(o.ops) / o.run_s *
                 o.ref.slowdown();
        })));
  m.add("setup_s", "s", summarize(each(eps, [](const Outcome& o) {
          return o.setup_s / o.ref_main.slowdown();
        })));
  m.add("peak_rss_mb", "MB", rss_mb);
  // Simulated outcomes repeat exactly across episodes; report the first.
  const Outcome& o = eps.front();
  m.add("sim_goodput_gbps", "Gb/s",
        static_cast<double>(o.goodput_bytes) * 8.0 / o.sim_seconds / 1e9);
  m.add("sim_p99_ms", "ms", o.p99_ms);
  m.add("ok_share", "share",
        correct ? 1.0 - ratio(static_cast<double>(o.failed),
                              static_cast<double>(o.attempted))
                : 0.0);
}

void per_layer(const std::vector<Outcome>& plain,
               const std::vector<Outcome>& traced, MetricWriter& m) {
  // Counts come from the first traced episode (they repeat exactly); host
  // times are medians over the traced episodes.
  const Outcome& t = traced.front();
  const Ledger& L = t.ledger;
  const double ops = static_cast<double>(t.ops);
  const double flows = static_cast<double>(t.conns_opened) / 2.0;
  const double threads = t.parallel ? static_cast<double>(t.threads) : 1.0;
  // Thread time the layers share: wall time on the serial engine, wall
  // time x worker threads on the sharded one.
  auto busy_ns = [threads](const Outcome& o) {
    return o.run_s * 1e9 * threads;
  };
  auto share = [&](std::initializer_list<Layer> layers) {
    return summarize(each(traced, [&](const Outcome& o) {
      double ns = 0;
      for (Layer l : layers) ns += static_cast<double>(o.ledger.self_ns[l]);
      return ratio(ns, busy_ns(o));
    }));
  };
  auto ns_per = [&](std::initializer_list<Layer> layers, bool stack_egress) {
    return summarize(each(traced, [&](const Outcome& o) {
      double ns = 0, pkts = 0;
      for (Layer l : layers) {
        ns += static_cast<double>(o.ledger.self_ns[l]);
        pkts += static_cast<double>(o.ledger.packets[l]);
      }
      if (stack_egress) {
        pkts += static_cast<double>(o.ledger.stack_egress_packets);
      }
      return ratio(ns, pkts);
    }));
  };
  const double acdc_pkts = static_cast<double>(L.packets[kAcdcEgress] +
                                               L.packets[kAcdcIngress]);

  // ---- acdc ----
  m.add("acdc.ns_per_pkt", "ns", ns_per({kAcdcEgress, kAcdcIngress}, false));
  m.add("acdc.egress_incl_nic_tx_ns_per_pkt", "ns",
        ns_per({kAcdcEgress}, false));
  m.add("acdc.ingress_ns_per_pkt", "ns", ns_per({kAcdcIngress}, false));
  m.add("acdc.self_share", "share", share({kAcdcEgress, kAcdcIngress}));
  m.add("acdc.pkts_per_op", "pkt/op", ratio(acdc_pkts, ops));
  m.add("acdc.flow_cache_hit_share", "share",
        ratio(static_cast<double>(t.acdc.flow_cache_hits),
              static_cast<double>(t.acdc.flow_cache_hits +
                                  t.acdc.flow_cache_misses)));
  m.add("acdc.table_hit_share", "share",
        ratio(static_cast<double>(t.table.hits),
              static_cast<double>(t.table.lookups)));
  m.add("acdc.windows_lowered_per_ack", "1/ack",
        ratio(static_cast<double>(t.acdc.windows_lowered),
              static_cast<double>(t.acdc.acks_processed)));
  m.add("acdc.evictions_per_flow", "1/flow",
        ratio(static_cast<double>(t.table.evictions), flows));
  m.add("acdc.gc_removed_per_flow", "1/flow",
        ratio(static_cast<double>(t.table.gc_removed), flows));
  m.add("acdc.admission_rejects", "count",
        static_cast<double>(t.table.admission_rejects));
  m.add("acdc.table_peak", "count", static_cast<double>(t.table_peak));

  // ---- sim ----
  m.add("sim.events_per_op", "1/op", ratio(static_cast<double>(t.events), ops));
  m.add("sim.self_ns_per_event", "ns",
        summarize(each(traced, [](const Outcome& o) {
          return ratio(static_cast<double>(o.ledger.self_ns[kSimLayer]),
                       static_cast<double>(o.events));
        })));
  m.add("sim.self_share", "share", share({kSimLayer}));

  // ---- tcp / host ----
  m.add("host.stack_ns_per_pkt", "ns", ns_per({kHostStack}, true));
  m.add("host.self_share", "share", share({kHostStack}));
  m.add("tcp.segments_per_op", "1/op",
        ratio(static_cast<double>(L.stack_egress_packets), ops));
  m.add("tcp.retx_share", "share",
        ratio(static_cast<double>(t.tcp_retx),
              static_cast<double>(t.tcp_segments)));
  m.add("tcp.rtos", "count", static_cast<double>(t.tcp_rtos));
  m.add("host.conns_opened_per_op", "1/op",
        ratio(static_cast<double>(t.conns_opened), ops));

  // ---- net ----
  const double delivered = static_cast<double>(t.delivered_packets);
  const net::QueueStats& f = t.fabric;
  m.add("net.pool_fresh_allocs_per_pkt", "1/pkt",
        ratio(static_cast<double>(t.pool_fresh_allocs), delivered));
  m.add("net.pool_live_peak", "count", static_cast<double>(t.pool_live_peak));
  m.add("net.fabric_hops_per_pkt", "1/pkt",
        ratio(static_cast<double>(f.enqueued_packets), delivered));
  m.add("net.drop_share", "share",
        ratio(static_cast<double>(f.dropped_packets),
              static_cast<double>(f.enqueued_packets + f.dropped_packets)));
  m.add("net.mark_share", "share",
        ratio(static_cast<double>(f.marked_packets),
              static_cast<double>(f.enqueued_packets)));
  m.add("net.queue_peak_kb", "KiB", static_cast<double>(f.peak_bytes) / 1024.0);

  // ---- app (service only; zero elsewhere) ----
  const app::ServiceStats& s = t.service;
  m.add("app.leaf_calls_per_req", "1/op",
        ratio(static_cast<double>(s.fanout.leaf_calls),
              static_cast<double>(s.user.completed)));
  m.add("app.rejected", "count",
        static_cast<double>(s.frontend.rejected + s.worker.rejected +
                            s.storage.rejected));
  m.add("app.busy_peak", "count",
        static_cast<double>(std::max({s.frontend.busy_peak,
                                      s.worker.busy_peak,
                                      s.storage.busy_peak})));
  m.add("app.conduits_live", "count", static_cast<double>(s.conduits_live));

  // ---- workload (churn only; zero elsewhere) ----
  const workload::ChurnStats& c = t.churn;
  m.add("workload.peak_concurrent", "count",
        static_cast<double>(c.peak_concurrent));
  m.add("workload.skipped_share", "share",
        ratio(static_cast<double>(c.skipped),
              static_cast<double>(c.started + c.skipped)));

  // ---- parallel (bulk-sharded only; zero elsewhere) ----
  m.add("parallel.windows_per_op", "1/op",
        summarize(each(traced, [](const Outcome& o) {
          return ratio(static_cast<double>(o.par.epochs),
                       static_cast<double>(o.ops));
        })));
  m.add("parallel.msgs_per_op", "1/op",
        ratio(static_cast<double>(t.par.messages), ops));
  m.add("parallel.null_msg_share", "share",
        summarize(each(traced, [](const Outcome& o) {
          return ratio(static_cast<double>(o.par.null_msgs),
                       static_cast<double>(o.par.epochs + o.par.null_msgs));
        })));
  auto wait_share = [&](bool idle) {
    return summarize(each(traced, [&](const Outcome& o) {
      return ratio(static_cast<double>(idle ? o.par.idle_wait_ns
                                            : o.par.barrier_wait_ns),
                   busy_ns(o));
    }));
  };
  m.add("parallel.idle_wait_share", "share", wait_share(true));
  m.add("parallel.barrier_wait_share", "share", wait_share(false));

  // ---- exp (set-up, measured on every episode of the run) ----
  std::vector<Outcome> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  m.add("exp.setup_topology_s", "s", summarize(each(all, [](const Outcome& o) {
          return o.setup_topology_s;
        })));
  m.add("exp.setup_workload_s", "s", summarize(each(all, [](const Outcome& o) {
          return o.setup_workload_s;
        })));

  // ---- harness ----
  const Summary plain_run =
      summarize(each(plain, [](const Outcome& o) { return o.run_s; }));
  const Summary traced_run =
      summarize(each(traced, [](const Outcome& o) { return o.run_s; }));
  m.add("trace.overhead_share", "share",
        ratio(traced_run.median, plain_run.median) - 1.0);
  m.add("trace.unattributed_share", "share",
        summarize(each(traced, [&](const Outcome& o) {
          double attributed = 0;
          for (int l = 0; l < kLayerCount; ++l) {
            attributed += static_cast<double>(o.ledger.self_ns[l]);
          }
          attributed += static_cast<double>(o.par.idle_wait_ns +
                                            o.par.barrier_wait_ns);
          return 1.0 - ratio(attributed, busy_ns(o));
        })));
}

// The closure law for a traced episode: no layer's self time is negative
// and the attributed time never exceeds the thread time it came from.
void check_closure(const Outcome& o, std::vector<std::string>& failures) {
  const double threads = o.parallel ? static_cast<double>(o.threads) : 1.0;
  double attributed = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    if (o.ledger.self_ns[l] < 0) {
      failures.push_back("trace: negative self time");
      return;
    }
    attributed += static_cast<double>(o.ledger.self_ns[l]);
  }
  attributed += static_cast<double>(o.par.idle_wait_ns + o.par.barrier_wait_ns);
  // Wait counters are sampled per window, so allow them 2% of slack.
  if (attributed > o.run_s * 1e9 * threads * 1.02) {
    failures.push_back("trace: attributed time exceeds the traced wall time");
  }
  if (o.ledger.depth != 0) failures.push_back("trace: unbalanced spans");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      if (!parse_kind(value, &args->kind)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return args->seconds > 0;
}

}  // namespace
}  // namespace acdc::perfbench

int main(int argc, char** argv) {
  using namespace acdc::perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload bulk|churn|service|bulk-sharded "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }

  if (args.kind == Kind::kBulkSharded) pin_sharded_cpus();
  std::vector<Outcome> plain;
  std::vector<Outcome> traced;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  // The traced run alternates untraced/traced episodes so both see the same
  // machine state; the overhead is the ratio of their median run times.
  // Peak memory is read after the first episode, which does the same
  // simulated work as every later one. Worker threads' packet pools keep
  // their freelists after the threads end, so a later reading would grow
  // with the number of episodes the budget allows. The reference loops'
  // memory stays resident throughout and is not the simulator's: it is
  // taken off.
  double rss_mb = 0;
  const double rss_before_ref = status_mb("VmRSS");
  std::vector<ReferenceLoop> refs(
      static_cast<std::size_t>(reference_threads(args.kind)));
  const double ref_mb = status_mb("VmRSS") - rss_before_ref;
  do {
    plain.push_back(run_episode(args.kind, args.seed, false, refs));
    if (plain.size() == 1) rss_mb = status_mb("VmHWM") - ref_mb;
    if (args.trace) {
      traced.push_back(run_episode(args.kind, args.seed, true, refs));
    }
  } while (elapsed() < args.seconds);

  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const std::uint64_t digest = plain.front().digest();
  bool digests_agree = true;
  for (const auto* set : {&plain, &traced}) {
    for (const Outcome& o : *set) {
      for (const std::string& f : o.check_failures) {
        if (std::find(failures.begin(), failures.end(), f) == failures.end()) {
          failures.push_back(f);
        }
      }
      if (o.digest() != digest) digests_agree = false;
      if (o.traced) check_closure(o, failures);
      attempted += o.attempted;
      failed += o.failed;
    }
  }
  if (!digests_agree) {
    failures.push_back(
        args.trace ? "digest: episodes (traced or untraced) disagree"
                   : "digest: episodes disagree");
  }
  const bool correct = failures.empty();
  if (!correct) failed = attempted;  // a run that fails a check failed all

  MetricWriter m;
  MetricWriter raw;
  if (args.trace) {
    per_layer(plain, traced, m);
  } else {
    end_to_end(plain, rss_mb, correct, m, raw);
  }

  std::string checks;
  for (const std::string& f : failures) {
    checks += (checks.empty() ? "" : ", ") + json_string(f);
  }
  std::string run_s;
  for (const Outcome& o : plain) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", run_s.empty() ? "" : ", ",
                  o.run_s);
    run_s += buf;
  }
  const Outcome& first = plain.front();
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"digest\": \"%016" PRIx64 "\", \"episodes\": %zu, "
      "\"traced_episodes\": %zu, \"correct\": %s, \"checks\": [%s], "
      "\"attempted\": %" PRId64 ", \"failed\": %" PRId64 ", "
      "\"build\": {\"compiler\": %s, \"build_type\": \"%s\", "
      "\"threads\": %d}, \"run_s\": [%s], \"metrics\": {%s}, "
      "\"raw\": {%s}}\n",
      kind_name(args.kind), args.seed, args.trace ? 1 : 0, digest,
      plain.size(), traced.size(), correct ? "true" : "false", checks.c_str(),
      attempted, failed, json_string(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, first.parallel ? first.threads : 1,
      run_s.c_str(), m.json().c_str(), raw.json().c_str());
  return 0;
}
