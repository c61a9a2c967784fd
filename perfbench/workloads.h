// The benchmark's four workloads. Every host in every workload runs an
// AC/DC vSwitch; one Episode builds a workload from a seed, runs its fixed
// simulated horizon and reads back what it did.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acdc/core.h"
#include "acdc/flow_table.h"
#include "app/service.h"
#include "net/queue.h"
#include "probes.h"
#include "reference.h"
#include "sim/parallel/executor.h"
#include "workload/churn.h"

namespace acdc::perfbench {

enum class Kind { kBulk, kChurn, kService, kBulkSharded };

// Parses a workload name; false when unknown.
bool parse_kind(const std::string& name, Kind* kind);
const char* kind_name(Kind kind);

// Everything one episode measured. Timings are host seconds; the rest is
// simulated outcome and depends only on the workload and seed.
struct Outcome {
  // ---- host time ----
  double setup_s = 0;           // construction start -> first event
  double setup_topology_s = 0;  // switches, hosts, links, partitioning
  double setup_workload_s = 0;  // vSwitches, probes, apps, user plans
  double run_s = 0;             // first event -> end of the horizon,
                                // less the reference slices in between
  RefTime ref;                  // reference slices run between chunks,
  RefTime ref_main;             // ... and those on the main thread

  // ---- simulated outcome ----
  std::int64_t ops = 0;  // delivered packets / completed flows / requests
  std::int64_t delivered_packets = 0;  // packets into host NICs
  std::int64_t events = 0;
  std::int64_t goodput_bytes = 0;  // payload acked (bulk, churn) or
                                   // delivered to users (service)
  double sim_seconds = 0;          // the simulated horizon
  double p99_ms = 0;               // request latency or probe RTT
  std::int64_t attempted = 0;      // operations attempted
  std::int64_t failed = 0;         // ... and failed
  std::vector<std::string> check_failures;  // self-checks that failed

  // ---- layer counters ----
  vswitch::AcdcStats acdc;
  vswitch::FlowTable::Stats table;
  std::int64_t table_peak = 0;  // largest single-vSwitch occupancy
  net::QueueStats fabric;
  std::int64_t tcp_segments = 0;  // summed over connections alive at the end
  std::int64_t tcp_retx = 0;
  std::int64_t tcp_rtos = 0;
  std::int64_t conns_opened = 0;
  app::ServiceStats service;
  workload::ChurnStats churn;
  bool parallel = false;
  int threads = 1;
  sim::par::ParallelExecutor::Stats par;

  // ---- traced episodes only ----
  bool traced = false;
  Ledger ledger;                      // summed over threads
  std::int64_t pool_fresh_allocs = 0;
  std::int64_t pool_live_peak = 0;

  std::uint64_t digest() const;  // hash of the simulated outcome
};

// Builds, runs and reads back one episode. `traced` installs the probes
// and drives the serial engine step by step. After each simulated chunk
// the episode runs every loop of `refs` at once for about a tenth of the
// chunk's host time; `refs` holds one loop per thread the episode runs
// the simulation on (see reference_threads).
Outcome run_episode(Kind kind, std::uint64_t seed, bool traced,
                    std::vector<ReferenceLoop>& refs);

// Confines bulk-sharded's process, and so every thread it starts later, to
// the last sharded_threads() CPUs it may run on. Pinned, the workers that
// each chunk starts stop landing on different cores from chunk to chunk,
// and the reference loops time the cores the workers ran on: on the box
// of record the per-episode slowdown then tracks the workers' speed
// (correlation -0.35 to -0.76, against about 0 unpinned). Does nothing
// when the process may run on no more CPUs than that already.
void pin_sharded_cpus();

// Threads a workload simulates on: sharded_threads() for bulk-sharded, 1
// for the serial workloads.
int reference_threads(Kind kind);

// Worker threads bulk-sharded uses on this box: min(2, hardware threads).
// Two leave the rest of a small shared box free, so that another process
// waking up does not stall a worker that every other shard waits on.
int sharded_threads();

}  // namespace acdc::perfbench
