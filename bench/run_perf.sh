#!/usr/bin/env bash
# Runs the datapath packets-per-second microbench and merges its output with
# the committed pre-PR baseline (bench/perf_baseline.json) into
# BENCH_datapath.json — schema documented in DESIGN.md ("Performance").
#
#   bench/run_perf.sh                 # full run, writes ./BENCH_datapath.json
#   bench/run_perf.sh --quick         # CI-sized iteration counts
#   bench/run_perf.sh --check         # also gate: fail on >20% regression
#   bench/run_perf.sh --out PATH      # choose the merged-output path
#   bench/run_perf.sh --build-dir DIR # default: build
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build"
out="BENCH_datapath.json"
check=0
quick=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="$2"; shift 2 ;;
    --out)       out="$2"; shift 2 ;;
    --check)     check=1; shift ;;
    --quick)     quick=1; shift ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

bench_bin="$build_dir/bench/bench_datapath_pps"
if [[ ! -x "$bench_bin" ]]; then
  echo "building bench_datapath_pps in $build_dir ..." >&2
  cmake --build "$build_dir" --target bench_datapath_pps -j "$(nproc)" >&2
fi
churn_bin="$build_dir/bench/bench_churn_pps"
if [[ ! -x "$churn_bin" ]]; then
  echo "building bench_churn_pps in $build_dir ..." >&2
  cmake --build "$build_dir" --target bench_churn_pps -j "$(nproc)" >&2
fi
multiflow_bin="$build_dir/bench/bench_multiflow_pps"
if [[ ! -x "$multiflow_bin" ]]; then
  echo "building bench_multiflow_pps in $build_dir ..." >&2
  cmake --build "$build_dir" --target bench_multiflow_pps -j "$(nproc)" >&2
fi
service_bin="$build_dir/bench/bench_service_rps"
if [[ ! -x "$service_bin" ]]; then
  echo "building bench_service_rps in $build_dir ..." >&2
  cmake --build "$build_dir" --target bench_service_rps -j "$(nproc)" >&2
fi

# Benchmarks want a quiet machine: warn when any CPU is not on the
# `performance` governor (frequency ramps skew ns/packet numbers).
gov_file=/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor
if [[ -r "$gov_file" ]]; then
  governors="$(cat /sys/devices/system/cpu/cpu*/cpufreq/scaling_governor \
               | sort -u | tr '\n' ' ')"
  if [[ "$governors" != "performance " ]]; then
    echo "warning: CPU governor is '${governors% }', not 'performance';" \
         "numbers will be noisy (sudo cpupower frequency-set -g performance)" >&2
  fi
fi

# Pin the bench to a fixed set of CPUs when taskset is available, so the
# scheduler does not migrate it mid-measurement. The parallel sweep needs
# up to 8 workers; pin to the first min(8, nproc) CPUs.
pin=()
if command -v taskset >/dev/null 2>&1; then
  ncpu="$(nproc)"
  last=$(( ncpu < 8 ? ncpu - 1 : 7 ))
  pin=(taskset -c "0-$last")
  [[ "$last" == 0 ]] && pin=(taskset -c 0)
fi

iters=()
if [[ "$quick" == 1 ]]; then
  iters=(--packet-iters 400000 --multiflow-iters 400000 --event-iters 200000
         --parallel-ms 10 --overhead-ms 100)
fi

raw="$(mktemp)"
churn_raw="$(mktemp)"
multiflow_raw="$(mktemp)"
service_raw="$(mktemp)"
trap 'rm -f "$raw" "$churn_raw" "$multiflow_raw" "$service_raw"' EXIT
"${pin[@]}" "$bench_bin" "${iters[@]}" --json "$raw"

churn_args=()
[[ "$quick" == 1 ]] && churn_args=(--quick)
"${pin[@]}" "$churn_bin" "${churn_args[@]}" --json "$churn_raw"

multiflow_args=()
[[ "$quick" == 1 ]] && multiflow_args=(--quick)
"${pin[@]}" "$multiflow_bin" "${multiflow_args[@]}" --json "$multiflow_raw"

# Closed-loop service tier: the binary itself gates drain + request-
# accounting closure on every arm (non-zero exit on either), so a hang or
# a leak in the RPC/fan-out pipeline fails the run even without --check.
# Full runs take the 10k/100k/1M-user scale ladder; --quick a 2k-user arm.
service_args=(--sweep)
[[ "$quick" == 1 ]] && service_args=(--quick)
"${pin[@]}" "$service_bin" "${service_args[@]}" --json "$service_raw"

# The occupancy sweep's 1M/10k ratio is self-relative but still at the mercy
# of whoever else is on the socket: a noisy-neighbor phase in the shared L3
# depresses the 1M arm (DRAM/L3-bound) far more than the 10k arm
# (L2-resident) and can sink the ratio by 10-20% for minutes at a time. When
# gating, retry the sweep up to twice on a miss and keep the best run: a real
# cache regression fails every attempt, a bad phase rarely survives three.
if [[ "$check" == 1 ]]; then
  ratio_of() { python3 -c \
    "import json,sys; print(json.load(open(sys.argv[1]))['ratio_1m_10k'])" \
    "$1"; }
  best_ratio="$(ratio_of "$multiflow_raw")"
  for attempt in 2 3; do
    awk -v r="$best_ratio" 'BEGIN { exit !(r < 0.70) }' || break
    echo "multiflow ratio_1m_10k $best_ratio < 0.70;" \
         "retry $attempt/3 (noisy-neighbor tolerance)" >&2
    retry_raw="$(mktemp)"
    "${pin[@]}" "$multiflow_bin" "${multiflow_args[@]}" --json "$retry_raw"
    retry_ratio="$(ratio_of "$retry_raw")"
    if awk -v a="$retry_ratio" -v b="$best_ratio" 'BEGIN { exit !(a > b) }'
    then
      mv "$retry_raw" "$multiflow_raw"
      best_ratio="$retry_ratio"
    else
      rm -f "$retry_raw"
    fi
  done
fi

CHECK="$check" RAW="$raw" CHURN_RAW="$churn_raw" \
MULTIFLOW_RAW="$multiflow_raw" SERVICE_RAW="$service_raw" OUT="$out" \
BASELINE="$repo_root/bench/perf_baseline.json" \
CHURN_BASELINE="$repo_root/bench/churn_baseline.json" python3 - <<'PY'
import json, os, sys

current = json.load(open(os.environ["RAW"]))
baseline = json.load(open(os.environ["BASELINE"]))
churn = json.load(open(os.environ["CHURN_RAW"]))
churn_baseline = json.load(open(os.environ["CHURN_BASELINE"]))
multiflow = json.load(open(os.environ["MULTIFLOW_RAW"]))
service = json.load(open(os.environ["SERVICE_RAW"]))

def ratio(key):
    base = baseline.get(key)
    return round(current[key] / base, 3) if base else None

def churn_ratio(key):
    base = churn_baseline.get(key)
    return round(churn[key] / base, 3) if base else None

merged = {
    "schema": "acdc-bench-datapath/1",
    "bench": "datapath_pps",
    "current": current,
    "baseline": baseline,
    "speedup": {
        "packets_per_sec": ratio("packets_per_sec"),
        "multiflow_packets_per_sec": ratio("multiflow_packets_per_sec"),
        "events_per_sec": ratio("events_per_sec"),
    },
    "churn": {
        "current": churn,
        "baseline": churn_baseline,
        "speedup": {
            "churn_flows_per_sec_wall": churn_ratio("churn_flows_per_sec_wall"),
        },
    },
    # Self-relative occupancy sweep: no committed baseline, because the
    # gate (ratio_1m_10k) compares the machine against itself.
    "multiflow": multiflow,
    # Closed-loop service tier: the simulated-side numbers (p99, misses,
    # SLO violations) are deterministic, so they gate without a baseline;
    # wall-clock rps is reported for trend-watching only.
    "service": service,
}
with open(os.environ["OUT"], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

print(f"wrote {os.environ['OUT']}")
for k, v in merged["speedup"].items():
    print(f"  {k}: {v}x vs baseline ({baseline['recorded_at_commit']})")
print(f"  allocs/packet steady: {current['allocs_per_packet_steady']}")
if "e2e_allocs_per_packet_steady" in current:
    print("  e2e allocs/packet steady: "
          f"{current['e2e_allocs_per_packet_steady']}")
if "e2e_events_per_packet" in current:
    print(f"  e2e events/packet: {current['e2e_events_per_packet']}")
print(f"  churn flows/sec wall: {churn['churn_flows_per_sec_wall']:.0f} "
      f"({merged['churn']['speedup']['churn_flows_per_sec_wall']}x vs "
      f"baseline, table peak {churn['churn_table_peak']}/"
      f"{churn['churn_table_cap']})")
print(f"  multiflow pps 10k/100k/1M: {multiflow['pps_10k']:.0f} / "
      f"{multiflow['pps_100k']:.0f} / {multiflow['pps_1m']:.0f} "
      f"(1M/10k ratio {multiflow['ratio_1m_10k']})")
if service.get("service_sweep"):
    for arm in ("_10k", "_100k", "_1m"):
        print(f"  service{arm} req/s wall: "
              f"{service['service_rps_wall' + arm]:.0f} "
              f"({service['service_users' + arm]} users, p99 "
              f"{service['service_p99_ms' + arm]:.2f} ms, miss "
              f"{service['service_deadline_misses' + arm]}, slo "
              f"{service['service_slo_violations' + arm]})")
else:
    print(f"  service req/s wall: {service['service_rps_wall']:.0f} "
          f"({service['service_users']} users, p99 "
          f"{service['service_p99_ms']:.2f} ms, miss "
          f"{service['service_deadline_misses']}, slo "
          f"{service['service_slo_violations']})")
if "pps_10m" in multiflow:
    print(f"  multiflow pps 10M: {multiflow['pps_10m']:.0f}")
if "parallel_speedup_t8" in current:
    print(f"  parallel speedup t8/t1: {current['parallel_speedup_t8']}x "
          f"({current['hw_threads']} hw threads)")
if "parallel_t1_vs_serial" in current:
    print(f"  parallel t1 vs serial engine: "
          f"{current['parallel_t1_vs_serial']}x "
          f"({current['parallel_events_per_sec_t1']:.0f} vs "
          f"{current['parallel_events_per_sec_serial']:.0f} ev/s)")
if "tracing_overhead_pct" in current:
    print(f"  tracing overhead: {current['tracing_overhead_pct']}% "
          f"({current['e2e_pps_traced']:.0f} traced vs "
          f"{current['e2e_pps_untraced']:.0f} untraced pps)")

if os.environ["CHECK"] == "1":
    # Regression gate: each throughput metric must stay within 20% of the
    # committed baseline. (Post-optimization numbers sit ~2x above it, so a
    # trip here means a real regression, not noise.)
    failed = []
    for k in ("packets_per_sec", "multiflow_packets_per_sec",
              "events_per_sec"):
        if current[k] < 0.8 * baseline[k]:
            failed.append(f"{k}: {current[k]:.0f} < 80% of "
                          f"baseline {baseline[k]:.0f}")
    # The steady state must stay allocation-free on the per-flow fast path.
    if current["allocs_per_packet_steady"] > 0.01:
        failed.append("allocs_per_packet_steady "
                      f"{current['allocs_per_packet_steady']} > 0.01")
    # The whole dumbbell (TCP, NIC, ports, vSwitch, event queue) in its
    # second half: a deterministic count, so a trip is a real per-packet
    # allocation, not noise.
    e2e_allocs = current.get("e2e_allocs_per_packet_steady")
    if e2e_allocs is not None and e2e_allocs > 0.25:
        failed.append(f"e2e_allocs_per_packet_steady {e2e_allocs} > 0.25")
    # Simulator events per delivered packet in the same run, also a
    # deterministic count, so a trip means the packet path grew an event.
    # It reads 4.29 at --quick (100 ms) and 4.15 in a full run (200 ms),
    # and about 7 when every transmission scheduled its tx-done and every
    # NIC arrival its rx drain.
    e2e_events = current.get("e2e_events_per_packet")
    if e2e_events is not None and e2e_events > 4.5:
        failed.append(f"e2e_events_per_packet {e2e_events} > 4.5")
    # The sharded engine must scale on real multi-core hardware. Only
    # enforced with >= 8 hardware threads: below that, worker spinning on
    # an oversubscribed machine legitimately makes t8 slower than t1.
    if current.get("hw_threads", 0) >= 8:
        speedup = current.get("parallel_speedup_t8", 0)
        if speedup < 4.0:
            failed.append(f"parallel_speedup_t8 {speedup} < 4.0 "
                          f"on {current['hw_threads']} hw threads")
    # Self-relative sync-overhead gate, armed at every core count: the
    # sharded engine on one worker thread runs the identical workload as the
    # serial engine, so everything it loses is pure synchronization tax
    # (safe-time bookkeeping, mailbox hops, cache traffic). Keep that tax
    # under 15%.
    t1 = current.get("parallel_events_per_sec_t1")
    serial = current.get("parallel_events_per_sec_serial")
    if t1 and serial and t1 < 0.85 * serial:
        failed.append(f"parallel_events_per_sec_t1 {t1:.0f} < 85% of "
                      f"serial engine {serial:.0f}")
    # Churn gates: lifecycle throughput within 20% of baseline, the flow
    # table bounded by its cap, and the cleanup paths actually exercised.
    if churn["churn_flows_per_sec_wall"] < \
            0.8 * churn_baseline["churn_flows_per_sec_wall"]:
        failed.append("churn_flows_per_sec_wall "
                      f"{churn['churn_flows_per_sec_wall']:.0f} < 80% of "
                      f"baseline {churn_baseline['churn_flows_per_sec_wall']}")
    if churn["churn_table_peak"] > churn["churn_table_cap"]:
        failed.append(f"churn_table_peak {churn['churn_table_peak']} "
                      f"exceeds cap {churn['churn_table_cap']}")
    if churn["churn_gc_removed"] + churn["churn_evictions"] <= 0:
        failed.append("churn removed no flow-table state "
                      "(gc_removed + evictions == 0)")
    # Occupancy scaling: per-packet throughput at 1M resident flows must
    # hold at least 70% of the 10k-flow figure. Self-relative, so it gates
    # the table's cache behavior rather than absolute machine speed.
    if multiflow["ratio_1m_10k"] < 0.70:
        failed.append(f"multiflow ratio_1m_10k {multiflow['ratio_1m_10k']} "
                      "< 0.70")
    # Service gates are on simulated outcomes, which are deterministic for
    # the default config: the bench fabric is unloaded relative to the SLO,
    # so any deadline miss or SLO violation is a latency regression in the
    # stack (RPC framing, fan-out straggling, vswitch enforcement), and a
    # failed drain is a leaked request or connection.
    service_arms = [""]
    if service.get("service_sweep"):
        service_arms = ["_10k", "_100k", "_1m"]
    for arm in service_arms:
        if service["service_drained" + arm] != 1:
            failed.append(f"service{arm} tier did not drain")
        if service["service_deadline_misses" + arm] > 0:
            failed.append(f"service_deadline_misses{arm} "
                          f"{service['service_deadline_misses' + arm]} > 0")
        if service["service_slo_violations" + arm] > 0:
            failed.append(f"service_slo_violations{arm} "
                          f"{service['service_slo_violations' + arm]} > 0")
    # Tracing must stay cheap enough to leave on while debugging: the
    # end-to-end run with all forensic taps + post-run analysis must keep
    # packets/sec within 10% of the untraced run.
    if current.get("tracing_overhead_pct", 0) > 10.0:
        failed.append("tracing_overhead_pct "
                      f"{current['tracing_overhead_pct']} > 10.0")
    if failed:
        print("PERF REGRESSION:", *failed, sep="\n  ", file=sys.stderr)
        sys.exit(1)
    print("perf check passed")
PY
