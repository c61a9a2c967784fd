#!/usr/bin/env python3
"""Builds the simulator benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, runs
the acdc_perfbench binary, and prints, last on stdout, one JSON object with
the keys correct, attempted, failed and metrics. Lines before it, each
starting with '#', give the box fingerprint and every metric's value,
quartiles and sample count, and then the unscaled host times and the
reference slowdown that scaled them (see reference.h).

Every result is appended to .bench_build/perfbench/results.jsonl together
with the fingerprint, and every run's simulated-outcome digest is checked
against earlier runs of the same workload and seed with the same
fingerprint: a different digest is nondeterminism and fails the run.

    python3 perfbench/run.py --summary

prints the recorded results grouped by box (the fingerprint without the
source version), then by source version, so that versions are only ever
compared on the same box and build.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then builds incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(bdir), "--target", "acdc_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "acdc_perfbench"


def source_tree_hash():
    """Content hash of the simulator and benchmark sources."""
    h = hashlib.sha256()
    files = sorted(
        p for d in (ROOT / "src", HERE) for p in d.rglob("*")
        if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build_info):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "threads": build_info.get("threads", 1),
        "commit": commit,
        "source_tree": source_tree_hash(),
    }


def fingerprint_key(fp):
    return json.dumps(fp, sort_keys=True)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_digest(bdir, fp, result):
    """Records the digest; False if an earlier run of the same workload and
    seed with the same fingerprint produced a different one."""
    path = bdir / "digests.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    runs = book.setdefault(fingerprint_key(fp), {})
    key = f"{result['workload']}:{result['seed']}"
    earlier = runs.setdefault(key, result["digest"])
    path.write_text(json.dumps(book, indent=1, sort_keys=True))
    return earlier == result["digest"]


def run(args):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"run.py: no simulator sources under {ROOT / 'src'}")
        return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        return 3
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"run.py: benchmark exited with {proc.returncode}")
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    names = list(result["metrics"])
    declared = declared_metrics(args.trace)
    if names != declared:
        log("run.py: metrics differ from BENCHMARK.json: "
            f"printed {sorted(set(names) ^ set(declared))}")
        return 4

    fp = fingerprint(result["build"])
    checks = list(result["checks"])
    if not check_digest(bdir, fp, result):
        checks.append("digest differs from an earlier run of this seed")
    correct = result["correct"] and not checks
    attempted = result["attempted"]
    failed = result["failed"] if correct else attempted
    metrics = result["metrics"]
    if not correct and "ok_share" in metrics:
        metrics["ok_share"]["value"] = 0.0

    with open(bdir / "results.jsonl", "a") as f:
        f.write(json.dumps({
            "fingerprint": fp, "workload": result["workload"],
            "seed": result["seed"], "trace": result["trace"],
            "digest": result["digest"], "episode_run_s": result["run_s"],
            "checks": checks, "metrics": metrics,
            "raw": result["raw"]}) + "\n")

    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"digest {result['digest']} episodes {result['episodes']} "
          f"checks {checks or 'ok'}")
    for label, block in (("", metrics), ("unscaled ", result["raw"])):
        for name, m in block.items():
            print(f"# {label + name:40s} {m['value']:.6g} {m['unit']}  "
                  f"quartiles [{m['q1']:.6g}, {m['median']:.6g}, "
                  f"{m['q3']:.6g}] n={m['n']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()}}))
    return 0


def summary():
    """Medians and quartiles per box, then per source version on that box:
    compare versions only within one box's block."""
    path = build_dir() / "results.jsonl"
    if not path.exists():
        log(f"run.py: no results at {path}")
        return 2
    groups = {}
    for line in path.read_text().splitlines():
        r = json.loads(line)
        fp = dict(r["fingerprint"])
        version = (fp.pop("commit"), fp.pop("source_tree"))
        rows = groups.setdefault(fingerprint_key(fp), {}).setdefault(
            version, {})
        for name, m in r["metrics"].items():
            rows.setdefault((r["workload"], name, m["unit"]),
                            []).append(m["value"])
    for box, versions in groups.items():
        print(f"== box {box}")
        for (commit, tree), rows in versions.items():
            print(f"-- commit {commit} source tree {tree}")
            for (workload, name, unit), values in sorted(rows.items()):
                med = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                else:
                    q1 = q3 = med
                print(f"{workload:13s} {name:40s} {med:12.6g} "
                      f"[{q1:.6g}, {q3:.6g}] n={len(values)} {unit}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=["bulk", "churn", "service", "bulk-sharded"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--summary", action="store_true",
                   help="print recorded results grouped by fingerprint")
    args = p.parse_args()
    if args.summary:
        return summary()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
