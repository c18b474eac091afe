#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `perfbench`
package (release, offline) into `$CARGO_TARGET_DIR`, or into
`perfbench/target` when that is unset, runs one workload and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output, diagnostics and the per-call self-time summary of a traced
run go to standard error. A traced run also writes its spans to
`<target>/perfbench/trace-<workload>-seed<n>.json`.

The exact work counters of every run are kept in
`<target>/perfbench/counters.json`, keyed by the benchmark binary's hash,
the workload and the seed. A run whose counters differ from an earlier
run of the same binary on the same workload and seed is not correct.

Exits non-zero without printing a result when the benchmark cannot be
built, for example outside a full checkout of the repository.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parent
# Workload -> host threads it runs on (fixed; never read from the machine).
WORKLOADS = {
    "mesh-bursty": 1,
    "mesh-backpressured": 1,
    "fleet-mixed64": 1,
    "verify-spj": 2,
}
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(PKG / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"build failed (exit {proc.returncode})")
        sys.exit(1)
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        log(f"build produced no {binary}")
        sys.exit(1)
    return binary


def metric_names(trace):
    spec = json.loads((PKG.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args, trace_out):
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", str(trace_out),
    ]
    # Thread counts are fixed per workload; never inherit the kernel's
    # environment override.
    env = {k: v for k, v in os.environ.items() if k != "LIS_SIM_THREADS"}
    # Pin a single-threaded untraced run to one CPU: migrations between
    # CPUs are the largest source of run-to-run spread on a small shared
    # host. Traced runs also time an operation at two threads.
    cpus = sorted(os.sched_getaffinity(0))
    width = 2 if args.trace else WORKLOADS[args.workload]
    pin = set(cpus[-width:])
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, pin),
        )
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary failed (exit {proc.returncode})")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"unreadable result line: {e}")
        return None


def check_counters(state_file, key, counters):
    """Compares this run's exact counters with an earlier run's."""
    state = json.loads(state_file.read_text()) if state_file.is_file() else {}
    earlier = state.get(key)
    if earlier is not None:
        drift = {
            k: (earlier.get(k), v) for k, v in counters.items() if earlier.get(k, v) != v
        }
        if drift:
            log(f"exact counters differ from an earlier run of {key}: {drift}")
            return False
    state[key] = {**(earlier or {}), **counters}
    tmp = state_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(state_file)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds within 1..600")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or PKG / "target").resolve()
    binary = build(target)
    out_dir = target / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"

    result = run_binary(binary, args, trace_out)
    if result is None:
        result = {
            "correct": False, "attempted": 1, "failed": 1,
            "metrics": {n: {"value": 0.0, "unit": u} for n, u in metric_names(args.trace)},
            "counters": {},
        }
    counters = result.pop("counters", {})
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    key = f"{digest}/{args.workload}/seed{args.seed}"
    if counters and not check_counters(out_dir / "counters.json", key, counters):
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
