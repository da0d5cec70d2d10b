#!/usr/bin/env python3
"""Layered benchmark of the DAG-Rider reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe from source
with dune, then measures one workload for about S seconds, one simulated
execution per process. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. README.md explains the workloads and the metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
PROCESS_TIMEOUT_S = 170
# Executions whose counts a --trace 0 run pools, each on its own seed
# derived from --seed. Pooling several schedules steadies the tail
# latency, which on one short execution jumps by a quarter whenever a
# wave is skipped. The run then repeats these seeds in turn until
# --seconds is spent, for the timings.
POOLED = {"wide": 2, "deep": 2, "avid-load": 6, "observed": 6}
# untraced executions a --trace 1 run times as the profiler's baseline
BASELINE_REPS = 2
# fields of one execution that depend only on its seed
EXACT = ("ok", "attempted", "failed", "committed", "quarter_alloc_b",
         "quarter_vertices", "latencies", "honest_bits")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # the shared dune cache lives outside the checkout: keep it out
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def execute(mode, workload, seed):
    try:
        proc = subprocess.run([EXE, mode, workload, str(seed)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} {workload} {seed} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} {workload} {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def derived_seed(seed, i):
    return seed * 1000 + i


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(correct, attempted, failed, values, kind):
    units = declared(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def nearest_rank(sorted_values, p):
    rank = math.ceil(p / 100 * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


def end_to_end(workload, seed, seconds):
    k = POOLED[workload]
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(execute("rep", workload, derived_seed(seed, len(reps) % k)))
        last = time.monotonic() - t0
        if len(reps) >= k and time.monotonic() - start + last > seconds:
            break
    pooled = reps[:k]
    deterministic = all(r[f] == pooled[i % k][f]
                        for i, r in enumerate(reps) for f in EXACT)
    if not deterministic:
        print("perfbench: executions of one seed disagree on an exact "
              "field", file=sys.stderr)
    committed = sum(r["committed"] for r in pooled)
    latencies = sorted(x for r in pooled for x in r["latencies"])
    if committed == 0 or not latencies:
        fail("nothing committed")

    def per_round(q):
        return sum(r["quarter_alloc_b"][q] for r in pooled) / \
            sum(r["quarter_vertices"][q] for r in pooled)

    values = {
        "committed": committed,
        "alloc_b_per_commit":
            sum(sum(r["quarter_alloc_b"]) for r in pooled) / committed,
        "round_alloc_growth": per_round(3) / per_round(0),
        "commit_lat_p50": nearest_rank(latencies, 50),
        "commit_lat_p90": nearest_rank(latencies, 90),
        "commit_lat_samples": len(latencies),
        "bits_per_commit": sum(r["honest_bits"] for r in pooled) / committed,
    }
    for f in ("setup_s", "wall_us_per_commit", "peak_heap_mb"):
        values[f] = statistics.median(r[f] for r in reps)
    emit(deterministic and all(r["ok"] for r in reps),
         sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps),
         values, "end_to_end")


def per_layer(workload, seed):
    seed = derived_seed(seed, 0)
    layers = execute("layers", workload, seed)
    values = dict(layers["metrics"])

    def timed(mode):
        reps = [execute(mode, workload, seed) for _ in range(BASELINE_REPS)]
        return statistics.median(r["ref_wall_s"] for r in reps), reps

    untraced, reps = timed("rep")
    values["prof.overhead_share"] = layers["prof_ref_wall_s"] / untraced - 1
    values["host.raw_wall_us_per_commit"] = statistics.median(
        r["raw_us_per_commit"] for r in reps)
    values["host.factor"] = statistics.median(
        r["raw_us_per_commit"] / r["wall_us_per_commit"] for r in reps)
    if workload == "observed":
        bare, _ = timed("bare")
        values["obs.overhead_share"] = untraced / bare - 1
    else:
        values["obs.overhead_share"] = 0.0
    emit(layers["ok"] and all(r["ok"] for r in reps),
         layers["attempted"], layers["failed"], values, "per_layer")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(POOLED))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    if args.trace:
        per_layer(args.workload, args.seed)
    else:
        end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
