#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] \
        [--trace-seed 1] [--out FILE]

Each (workload, seed) is one ``run.py`` process, run one after another.
For every end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median, next to the metric's bound in BENCHMARK.json.
With ``--trace-seed`` it adds one traced run per workload. ``--out`` writes
everything, fingerprints and per-layer metrics included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), **json.loads(lines[-2])["detail"]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"seconds": args.seconds,
              "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy.__version__, "machine": platform.machine()},
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seed_list(args.seeds):
            runs[seed] = bench(workload, seed, args.seconds, 0)
            values = {k: round(v["value"], 6) for k, v in runs[seed]["metrics"].items()}
            print(f"{workload} seed={seed} failed={runs[seed]['failed']}"
                  f"/{runs[seed]['attempted']} {values}", flush=True)
        entry = {
            "shape": WORKLOADS[workload].shape,
            "end_to_end": {},
            "failed": sum(r["failed"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "fingerprints": {s: r["fingerprint"] for s, r in runs.items()},
            "passes": {s: {k: r[k] for k in ("pass_wall_s", "pass_host_wall_s",
                                        "pass_host_speed", "pass_events",
                                        "pass_run_s", "pass_call_wall_s")}
                       for s, r in runs.items()},
        }
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs.values()])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(f"{workload} {name}: median {stats['median']:.6g} "
                  f"spread {stats['spread']:.3f} (bound {bound}, "
                  f"{'ok' if stats['spread'] <= bound / 3 else 'ABOVE a third'})",
                  flush=True)
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {
                "seed": args.trace_seed, "failed": traced["failed"],
                "fingerprint": traced["fingerprint"],
                "events_by_kind": traced["events_by_kind"],
                "frames_by_kind": traced["frames_by_kind"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            shares = {k[6:]: round(v["value"], 3) for k, v in traced["metrics"].items()
                      if k.startswith("share.")}
            print(f"{workload} traced shares {shares} overhead "
                  f"{traced['metrics']['trace.overhead_s']['value']:.3f} s",
                  flush=True)
        result["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
