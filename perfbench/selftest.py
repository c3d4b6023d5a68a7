#!/usr/bin/env python3
"""Self-test of the benchmark on tiny shapes (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json, in
the last-line format the benchmark promises; that a deliberately corrupted
output and a simulation that raises are each counted as one failed run
without aborting the others; that tracing leaves the outputs unchanged;
that the host-speed sampling stops with each measurement; and that the
benchmark refuses to run where there are no sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import signal
import subprocess
import sys

import layers
import run
from tracer import Patcher
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3

# Shrunk versions of each workload: same commands and code paths, far less
# simulated time. The healing shape wakes nodes faster so it heals in time.
TINY = {
    "table1_sweep": {"nodes": "20", "field": "60x60", "grid_step": "5",
                     "duration": "30"},
    "density800": {"nodes": "60", "field": "110x110", "duration": "30"},
    "heal_inject": {"nodes": "40", "field": "50x50", "lambda": "0.2",
                    "grid_step": "5", "duration": "90"},
    "hazard_global": {"nodes": "20", "field": "60x60", "duration": "60"},
}


def tiny(name: str):
    w = WORKLOADS[name]
    w = dataclasses.replace(w, config={**w.config, **TINY[name]})
    if w.kill_at is not None:
        w = dataclasses.replace(w, command=("inject", "--kill", "sentinels-at=30"),
                                kill_at=30.0)
    return w


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def last_line(workload, m: dict, trace: bool) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(workload, SEED, m, trace)
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    expect([w["why"] for w in spec["workloads"]]
           == [w.why for w in WORKLOADS.values()],
           "BENCHMARK.json reasons differ from workloads.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in layers.metric_table()],
           "BENCHMARK.json per_layer differs from layers.metric_table()")
    expect(set(layers.MOVES) == set(layers.LAYERS) | {"trace"},
           "a layer has no end-to-end mapping")
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    pkg = run.load_package(ROOT)
    work = os.path.join(ROOT, ".perfbench_out", f"selftest-{os.getpid()}")
    try:
        for name in WORKLOADS:
            w = tiny(name)
            m = run.measure(w, SEED, 0.01, True, pkg, os.path.join(work, name))
            expect(m["failed"] == 0, f"{name}: clean runs failed: "
                   f"{[p for p in m['traced'].problems if p]}")
            for trace, names in ((False, end_to_end), (True, per_layer)):
                line = last_line(w, m, trace)
                expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                       f"{name}: last line keys {sorted(line)}")
                expect(list(line["metrics"]) == names,
                       f"{name}: trace={int(trace)} metrics differ from BENCHMARK.json")
                expect(line["correct"] and line["attempted"] == len(w.sims) * 2,
                       f"{name}: {line['attempted']} runs attempted")
            expect(m["traced"].fingerprints == m["reference"],
                   f"{name}: tracing changed the outputs")
            print(f"ok {name}: every metric emitted, {m['attempted']} runs clean")
        expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
               and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL,
               "host-speed sampling left its timer or handler behind")
        print("ok host-speed sampling stopped after every run")

        # a census row that does not sum is one failed run
        w = tiny("density800")
        metrics = pkg["metrics"]
        fmt = metrics.format_row
        patcher = Patcher()
        patcher.set(metrics, "format_row", lambda row: fmt(
            {**row, "n_sleep": row["n_sleep"] + (row["time_s"] == 10.0)}))
        try:
            m = run.measure(w, SEED, 0.01, False, pkg, os.path.join(work, "corrupt"))
        finally:
            patcher.restore()
        line = last_line(w, m, False)
        expect(line["failed"] == 1 and not line["correct"],
               f"corrupted census counted as {line['failed']} failed runs")
        expect("census" in m["passes"][0].problems[0], "census problem not named")
        print("ok corrupted census row counted as a failed run")

        # a raising simulation is one failed run; the others still run
        w = tiny("hazard_global")
        sim_cls = pkg["sim"].Simulation
        original, raised = sim_cls.run, []

        def flaky(sim):
            if not raised:
                raised.append(sim)
                raise RuntimeError("injected failure")
            return original(sim)

        patcher.set(sim_cls, "run", flaky)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                m = run.measure(w, SEED, 0.01, False, pkg, os.path.join(work, "raise"))
        finally:
            patcher.restore()
        expect((m["failed"], m["attempted"]) == (1, w.calls),
               f"raising run: {m['failed']} of {m['attempted']} failed")
        print("ok an exception counts as one failed run, the rest complete")

        # without sources next to it the benchmark refuses to run
        bare = os.path.join(work, "bare")
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table1_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "benchmark ran without sources")
        print("ok refuses to run without sources")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
