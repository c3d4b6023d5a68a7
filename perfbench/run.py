#!/usr/bin/env python3
"""sentinet benchmark: times one pinned workload from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload is repeated in passes for about ``--seconds``, one
simulation at a time in this process. Every simulation's outputs
are checked (``checks.py``), and every pass must reproduce the first pass's
outputs byte for byte. Times are scaled to a fixed host speed
(``hostclock.py``). With ``--trace 0`` the last line reports the
end-to-end metrics (medians over the passes); with ``--trace 1`` one more
pass runs with every layer's functions wrapped in spans and the last line
reports the per-layer metrics instead. The line before it holds the
details: pass times, fingerprints, failed runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import layers
from hostclock import REFERENCE_S, HostClock, HostSpeed
from tracer import Patcher, Tracer
from workloads import WORKLOADS

MODULES = ("engine", "sim", "channel", "protocol", "link_control", "energy",
           "metrics", "config", "cli")
SETUP_ROUNDS = 3  # timed set-ups before each pass, after one untimed warm-up
DEFAULT_SEED = 1


def load_package(root: str) -> dict:
    """Import sentinet from ``<root>/src``; exit with an error when absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sentinet", "__init__.py")):
        sys.exit(f"error: no sentinet sources under {src}")
    sys.path.insert(0, src)
    pkg = {name: importlib.import_module(f"sentinet.{name}") for name in MODULES}
    if not os.path.abspath(pkg["sim"].__file__).startswith(src + os.sep):
        sys.exit(f"error: sentinet was imported from outside {src}")
    return pkg


class RunProbe:
    """Dispatched events and time of every ``Simulation.run``; each run is
    one stretch of the pass's clock."""

    def __init__(self, sim_cls, patcher: Patcher):
        self.clock: HostClock | None = None  # set by ``execute``
        self.run_s, self.events = 0.0, 0
        run = sim_cls.run

        def timed_run(sim):
            self.clock.mark()
            result = run(sim)
            self.run_s += self.clock.mark()[1]
            self.events += sum(result.summary["totals"]["events"].values())
            return result

        patcher.set(sim_cls, "run", timed_run)


@dataclass
class Pass:
    wall_s: float = 0.0  # scaled to the reference host speed (hostclock.py)
    host_wall_s: float = 0.0  # raw host seconds
    call_wall_s: list = field(default_factory=list)  # raw, per cli.main call
    host_speed: float = 0.0  # reference over the stretches' median loop time
    run_s: float = 0.0  # scaled
    events: int = 0
    problems: list = field(default_factory=list)  # per simulation
    fingerprints: list = field(default_factory=list)  # per simulation

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def setup_round(workload, seed: int, pkg, clock: HostClock) -> float:
    """Scaled time to construct the workload's simulations and inject their
    failures, summed over its simulations."""
    RunConfig, Simulation = pkg["config"].RunConfig, pkg["sim"].Simulation
    configs = [RunConfig.from_flat(workload.sim_config(seed, s))
               for s in workload.sims]
    built = []
    clock.mark()
    for config in configs:
        sim = Simulation(config)
        if workload.kill_at is not None:
            sim.inject_sentinel_failure(workload.kill_at, None)
        built.append(sim)
    return clock.mark()[1]


def execute(workload, seed: int, out: str, pkg, probe: RunProbe,
            speed: HostSpeed | None) -> tuple[Pass, list]:
    """Run the workload once through ``sentinet.cli.main``; time it from the
    written configuration until every output file is on disk. The clock is
    marked between calls and around every ``Simulation.run``; without
    ``speed`` its times are raw."""
    os.makedirs(out)
    calls = []
    for call in range(workload.calls):
        config_path = os.path.join(out, f"call{call}.txt")
        with open(config_path, "w") as fh:
            for key, value in workload.call_config(seed, call).items():
                fh.write(f"{key}={value}\n")
        calls.append(workload.argv(config_path, os.path.join(out, f"call{call}")))
    errors = {}
    result = Pass()
    clock = HostClock(speed)
    probe.clock = clock
    probe.run_s, probe.events = 0.0, 0
    gc.collect()
    clock.start()
    for call, argv in enumerate(calls):
        before = clock.raw_s
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg["cli"].main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        clock.mark()
        result.call_wall_s.append(clock.raw_s - before)
        if code != 0:
            errors[call] = f"sentinet {argv[0]} failed: {code}"
    result.wall_s, result.host_wall_s = clock.scaled_s, clock.raw_s
    result.host_speed = REFERENCE_S / statistics.median(clock.loop_s)
    result.run_s, result.events = probe.run_s, probe.events
    return result, [(errors.get(sim.call),
                     os.path.join(out, f"call{sim.call}", sim.subdir))
                    for sim in workload.sims]


def check(workload, result: Pass, dirs: list, pkg, reference: list | None) -> None:
    """Fill in per-simulation problems and fingerprints of one pass."""
    RunConfig = pkg["config"].RunConfig
    healing = workload.kill_at is not None
    for i, (error, path) in enumerate(dirs):
        problems, fp = [error] if error else [], None
        if not problems:
            try:
                problems = checks.check_run_dir(path, RunConfig, healing)
                fp = checks.fingerprint(path)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable outputs: {type(exc).__name__}: {exc}"]
        if fp is not None and reference and reference[i] is not None \
                and fp != reference[i]:
            problems.append("outputs differ from the first pass")
        result.problems.append("; ".join(problems))
        result.fingerprints.append(fp)


def measure(workload, seed: int, seconds: float, trace: bool, pkg, work: str) -> dict:
    setups: list[float] = []
    patcher = Patcher()
    probe = RunProbe(pkg["sim"].Simulation, patcher)
    passes: list[Pass] = []
    reference = None
    try:
        with HostSpeed() as speed:
            setup_clock = HostClock(speed)
            setup_round(workload, seed, pkg, setup_clock)
            # A pass starts only while it would end less than half a pass
            # after the deadline, so a run lasts about ``seconds``.
            deadline = time.perf_counter() + seconds
            pass_s = 0.0
            while not passes or time.perf_counter() + pass_s / 2.0 < deadline:
                pass_started = time.perf_counter()
                setups += [setup_round(workload, seed, pkg, setup_clock)
                           for _ in range(SETUP_ROUNDS)]
                out = os.path.join(work, f"pass{len(passes)}")
                result, dirs = execute(workload, seed, out, pkg, probe, speed)
                check(workload, result, dirs, pkg, reference)
                shutil.rmtree(out)
                passes.append(result)
                if reference is None and not result.failed:
                    reference = result.fingerprints
                pass_s = time.perf_counter() - pass_started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = per_layer = None
        if trace:
            # No host-speed samples are taken here, so none lands in a span.
            tracer, hooks = Tracer(), Patcher()
            layers.instrument(tracer, hooks, pkg)
            out = os.path.join(work, "traced")
            try:
                traced, dirs = execute(workload, seed, out, pkg, probe, None)
            finally:
                hooks.restore()
            check(workload, traced, dirs, pkg, reference)
            shutil.rmtree(out)
            per_layer = layers.layer_metrics(
                tracer, traced.host_wall_s,
                statistics.median(p.host_wall_s for p in passes))
    finally:
        patcher.restore()
    every = passes + ([traced] if traced else [])
    return {"setups": setups, "passes": passes, "traced": traced,
            "per_layer": per_layer, "peak_rss_mb": peak_rss_mb,
            "attempted": sum(len(p.problems) for p in every),
            "failed": sum(p.failed for p in every),
            "reference": reference}


def end_to_end(m: dict) -> dict:
    passes = m["passes"]
    rates = [p.events / p.run_s for p in passes if p.run_s > 0.0] or [0.0]
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(m["setups"]), "s"),
        "events_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def report(workload, seed: int, m: dict, trace: bool) -> None:
    passes, failed, attempted = m["passes"], m["failed"], m["attempted"]
    ref = m["reference"] or []
    detail = {
        "workload": workload.name, "seed": seed,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_host_wall_s": [p.host_wall_s for p in passes],
        "pass_host_speed": [p.host_speed for p in passes],
        "pass_events": [p.events for p in passes],
        "pass_run_s": [p.run_s for p in passes],
        "pass_call_wall_s": [p.call_wall_s for p in passes],
        "runs_failed_frac": failed / attempted,
        "fingerprint": checks.digest(ref) if ref else None,
        "events_by_kind": [fp["events"] for fp in ref],
        "frames_by_kind": [fp["frames"] for fp in ref],
        "problems": sorted({p for q in m["passes"] + [m["traced"]] if q
                            for p in q.problems if p}),
    }
    if trace:
        metrics = {name: {"value": m["per_layer"][name], "unit": unit}
                   for name, unit, _better, _layer in layers.metric_table()}
        detail["traced_wall_s"] = m["traced"].wall_s
    else:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in end_to_end(m).items()}
    for name, entry in metrics.items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{workload.name} runs failed: {failed} of {attempted}; "
          f"fingerprint {detail['fingerprint']}")
    for problem in detail["problems"]:
        print(f"{workload.name} FAILED: {problem}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds positive")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = load_package(root)
    os.environ.pop("SENTINET_SEED", None)  # the seed comes from --seed only
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench_out", f"{workload.name}-{os.getpid()}")
    try:
        m = measure(workload, args.seed, args.seconds, bool(args.trace), pkg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
    report(workload, args.seed, m, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
