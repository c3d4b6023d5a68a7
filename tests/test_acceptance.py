"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line. Scenario constants are pinned here; nothing is deferred to later
calibration. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import after_each_event, zero_shadow
from sentinet import (LinkControlMode, RunConfig, Simulation, WeibullParams,
                      run_simulation, write_outputs)
from sentinet.channel import compute_lqi
from sentinet.engine import EventKind
from sentinet.metrics import guard_components
from sentinet.protocol import ALLOWED_TRANSITIONS, NodeStatus
from sentinet.weibull import hazard_rate, sample_sleep_time
from test_channel import rx_power_dbm


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def table_one_config(**kw) -> RunConfig:
    # 100 x 100 m field, 50 nodes, LQI threshold 7, powers -10/-5 dBm
    defaults = dict(node_count=50, duration=1000.0, seed=42)
    defaults.update(kw)
    return RunConfig(**defaults)


# -- 1. Weibull correctness ----------------------------------------------------


def test_criterion_01_weibull_correctness():
    started = time.perf_counter()
    pairs = [(0.05, 1.0), (0.05, 2.0), (0.1, 3.0)]
    worst_p = 1.0
    for lam, beta in pairs:
        params = WeibullParams(lam, beta)
        rng = np.random.Generator(np.random.Philox(7))
        draws = rng.random(100_000)
        samples = [sample_sleep_time(params, u) for u in draws if u > 0.0]

        def cdf(t, lam=lam, beta=beta):
            return 1.0 - np.exp(-((lam * np.asarray(t)) ** beta))

        worst_p = min(worst_p, stats.kstest(samples, cdf).pvalue)

    params = WeibullParams(0.05, 2.0)
    rng = np.random.Generator(np.random.Philox(8))
    draws = rng.random(1_000_000)
    mean = np.mean([sample_sleep_time(params, u) for u in draws if u > 0.0])
    expected = (1.0 / 0.05) * math.gamma(1.0 + 1.0 / 2.0)
    rel_err = abs(mean - expected) / expected
    elapsed = time.perf_counter() - started
    report(1, "weibull correctness",
           worst_p > 0.01 and rel_err < 0.01 and elapsed < 5.0,
           f"min KS p={worst_p:.3f}, mean err={rel_err:.4%}, {elapsed:.1f}s")


# -- 2. Hazard formula ---------------------------------------------------------


def test_criterion_02_hazard_formula():
    started = time.perf_counter()
    grid = [(lam, beta, t)
            for lam in (0.05, 1.0)
            for beta in (0.5, 1.0, 2.0, 3.0, 5.0)
            for t in (0.25, 100.0)]
    assert len(grid) == 20
    worst = 0.0
    for lam, beta, t in grid:
        got = hazard_rate(WeibullParams(lam, beta), t)
        # independent evaluation through the exp/log route
        want = beta * lam * math.exp((beta - 1.0) * math.log(t * lam))
        if beta == 1.0:
            want = lam  # constant hazard, any t
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started
    report(2, "hazard formula", worst <= 1e-12 and elapsed < 1.0,
           f"max rel err={worst:.2e}, {elapsed:.2f}s")


# -- 3. State-machine conformance ----------------------------------------------


def test_criterion_03_state_machine_fuzz():
    started = time.perf_counter()
    total_events = 0
    runs = 0
    rng = np.random.Generator(np.random.Philox(99))
    modes = list(LinkControlMode)
    feedbacks = ["off", "global", "cycle"]
    while total_events < 100_000:
        runs += 1
        n = int(rng.integers(4, 22))
        cfg = RunConfig(
            node_count=n,
            field_width=float(rng.integers(40, 120)),
            field_height=float(rng.integers(40, 120)),
            duration=float(rng.integers(60, 220)),
            seed=int(rng.integers(0, 2 ** 31)),
            weibull=WeibullParams(float(rng.choice([0.05, 0.1])),
                                  float(rng.choice([1.0, 2.0, 3.0]))),
            link_control=modes[runs % len(modes)],
            hazard_feedback=feedbacks[runs % len(feedbacks)],
            grid_step=10.0,
            metric_interval=20.0,
        )
        if rng.random() < 0.5:
            cfg = zero_shadow(cfg)
        owned = {NodeStatus.SLEEP: EventKind.SLEEP_EXPIRED,
                 NodeStatus.PROBE: EventKind.WAIT_EXPIRED,
                 NodeStatus.ACTIVE: (EventKind.CONN_TIMER_EXPIRED
                                     if cfg.link_control.uses_conn_timer
                                     else None),
                 NodeStatus.DEAD: None}

        seen_transitions = set()
        power_high = {}

        def on_transition(sim, node, old, new):
            seen_transitions.add((old, new))

        def probe(sim, ev):
            census = {s: 0 for s in NodeStatus}
            for node in sim.nodes.values():
                census[node.status] += 1
                assert node.tx_power in sim.config.radio.power_levels
                prev = power_high.get(node.id, node.tx_power)
                assert node.tx_power >= prev  # escalation never reverses
                power_high[node.id] = max(prev, node.tx_power)
                # the one pending timer the node's status owns, if any
                kind = owned[node.status]
                if kind is None:
                    assert node.timer is None
                else:
                    timer = node.timer
                    assert timer.kind is kind and timer.target == node.id
                    assert not timer.dispatched and not timer.cancelled
            assert sum(census.values()) == sim.config.node_count

        sim = after_each_event(
            Simulation(cfg, transition_hook=on_transition), probe)
        for _ in range(int(rng.integers(0, 3))):
            at = float(rng.uniform(0.0, cfg.duration))
            if rng.random() < 0.5:
                sim.inject_failure(int(rng.integers(0, n)), at)
            else:
                sim.inject_sentinel_failure(at, int(rng.integers(1, 5)))
        result = sim.run()
        assert seen_transitions <= ALLOWED_TRANSITIONS
        total_events += sum(result.summary["totals"]["events"].values())
    elapsed = time.perf_counter() - started
    report(3, "state-machine conformance",
           total_events >= 100_000 and elapsed < 30.0,
           f"{total_events} events over {runs} runs, {elapsed:.1f}s")


# -- 4. Determinism ------------------------------------------------------------


def _redact_wall_time(text: bytes) -> bytes:
    lines = [ln for ln in text.splitlines()
             if b"runtime_wall_s" not in ln]
    return b"\n".join(lines)


def test_criterion_04_determinism(tmp_path):
    blobs = []
    slowest = 0.0
    for attempt in ("a", "b"):
        started = time.perf_counter()
        result = run_simulation(table_one_config())
        slowest = max(slowest, time.perf_counter() - started)
        out = tmp_path / attempt
        paths = write_outputs(result, out)
        blobs.append({
            "metrics": (out / "metrics.csv").read_bytes(),
            "snapshot": (out / "snapshot.json").read_bytes(),
            # wall-clock runtime is physical, not simulated; everything
            # else in the summary must match to the byte
            "summary": _redact_wall_time((out / "summary.json").read_bytes()),
        })
    same = blobs[0] == blobs[1]
    report(4, "determinism", same and slowest < 30.0,
           f"run time {slowest:.1f}s")


# -- 5. Healing ----------------------------------------------------------------


def test_criterion_05_healing():
    # slower wake-up rate keeps most nodes in reserve at kill time, and the
    # sensing radius sits just above the probe reach (17.78 m at -10 dBm) so
    # coverage is commensurate with the guard-spacing rule
    lam, beta = 0.02, 2.0
    deadline_after = (1.0 / lam) * math.log(1000.0) ** (1.0 / beta) + 0.1
    kill_at = 500.0
    deadline = kill_at + deadline_after
    healed = 0
    for seed in range(20):
        cfg = zero_shadow(RunConfig(
            node_count=200, duration=math.ceil(deadline) + 2.0, seed=seed,
            weibull=WeibullParams(lam, beta), sensing_range=18.0,
            grid_step=2.0))
        sim = Simulation(cfg)
        sim.inject_sentinel_failure(kill_at, None)
        rows = sim.run().rows
        pre = next(r["coverage"] for r in rows if r["time_s"] == kill_at - 1.0)
        recovered = any(r["coverage"] >= pre - 0.05 for r in rows
                        if kill_at < r["time_s"] <= deadline)
        healed += recovered
    report(5, "healing after mass guard failure", healed >= 19,
           f"{healed}/20 seeds healed within t_s p99.9 + t_w = "
           f"{deadline_after:.1f}s")


# -- 6. Connectivity -----------------------------------------------------------


def test_criterion_06_connectivity():
    bad = []
    for seed in range(20):
        cfg = zero_shadow(table_one_config(
            seed=seed, link_control=LinkControlMode.PIGGYBACKED,
            grid_step=5.0, metric_interval=10.0))
        sim = Simulation(cfg)
        sim.run()
        guards = [n for n in sim.nodes.values() if n.status is NodeStatus.ACTIVE]
        comps = guard_components([n.x for n in guards], [n.y for n in guards],
                                 [n.tx_power for n in guards], cfg.radio)
        singles = {guards[c[0]].id for c in comps if len(c) == 1}
        top = max(cfg.radio.power_levels)
        for nv in guards:
            if nv.id not in singles:
                continue
            for other in guards:
                if other.id == nv.id:
                    continue
                d = math.hypot(other.x - nv.x, other.y - nv.y)
                if compute_lqi(cfg.radio, rx_power_dbm(cfg.radio, top, d)) \
                        >= cfg.radio.lqi_threshold:
                    bad.append((seed, nv.id, other.id, round(d, 2)))
                    break
    report(6, "guard connectivity (piggybacked)", not bad,
           f"fixable isolated guards: {bad if bad else 'none'} over 20 seeds")


# -- 7. Energy insensitivity to the shape parameter ----------------------------


def test_criterion_07_beta_insensitivity():
    means = []
    for beta in (1.0, 2.0, 3.0):
        totals = []
        for rep in range(5):
            cfg = table_one_config(seed=rep,
                                   weibull=WeibullParams(0.05, beta),
                                   grid_step=5.0, metric_interval=10.0)
            totals.append(run_simulation(cfg)
                          .summary["totals"]["energy"]["total_j"])
        means.append(sum(totals) / len(totals))
    spread = (max(means) - min(means)) / (sum(means) / len(means))
    report(7, "energy steady across beta", spread <= 0.20,
           f"means={[round(m, 1) for m in means]} J, spread={spread:.1%}")


# -- 8. Piggybacked link control beats standalone ------------------------------


def test_criterion_08_link_control_overhead():
    frame_ok = energy_ok = 0
    details = []
    for seed in range(10):
        outcome = {}
        for mode in (LinkControlMode.PIGGYBACKED, LinkControlMode.STANDALONE):
            cfg = table_one_config(seed=seed, link_control=mode,
                                   grid_step=5.0, metric_interval=10.0)
            summary = run_simulation(cfg).summary["totals"]
            outcome[mode] = (sum(summary["messages"].values()),
                             summary["energy"]["total_j"])
        (fp, ep), (fs, es) = (outcome[LinkControlMode.PIGGYBACKED],
                              outcome[LinkControlMode.STANDALONE])
        frame_ok += fp <= fs
        energy_ok += ep <= es
        details.append((fp, fs, round(ep, 1), round(es, 1)))
    report(8, "piggybacked overhead reduction",
           frame_ok == 10 and energy_ok == 10,
           f"frames<= {frame_ok}/10, energy<= {energy_ok}/10")


# -- 9. Scalability ------------------------------------------------------------


def test_criterion_09_scalability():
    # constant density (0.005 nodes/m^2): the field scales with the count
    points = [(50, 100.0), (200, 200.0), (800, 400.0)]
    totals, means = [], []
    for count, side in points:
        cfg = RunConfig(node_count=count, field_width=side, field_height=side,
                        duration=1000.0, seed=0, grid_step=10.0,
                        metric_interval=10.0)
        energy = run_simulation(cfg).summary["totals"]["energy"]
        totals.append(energy["total_j"])
        means.append(energy["mean_per_node_j"])
    spread = (max(means) - min(means)) / (sum(means) / len(means))
    xs = [math.log(c) for c, _ in points]
    ys = [math.log(t) for t in totals]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    report(9, "scalability", spread < 0.20 and slope < 1.3,
           f"mean/node={[round(m, 1) for m in means]} J "
           f"(spread {spread:.1%}), growth exponent {slope:.2f}")


# -- 10. Metric oracles --------------------------------------------------------


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def components(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


def test_criterion_10_metric_oracles():
    from sentinet.metrics import coverage_fraction, sentinel_components

    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(55))
    radio = RunConfig().radio

    for trial in range(100):
        k = int(rng.integers(0, 9))
        nodes = [(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                  rng.random() < 0.8)
                 for _ in range(k)]
        actives = [(x, y) for x, y, active in nodes if active]
        sensing = float(rng.uniform(3.0, 25.0))
        got = coverage_fraction([x for x, _ in actives], [y for _, y in actives],
                                50.0, 50.0, sensing, 1.0)
        covered = 0
        r2 = sensing * sensing
        for i in range(50):
            for j in range(50):
                cx, cy = i + 0.5, j + 0.5
                if any((cx - ax) ** 2 + (cy - ay) ** 2 <= r2
                       for ax, ay in actives):
                    covered += 1
        assert got == covered / 2500.0, f"coverage mismatch on trial {trial}"

    for trial in range(100):
        k = int(rng.integers(0, 30))
        xs, ys, tx = [], [], []
        for _ in range(k):
            xs.append(float(rng.uniform(0, 100)))
            ys.append(float(rng.uniform(0, 100)))
            tx.append(float(rng.choice(radio.power_levels)))
        got = sentinel_components(xs, ys, tx, radio)
        finder = UnionFind(range(k))
        for a in range(k):
            for b in range(a + 1, k):
                d = math.hypot(xs[a] - xs[b], ys[a] - ys[b])
                ab = compute_lqi(radio, rx_power_dbm(radio, tx[a], d))
                ba = compute_lqi(radio, rx_power_dbm(radio, tx[b], d))
                if ab >= radio.lqi_threshold and ba >= radio.lqi_threshold:
                    finder.union(a, b)
        comps = finder.components() if k else []
        want = {"component_count": len(comps),
                "isolated_count": sum(1 for c in comps if len(c) == 1)}
        assert got == want, f"component mismatch on trial {trial}"

    elapsed = time.perf_counter() - started
    report(10, "metric oracles", elapsed < 10.0,
           f"100 coverage + 100 component checks, {elapsed:.1f}s")
