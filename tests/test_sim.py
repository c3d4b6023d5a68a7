import dataclasses
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import after_each_event, zero_shadow
from sentinet import (LinkControlMode, RunConfig, Simulation, WeibullParams,
                      link_control, run_simulation, write_outputs)
from sentinet import channel as chan_mod
from sentinet.channel import (Frame, LinkRows, MessageKind, compute_lqi,
                              weak_link_floor)
from sentinet.energy import TX
from sentinet.engine import Event, EventKind
from sentinet.metrics import sentinel_components
from sentinet.protocol import NodeStatus
from test_channel import UNICAST_KINDS
from test_golden import GOLDEN_RUNS, GOLDEN_SHA256, fingerprint
from test_metrics import brute_coverage


def small_config(**kw):
    defaults = dict(node_count=10, duration=80.0, seed=3, field_width=60.0,
                    field_height=60.0, grid_step=5.0)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_everyone_deploys_asleep():
    sim = Simulation(small_config())
    assert all(n.status is NodeStatus.SLEEP for n in sim.nodes.values())
    assert all(n.timer.kind is EventKind.SLEEP_EXPIRED and n.timer.target == n.id
               for n in sim.nodes.values())


def test_isolated_node_stands_guard_on_first_wake():
    cfg = RunConfig(node_count=1, duration=120.0, seed=1, grid_step=5.0)
    result = run_simulation(cfg)
    [node] = result.nodes.values()
    assert node.status is NodeStatus.ACTIVE
    assert result.summary["totals"]["messages"]["probe"] == 1
    assert result.summary["totals"]["messages"]["probe_reply"] == 0


def test_positions_and_first_wakes_unchanged_when_nodes_added():
    cfg_small = small_config()
    cfg_big = small_config(node_count=11)
    a = Simulation(cfg_small)
    b = Simulation(cfg_big)
    for nid in a.nodes:
        assert (a.nodes[nid].x, a.nodes[nid].y) == (b.nodes[nid].x, b.nodes[nid].y)
        assert a.nodes[nid].timer.time == b.nodes[nid].timer.time


def test_same_seed_same_outcome():
    cfg = small_config()
    r1 = run_simulation(cfg)
    r2 = run_simulation(cfg)
    assert r1.rows == r2.rows
    assert r1.summary["totals"] == r2.summary["totals"]


def test_different_seed_different_outcome():
    r1 = run_simulation(small_config(seed=3))
    r2 = run_simulation(small_config(seed=4))
    assert r1.rows != r2.rows


def test_census_identity_every_row():
    result = run_simulation(small_config())
    for row in result.rows:
        total = (row["n_sleep"] + row["n_probe"] + row["n_active"]
                 + row["n_dead"])
        assert total == 10


def test_census_and_cached_metrics_match_a_recount():
    # every row's incrementally kept census and cached coverage/components
    # must equal a recount from the nodes, across single and mass kills
    cfg = small_config(node_count=30, duration=150.0)
    checked = []

    def recount(sim, ev):
        if ev.kind is not EventKind.METRIC_SAMPLE:
            return
        row = sim.rows[-1]
        census = Counter(n.status for n in sim.nodes.values())
        assert [row["n_sleep"], row["n_probe"], row["n_active"],
                row["n_dead"]] == [census[s] for s in NodeStatus]
        guards = [n for n in sim.nodes.values() if n.status is NodeStatus.ACTIVE]
        points = [(n.x, n.y) for n in guards]
        assert row["coverage"] == brute_coverage(
            points, cfg.sensing_range, cfg.grid_step, field=cfg.field_width)
        comps = sentinel_components([n.x for n in guards], [n.y for n in guards],
                                    [n.tx_power for n in guards], cfg.radio)
        assert (row["components"], row["isolated"]) == (
            comps["component_count"], comps["isolated_count"])
        checked.append(row["n_dead"])

    sim = after_each_event(Simulation(cfg), recount)
    sim.inject_failure(0, 40.0)
    sim.inject_sentinel_failure(80.0, 3)
    result = sim.run()
    assert len(checked) == len(result.rows) == 151
    failures = result.summary["failures"]
    assert [f["kind"] for f in failures] == ["node", "sentinels"]
    assert checked[-1] == sum(len(f["killed"]) for f in failures) >= 2
    final = Counter(n.status for n in result.nodes.values())
    assert result.summary["totals"]["census"] == {s.value: final[s]
                                                  for s in NodeStatus}


def invariant_checker(cfg):
    """A watcher for ``after_each_event`` that checks the documented
    invariants after every event: census, the kept id sets, each node's one
    timer and its heap entries, exactly the frames with a pending delivery
    on the air, and energy that only grows. Returns the watcher and a
    Counter of what it saw."""
    timer_driven = cfg.link_control.uses_conn_timer
    owned = {NodeStatus.SLEEP: EventKind.SLEEP_EXPIRED,
             NodeStatus.PROBE: EventKind.WAIT_EXPIRED,
             NodeStatus.ACTIVE: (EventKind.CONN_TIMER_EXPIRED if timer_driven
                                 else None),
             NodeStatus.DEAD: None}
    seen = Counter()
    last_energy = [None]

    def check(sim, ev):
        seen["events"] += 1
        by_status = {status: set() for status in NodeStatus}
        for node in sim.nodes.values():
            by_status[node.status].add(node.id)
        census = sim.census()
        assert sum(census) == cfg.node_count
        assert census == [len(by_status[s]) for s in NodeStatus]
        assert sim.energy.status.tolist() == [
            node.status.index for node in sim.nodes.values()]
        guards = by_status[NodeStatus.ACTIVE]
        assert sim._guard_ids == guards
        assert sim._awake_ids == by_status[NodeStatus.PROBE] | guards
        keys = {}
        for time, seq, queued in sim.engine._queue:
            if not queued.cancelled:
                keys.setdefault(queued, []).append((time, seq))
        pending = [queued.payload for queued in keys
                   if queued.kind is EventKind.MSG_DELIVERY]
        assert len(sim.frames) == len(set(sim.frames)) == len(pending)
        assert set(sim.frames) == set(pending)
        assert all(frame.end >= sim.now for frame in sim.frames)
        # every node holds the one pending timer its status owns, and the
        # pending timers in the queue are exactly the nodes' timers
        timers = set()
        for node in sim.nodes.values():
            timer = node.timer
            if owned[node.status] is None:
                assert timer is None
                continue
            assert timer.kind is owned[node.status] and timer.target == node.id
            assert not timer.cancelled and not timer.dispatched
            timers.add(timer)
            if timer.kind is not EventKind.CONN_TIMER_EXPIRED:
                # sleep and wait timers never move
                assert keys[timer] == [(timer.time, timer.seq)]
        assert timers == {queued for queued in keys if not queued.dispatched
                          and queued.kind in owned.values()}
        if timer_driven and guards:
            for gid in guards:
                timer = sim.nodes[gid].timer
                # its newest filed entry is at its time: at its current key
                # once settled, and at or below that key while it owes
                # deferred draws (its time then bounds the settled one);
                # any other entries are stale ones left by earlier moves
                current = (timer.time, timer.seq)
                [newest] = [key for key in keys[timer] if key[1] == timer.filed]
                assert newest == (timer.time, timer.filed) <= current
                assert keys[timer].count(current) == (newest == current)
                assert timer.owed > 0 or newest == current
                assert all(key[1] < timer.filed for key in keys[timer]
                           if key != newest)
                seen["deferred"] += timer.owed > 0
                seen["earlier"] += len(keys[timer]) > 1
            seen["guard_checks"] += 1
        if ev.kind is EventKind.METRIC_SAMPLE:
            spent = sim.energy.node_totals()
            if last_energy[0] is not None:
                assert (spent >= last_energy[0]).all()
            last_energy[0] = spent

    return check, seen


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_invariants_hold_after_every_event(name):
    flat, sentinel_failures = GOLDEN_RUNS[name]
    cfg = RunConfig.from_flat(flat)
    check, seen = invariant_checker(cfg)
    sim = after_each_event(Simulation(cfg), check)
    for at, count in sentinel_failures:
        sim.inject_sentinel_failure(at, count)
    result = sim.run()
    assert seen["events"] == sum(result.summary["totals"]["events"].values())
    if cfg.link_control.uses_conn_timer:
        # the checks saw guards, timers owing a deferred draw, and deferred
        # moves filed below an older entry
        assert seen["guard_checks"] > 0
        assert seen["deferred"] > 0 and seen["earlier"] > 0


@st.composite
def small_runs(draw):
    """A small drawn run in every link mode, shadowing and hazard feedback,
    with single kills and mass kills at drawn times."""
    n = draw(st.integers(2, 16))
    duration = float(draw(st.integers(20, 120)))
    cfg = RunConfig(
        node_count=n,
        field_width=float(draw(st.integers(30, 90))),
        field_height=float(draw(st.integers(30, 90))),
        duration=duration,
        seed=draw(st.integers(0, 2 ** 31)),
        weibull=WeibullParams(draw(st.sampled_from([0.05, 0.1])),
                              draw(st.sampled_from([1.0, 2.0, 3.0]))),
        link_control=draw(st.sampled_from(LinkControlMode)),
        hazard_feedback=draw(st.sampled_from(["off", "global", "cycle"])),
        grid_step=10.0, metric_interval=10.0)
    if draw(st.booleans()):
        cfg = zero_shadow(cfg)
    at = st.floats(0.0, duration)
    kills = draw(st.lists(st.tuples(st.integers(0, n - 1), at), max_size=3))
    mass = draw(st.lists(st.tuples(at, st.none() | st.integers(0, 4)),
                         max_size=2))
    return cfg, kills, mass


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_invariants_hold_under_fuzz(run):
    cfg, kills, mass = run
    check, seen = invariant_checker(cfg)
    sim = after_each_event(Simulation(cfg), check)
    for nid, at in kills:
        sim.inject_failure(nid, at)
    for at, count in mass:
        sim.inject_sentinel_failure(at, count)
    result = sim.run()
    assert seen["events"] == sum(result.summary["totals"]["events"].values())


def test_every_transmission_is_addressed_by_its_kind():
    # the handlers pass each kind's addressing as a constant: probes and
    # connectivity frames carry no addressee, and replies carry an int
    # addressee other than the sender, on every transmission and the frame
    # made from it, over the golden runs and criterion-3-style runs
    runs = [(RunConfig.from_flat(flat), failures)
            for flat, failures in GOLDEN_RUNS.values()]
    for seed, mode, feedback in ((1, LinkControlMode.STANDALONE, "cycle"),
                                 (2, LinkControlMode.PIGGYBACKED, "global"),
                                 (3, LinkControlMode.OFF, "off")):
        runs.append((zero_shadow(RunConfig(
            node_count=18, field_width=60.0, field_height=50.0, duration=200.0,
            seed=seed, weibull=WeibullParams(0.1, 2.0), link_control=mode,
            hazard_feedback=feedback, grid_step=10.0, metric_interval=20.0)),
            ((120.0, 2),)))
    seen = Counter()

    def check(sim, ev):
        if ev.kind is EventKind.TX_START:
            kind, addressee = ev.payload
            sender = ev.target
        elif ev.kind is EventKind.MSG_DELIVERY:
            frame = ev.payload
            kind, addressee, sender = frame.kind, frame.addressee, frame.sender
        else:
            return
        if kind in UNICAST_KINDS:
            assert type(addressee) is int and addressee != sender, ev
        else:
            assert addressee is None, ev
        seen[kind] += 1

    for cfg, failures in runs:
        sim = after_each_event(Simulation(cfg), check)
        for at, count in failures:
            sim.inject_sentinel_failure(at, count)
        sim.run()
    assert all(seen[kind] > 0 for kind in MessageKind)


@pytest.mark.oracle
def test_replies_resolve_as_the_awake_set_intersections(monkeypatch):
    # a unicast frame keeps only whether its addressee was audible and
    # awake at its start, and overhearers reads the guards among its
    # audible receivers; over whole runs both equal the rule they replace
    # (awake at the frame's start and at its end, not jammed), and every
    # guard at a frame's end was awake at its start: over the golden runs,
    # a run with single kills and a guard kill, and one at the least t_w
    # that RunConfig accepts
    tx_s = RunConfig().radio.tx_duration_s
    least = 2.0 * tx_s + 2.0 * (1.05 * tx_s)  # as test_config pins it
    runs = [(RunConfig.from_flat(flat), (), failures)
            for flat, failures in GOLDEN_RUNS.values()]
    runs.append((RunConfig.from_flat({
        "nodes": "60", "field": "80x80", "duration": "150", "seed": "3",
        "lambda": "0.05", "grid_step": "5", "metric_interval": "10"}),
        ((4, 30.0), (17, 60.0), (41, 90.0)), ((100.0, None),)))
    runs.append((RunConfig.from_flat({
        "nodes": "60", "field": "80x80", "duration": "150", "seed": "5",
        "tw": repr(least), "link_control": "piggybacked", "grid_step": "5",
        "metric_interval": "10"}), (), ()))
    awake_at = {}  # frame -> every node awake as it was made
    seen = Counter()
    make_frame, deliver = chan_mod.make_frame, chan_mod.deliver
    overhearers = chan_mod.overhearers

    def before(frame, now_ids):
        # the old rule's candidates: audible and awake at the frame's
        # start, awake at its end, not jammed
        return (frame.rx_dbm.keys() & awake_at[frame]) \
            .intersection(now_ids) - frame.jammed

    def made(kind, sender, addressee, tx, start, rx_dbm, awake_ids, *args):
        frame = make_frame(kind, sender, addressee, tx, start, rx_dbm,
                           awake_ids, *args)
        awake_at[frame] = frozenset(awake_ids)
        return frame

    def delivered(frame, awake_now):
        got = deliver(frame, awake_now)
        heard = before(frame, awake_now)
        if frame.addressee is None:
            assert got == sorted(heard)
        else:
            assert got == ([frame.addressee] if frame.addressee in heard
                           else [])
            seen["unicast"] += 1
            seen["received"] += bool(got)
        assert sim._guard_ids <= awake_at[frame]
        seen["guards"] += len(sim._guard_ids)
        return got

    def overheard(frame, listener_ids):
        got = overhearers(frame, listener_ids)
        assert got == sorted(before(frame, listener_ids) - {frame.addressee})
        seen["overheard"] += len(got)
        return got

    monkeypatch.setattr(chan_mod, "make_frame", made)
    monkeypatch.setattr(chan_mod, "deliver", delivered)
    monkeypatch.setattr(chan_mod, "overhearers", overheard)
    for cfg, kills, mass in runs:
        sim = Simulation(cfg)
        for nid, at in kills:
            sim.inject_failure(nid, at)
        for at, count in mass:
            sim.inject_sentinel_failure(at, count)
        sim.run()
        awake_at.clear()
    assert sim.config.t_w == least
    assert all(seen[key] > 0 for key in ("unicast", "received", "guards",
                                         "overheard"))


def test_rows_strictly_increasing_in_time():
    result = run_simulation(small_config())
    times = [row["time_s"] for row in result.rows]
    assert times == sorted(set(times))
    assert len(times) == 81  # t = 0 .. 80 inclusive at 1 s cadence


@pytest.mark.parametrize("duration, times", [
    (95.0, [10.0 * k for k in range(10)] + [95.0]),
    (5.0, [0.0, 5.0]),  # an interval longer than the run
])
def test_last_row_is_at_the_end_of_the_run(duration, times):
    # off the interval's grid the last row is at `duration`, and the
    # summary's final values and totals read that row
    result = run_simulation(small_config(node_count=30, duration=duration,
                                         metric_interval=10.0))
    assert [row["time_s"] for row in result.rows] == times
    final, totals = result.rows[-1], result.summary["totals"]
    assert [final[k] for k in ("n_sleep", "n_probe", "n_active", "n_dead")] \
        == list(totals["census"].values())
    assert [final[f"msgs_{kind.value}"] for kind in MessageKind] \
        == list(totals["messages"].values())
    assert (final["coverage"], final["components"], final["isolated"]) == (
        totals["coverage_final"], totals["components_final"],
        totals["isolated_final"])
    assert final["energy_total_j"] == pytest.approx(totals["energy"]["total_j"],
                                                    rel=1e-12)
    assert totals["events"]["metric_sample"] == len(times)


def test_energy_row_matches_ledgers():
    result = run_simulation(small_config())
    total = sum(n["energy_j"] for n in result.snapshot["nodes"])
    assert result.rows[-1]["energy_total_j"] == pytest.approx(total)
    assert result.rows[-1]["energy_mean_j"] == pytest.approx(total / 10)


def test_killed_node_goes_silent():
    # node killed before its first wake never transmits and stops accruing
    cfg = zero_shadow(RunConfig(node_count=2, duration=100.0, seed=5,
                                grid_step=5.0))
    sim = Simulation(cfg, positions={0: (30.0, 30.0), 1: (80.0, 80.0)})
    first_wake = sim.nodes[0].timer.time
    kill_at = first_wake / 2
    sim.inject_failure(0, kill_at)
    result = sim.run()
    node = result.nodes[0]
    assert node.status is NodeStatus.DEAD
    assert result.summary["failures"] == [{"time": kill_at, "kind": "node",
                                           "requested": 1, "killed": [0]}]
    assert result.snapshot["nodes"][0]["energy_j"] == pytest.approx(
        cfg.energy.sleep_draw_w * kill_at)
    # the far-away survivor probes alone; the dead node never answered
    assert result.summary["totals"]["messages"]["probe_reply"] == 0


def test_inject_failure_unknown_node():
    sim = Simulation(small_config(node_count=2))
    with pytest.raises(ValueError):
        sim.inject_failure(99, 10.0)


def test_inject_failure_schedules_event():
    seen = []
    sim = after_each_event(Simulation(small_config(duration=20.0)), lambda s, ev:
                           seen.append((ev.time, ev.target, ev.kind)))
    sim.inject_failure(0, 10.0)
    sim.run()
    assert [e for e in seen if e[2] is EventKind.NODE_FAILURE] == \
        [(10.0, 0, EventKind.NODE_FAILURE)]


def test_reserve_takes_over_dead_guard():
    # two nodes in mutual range: one stands guard, the other keeps sleeping;
    # kill the guard and the reserve must take over on a later wake
    cfg = zero_shadow(RunConfig(node_count=2, duration=400.0, seed=7,
                                grid_step=5.0))
    sim = Simulation(cfg, positions={0: (50.0, 50.0), 1: (55.0, 50.0)})
    sim.engine.run_until(150.0)
    guards = [n for n in sim.nodes.values() if n.status is NodeStatus.ACTIVE]
    reserves = [n for n in sim.nodes.values() if n.status is NodeStatus.SLEEP]
    assert len(guards) == 1 and len(reserves) == 1
    sim.inject_failure(guards[0].id, 150.0)
    sim.engine.run_until(cfg.duration)
    assert sim.nodes[guards[0].id].status is NodeStatus.DEAD
    assert sim.nodes[reserves[0].id].status is NodeStatus.ACTIVE


def test_mass_kill_clamps_to_live_guards():
    cfg = small_config(duration=120.0)
    sim = Simulation(cfg)
    sim.inject_sentinel_failure(100.0, count=10_000)
    result = sim.run()
    [failure] = result.summary["failures"]
    assert failure["clamped"] is True
    assert all(result.nodes[nid].status is NodeStatus.DEAD
               for nid in failure["killed"])


def test_negative_sentinel_kill_count_rejected():
    # a negative count would slice off the highest-id guards and kill the rest
    sim = Simulation(small_config())
    with pytest.raises(ValueError, match="count"):
        sim.inject_sentinel_failure(50.0, count=-1)
    sim.inject_sentinel_failure(50.0, count=0)
    result = sim.run()
    assert [f["killed"] for f in result.summary["failures"]] == [[]]


def test_link_control_off_sends_no_conn_traffic():
    cfg = small_config(link_control=LinkControlMode.OFF)
    result = run_simulation(cfg)
    messages = result.summary["totals"]["messages"]
    assert messages["conn"] == 0
    assert messages["conn_reply"] == 0
    assert all(n.tx_power == -10.0 for n in result.nodes.values())


def test_piggybacked_reduces_conn_traffic_vs_standalone():
    results = {}
    for mode in (LinkControlMode.PIGGYBACKED, LinkControlMode.STANDALONE):
        cfg = RunConfig(node_count=25, duration=300.0, seed=11,
                        grid_step=5.0, link_control=mode)
        results[mode] = run_simulation(cfg).summary["totals"]["messages"]
    piggy = results[LinkControlMode.PIGGYBACKED]
    alone = results[LinkControlMode.STANDALONE]
    assert piggy["conn"] < alone["conn"]
    assert sum(piggy.values()) <= sum(alone.values())


def test_a_run_where_every_lqi_qualifies_finishes():
    # lqi_threshold=0 puts the weak-link floor at -inf: no reply is weak
    # and every pair of guards is linked, and the link rows are cut for
    # frames alone
    cfg = RunConfig.from_flat({"nodes": "30", "field": "80x80",
                               "duration": "100", "seed": "3",
                               "lqi_threshold": "0", "grid_step": "5",
                               "metric_interval": "10"})
    result = run_simulation(cfg)
    assert result.rows[-1]["time_s"] == cfg.duration
    assert all(row["components"] <= 1 for row in result.rows)


def link_verdicts(sim, frame):
    """The link evidence that resolving ``frame`` hands to the link control,
    in one call for the whole frame: each receiving id, in order, with
    whether the link control raised its guard's power."""
    calls = []
    original = link_control.on_link_evidence

    def spy(ids, frame, ctx):
        before = [ctx.nodes[rid].tx_power for rid in ids]
        original(ids, frame, ctx)
        calls.append([(rid, ctx.nodes[rid].tx_power != power)
                      for rid, power in zip(ids, before)])

    link_control.on_link_evidence = spy
    try:
        sim.frames.append(frame)
        sim._resolve_frame(Event(sim.now, -1, None, EventKind.MSG_DELIVERY, frame))
    finally:
        link_control.on_link_evidence = original
    assert len(calls) <= 1
    return calls[0] if calls else []


def standing_guards(sim, *ids):
    """Nodes ``ids`` stand guard at the base power, each with its armed
    connectivity timer."""
    for nid in ids:
        node = sim.nodes[nid]
        node.status = NodeStatus.ACTIVE  # bypass protocol: stand guard
        sim.note_transition(node, NodeStatus.SLEEP, NodeStatus.ACTIVE)
        sim.on_became_active(node)


@settings(max_examples=200, deadline=None)
@given(threshold=st.integers(1, 10), tx=st.sampled_from((-10.0, -5.0)),
       offset=st.floats(-2.0, 2.0), ulps=st.integers(-3, 3))
def test_weak_link_verdict_matches_the_normalized_lqi(threshold, tx, offset, ulps):
    # the verdict a guard acts on is the LQI of the reply's power,
    # normalized to the base level, against the threshold; powers land
    # around the floor, down to single ulps
    radio = dataclasses.replace(RunConfig().radio, lqi_threshold=threshold)
    sim = Simulation(small_config(radio=radio))
    standing_guards(sim, 0)
    base = radio.power_levels[0]
    rx = weak_link_floor(radio) - base + tx + offset
    for _ in range(abs(ulps)):
        rx = math.nextafter(rx, math.copysign(math.inf, ulps))
    frame = Frame(MessageKind.CONN_REPLY, 1, 0, tx, 0.0, radio.tx_duration_s,
                  rx_dbm={0: rx}, addressee_awake=True)
    lqi = compute_lqi(radio, rx - tx + base)
    assert link_verdicts(sim, frame) == [(0, lqi < threshold)]


@pytest.mark.oracle
def test_weak_link_verdict_normalizes_as_rx_minus_tx_plus_base():
    # a reply whose normalized power (rx - tx) + base rounds below the
    # floor, while rx + (base - tx) rounds onto it: the order is pinned, for
    # the addressed guard and for every guard overhearing a probe reply
    radio = dataclasses.replace(RunConfig().radio, power_levels=(-12.7, -3.1))
    energy = dataclasses.replace(RunConfig().energy,
                                 tx_draw_w=((-12.7, 0.040), (-3.1, 0.046)))
    tx, base, floor = -3.1, -12.7, weak_link_floor(radio)
    rx = float.fromhex("-0x1.359999999999ap+6")  # -77.4
    assert (rx - tx) + base < floor <= rx + (base - tx)
    assert compute_lqi(radio, (rx - tx) + base) < radio.lqi_threshold
    for kind, want in ((MessageKind.CONN_REPLY, [0]),
                       (MessageKind.PROBE_REPLY, [0, 2, 3])):
        sim = Simulation(small_config(radio=radio, energy=energy))
        standing_guards(sim, 0, 2, 3)
        frame = Frame(kind, 1, 0, tx, 0.0, radio.tx_duration_s,
                      rx_dbm={0: rx, 2: rx, 3: rx}, addressee_awake=True)
        assert link_verdicts(sim, frame) == [(nid, True) for nid in want]


def transmit_now(sim, nid, kind):
    """The node starts a ``kind`` broadcast now, as its TX_START event would."""
    sim._transmit(Event(sim.now, -1, nid, EventKind.TX_START, (kind, None)))


def test_colliding_senders_still_pay_for_their_frames():
    # two mutually-audible nodes transmitting in the same window: nothing is
    # delivered, yet both counters and both tx ledgers move
    cfg = zero_shadow(RunConfig(node_count=2, duration=10.0, seed=1,
                                grid_step=5.0))
    sim = Simulation(cfg, positions={0: (50.0, 50.0), 1: (55.0, 50.0)})
    delivered = []
    import sentinet.channel as chan_mod
    original = chan_mod.deliver

    def spy(frame, awake_now):
        got = original(frame, awake_now)
        delivered.extend(got)
        return got

    chan_mod.deliver = spy
    try:
        for node in sim.nodes.values():
            node.status = NodeStatus.ACTIVE  # bypass protocol: force overlap
            sim.note_transition(node, NodeStatus.SLEEP, NodeStatus.ACTIVE)
        transmit_now(sim, 0, MessageKind.PROBE)
        transmit_now(sim, 1, MessageKind.PROBE)
        sim.engine.run_until(1.0)
    finally:
        chan_mod.deliver = original
    assert delivered == []
    assert sim.counters[MessageKind.PROBE.index] == 2
    for node in sim.nodes.values():
        assert sim.energy.joules[TX, node.id] == pytest.approx(
            cfg.energy.tx_draw(-10.0) * cfg.radio.tx_duration_s)


def test_frame_starting_as_another_ends_does_not_collide(monkeypatch):
    # node 1's transmission starts at the instant node 0's frame ends, and
    # runs before that frame's delivery: both frames are on the air then,
    # yet neither jams the other, and each reaches the two other nodes
    cfg = zero_shadow(RunConfig(node_count=3, duration=10.0, seed=1,
                                grid_step=5.0))
    sim = Simulation(cfg, positions={0: (50.0, 50.0), 1: (55.0, 50.0),
                                     2: (52.0, 50.0)})
    delivered, on_air = {}, []
    import sentinet.channel as chan_mod
    original = chan_mod.deliver

    def spy(frame, awake_now):
        got = original(frame, awake_now)
        if frame.kind is MessageKind.PROBE:
            delivered[frame.sender] = got
        return got

    def note_on_air(sim, ev):
        if ev.kind is EventKind.TX_START and not on_air:
            on_air.extend(sim.frames)

    monkeypatch.setattr(chan_mod, "deliver", spy)
    for node in sim.nodes.values():
        node.status = NodeStatus.ACTIVE  # bypass protocol: stay awake
        sim.note_transition(node, NodeStatus.SLEEP, NodeStatus.ACTIVE)
    after_each_event(sim, note_on_air)
    sim.send(sim.nodes[1], MessageKind.PROBE, None, cfg.radio.tx_duration_s)
    transmit_now(sim, 0, MessageKind.PROBE)
    sim.engine.run_until(0.01)
    first, second = on_air
    assert first.end == second.start
    assert first.jammed == second.jammed == set()
    assert delivered == {0: [1, 2], 1: [0, 2]}


def test_summary_carries_run_metadata():
    cfg = small_config()
    summary = run_simulation(cfg).summary
    assert summary["meta"]["seed"] == cfg.seed
    assert summary["meta"]["rng"] == "philox3"
    assert summary["meta"]["config"] == cfg.config_hash()
    assert summary["config"] == cfg.to_flat()
    assert set(summary["totals"]) >= {"energy", "messages", "events", "census"}


def test_probe_counters_track_transmissions():
    result = run_simulation(small_config())
    messages = result.summary["totals"]["messages"]
    assert messages["probe"] >= 1
    final = result.rows[-1]
    assert final["msgs_probe"] == messages["probe"]
    assert final["msgs_probe_reply"] == messages["probe_reply"]


def test_healing_report_from_rows():
    from sentinet import healing_report

    rows = [{"time_s": float(t),
             "coverage": 0.9 if t < 10 else (0.2 if t < 14 else 0.88)}
            for t in range(20)]
    failures = [{"time": 10.0, "kind": "sentinels", "killed": [1, 2]}]
    [entry] = healing_report(rows, failures, epsilon=0.05)
    assert entry["pre_coverage"] == 0.9
    assert entry["recovered_at"] == 14.0
    assert entry["recovery_time"] == 4.0


def test_healing_report_unrecovered_is_none():
    from sentinet import healing_report

    rows = [{"time_s": float(t), "coverage": 0.9 if t < 10 else 0.3}
            for t in range(20)]
    [entry] = healing_report(rows, [{"time": 10.0}], epsilon=0.05)
    assert entry["recovered_at"] is None
    assert entry["recovery_time"] is None


def test_dropped_simulations_are_freed_without_the_cycle_collector():
    # a dropped run must not stay alive as cyclic garbage (its heap, RNGs
    # and frames) until the next full collection, finished or not
    gc.disable()
    try:
        sim = Simulation(small_config())
        finished = weakref.ref(sim)
        result = sim.run()
        del sim, result
        assert finished() is None
        never_run = weakref.ref(Simulation(small_config()))
        assert never_run() is None
    finally:
        gc.enable()


# -- the engine's dispatch table -------------------------------------------------


def every_kind_config():
    """A small run that dispatches events of every kind, with a node killed
    at 40 s."""
    return small_config(link_control=LinkControlMode.STANDALONE)


def run_every_kind(sim):
    sim.inject_failure(0, 40.0)
    result = sim.run()
    assert set(result.summary["totals"]["events"]) == {k.value for k in EventKind}
    return result


def test_every_kind_reaches_its_own_handler(monkeypatch):
    assert {kind: fn.__name__ for kind, fn in Simulation._HANDLERS.items()} == {
        EventKind.SLEEP_EXPIRED: "_sleep_expired",
        EventKind.WAIT_EXPIRED: "_wait_expired",
        EventKind.CONN_TIMER_EXPIRED: "_conn_timer_expired",
        EventKind.TX_START: "_transmit",
        EventKind.MSG_DELIVERY: "_resolve_frame",
        EventKind.NODE_FAILURE: "_handle_failure",
        EventKind.METRIC_SAMPLE: "_sample_metrics",
    }
    reached = Counter()

    def spied(kind, fn):
        def spy(sim, ev):
            assert ev.kind is kind
            reached[kind.value] += 1
            fn(sim, ev)
        return spy

    monkeypatch.setattr(Simulation, "_HANDLERS", {
        kind: spied(kind, fn) for kind, fn in Simulation._HANDLERS.items()})
    result = run_every_kind(Simulation(every_kind_config()))
    assert reached == result.summary["totals"]["events"]


def test_a_wrapped_engine_handler_sees_each_event_once_in_order():
    # two watchers, one wrapped around the other: each sees every event
    # once, in (time, seq) order, so wrapping later keeps the first watcher
    sim, runs = Simulation(every_kind_config()), []
    for _ in range(2):
        seen = []

        def watch(sim, ev, seen=seen):
            assert sim.now == ev.time and ev.dispatched
            seen.append((ev.time, ev.seq, ev.kind.value, ev.target))

        after_each_event(sim, watch)
        runs.append(seen)
    result = run_every_kind(sim)
    keys = [(time, seq) for time, seq, _, _ in runs[0]]
    assert keys == sorted(set(keys))
    assert Counter(kind for _, _, kind, _ in runs[0]) == \
        result.summary["totals"]["events"]
    assert runs[0] == runs[1]


def test_the_table_holds_the_plain_handlers():
    sim = Simulation(small_config())
    plain = [Simulation._HANDLERS[kind] for kind in EventKind]
    assert all(entry is fn for entry, fn in zip(sim.engine._handlers, plain))


def test_an_assigned_engine_handler_sees_every_event(tmp_path):
    # a callable read from engine.handler, wrapped and assigned back, routes
    # every kind through the wrapper and keeps the output bytes
    flat, sentinel_failures = GOLDEN_RUNS["sentinels_killed"]
    sim = Simulation(RunConfig.from_flat(flat))
    for at, count in sentinel_failures:
        sim.inject_sentinel_failure(at, count)
    view, seen = sim.engine.handler, Counter()

    def wrapped(ev):
        seen[ev.kind.value] += 1
        view(ev)

    sim.engine.handler = wrapped
    result = sim.run()
    assert seen == result.summary["totals"]["events"]
    write_outputs(result, tmp_path)
    assert fingerprint(tmp_path) == GOLDEN_SHA256["sentinels_killed"]


def test_outputs_do_not_depend_on_the_shadowing_block(monkeypatch, tmp_path):
    # a sender draws the shadowing of its next K frames at once; the output
    # bytes are the same for any K, here through power rises that remake
    # the maps of a block's frames still pending
    config = RunConfig.from_flat({"nodes": "50", "field": "100x100",
                                  "duration": "200", "seed": "11",
                                  "link_control": "piggybacked",
                                  "grid_step": "5"})
    assert config.radio.shadowing_sigma_db == 4.0
    blocks = Counter()  # frames per block made into maps
    original = LinkRows.maps

    def spy(links, sender, tx, block):
        blocks[len(block)] += 1
        return original(links, sender, tx, block)

    monkeypatch.setattr(LinkRows, "maps", spy)
    digests = {}
    for frames in (1, 3, 10):
        sim = Simulation(config)
        sim._links._block_frames = frames
        blocks.clear()
        result = sim.run()
        assert max(blocks) == frames
        if frames > 1:  # the rest of a block, remade after a power rise
            assert min(blocks) < frames
        write_outputs(result, tmp_path / str(frames))
        digests[frames] = fingerprint(tmp_path / str(frames))
    assert digests[1] == digests[3] == digests[10]


def test_unshadowed_maps_are_shared_and_left_unchanged(monkeypatch):
    # without shadowing a sender's frames at one power share one map, made
    # with no draws; after a whole run, with kills, each still equals a
    # freshly made one
    flat, sentinel_failures = GOLDEN_RUNS["sentinels_killed"]
    config = RunConfig.from_flat({**flat, "duration": "200"})
    assert config.radio.shadowing_sigma_db == 0.0
    sent = {}  # (sender, power) -> the maps its frames carried
    original = chan_mod.make_frame

    def spy(kind, sender, addressee, tx, start, rx_dbm, *args):
        sent.setdefault((sender, tx), []).append(rx_dbm)
        return original(kind, sender, addressee, tx, start, rx_dbm, *args)

    monkeypatch.setattr(chan_mod, "make_frame", spy)
    sim = Simulation(config)
    for at, count in sentinel_failures:
        sim.inject_sentinel_failure(at, count)
    result = sim.run()
    links = LinkRows(sim._xs, sim._ys, config.radio)
    frames = sum(result.summary["totals"]["messages"].values())
    assert sum(map(len, sent.values())) == frames
    assert 0 < len(sent) < frames
    assert {tx for _, tx in sent} == set(config.radio.power_levels)
    for (nid, tx), maps in sent.items():
        assert all(rx_map is maps[0] for rx_map in maps)
        [fresh] = links.maps(nid, tx)
        assert [(k, v.hex()) for k, v in maps[0].items()] == \
            [(k, v.hex()) for k, v in fresh.items()]
    # each sender keeps the map at its current power, never spent
    for nid, pending in enumerate(sim._links._pending):
        if pending is None:
            assert not any(sender == nid for sender, _ in sent)
            continue
        tx, block, maps = pending
        assert tx == sim.nodes[nid].tx_power
        assert block is None
        assert len(maps) == 1 and maps[0] is sent[nid, tx][0]
