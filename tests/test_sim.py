import dataclasses
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import zero_shadow
from sentinet import (LinkControlMode, RunConfig, Simulation, WeibullParams,
                      link_control, run_simulation, write_outputs)
from sentinet import channel as chan_mod
from sentinet import sim as sim_mod
from sentinet.channel import (Frame, LinkRows, MessageKind, compute_lqi,
                              power_maps, weak_link_floor)
from sentinet.energy import TX
from sentinet.engine import EventKind
from sentinet.metrics import sentinel_components
from sentinet.protocol import NodeStatus
from test_channel import UNICAST_KINDS
from test_golden import GOLDEN_RUNS, fingerprint
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

    sim = Simulation(cfg, post_event_hook=recount)
    sim.inject_failure(0, 40.0)
    sim.inject_sentinel_failure(80.0, 3)
    result = sim.run()
    assert len(checked) == len(result.rows) == 151
    assert [f["kind"] for f in result.failure_log] == ["node", "sentinels"]
    assert checked[-1] == sum(len(f["killed"]) for f in result.failure_log) >= 2
    final = Counter(n.status for n in result.nodes.values())
    assert result.summary["totals"]["census"] == {s.value: final[s]
                                                  for s in NodeStatus}


def invariant_checker(cfg):
    """A post-event hook that checks the documented invariants after every
    event: census, the kept id sets, each node's one timer and its heap
    entries, exactly the frames with a pending delivery on the air, and
    energy that only grows. Returns the hook and a Counter of what it saw."""
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
        assert sum(sim._census) == cfg.node_count
        assert sim._census == [len(by_status[s]) for s in NodeStatus]
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
                # exactly one entry at its current key, or its newest filed
                # entry keyed below that key (moved later since); any other
                # entries are stale ones left by earlier moves
                current = (timer.time, timer.seq)
                [newest] = [key for key in keys[timer] if key[1] == timer.filed]
                assert keys[timer].count(current) == (newest == current)
                assert newest <= current
                assert all(key[1] < timer.filed for key in keys[timer]
                           if key != newest)
                seen["moved"] += newest < current
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
    sim = Simulation(cfg, post_event_hook=check)
    for at, count in sentinel_failures:
        sim.inject_sentinel_failure(at, count)
    result = sim.run()
    assert seen["events"] == sum(result.summary["totals"]["events"].values())
    if cfg.link_control.uses_conn_timer:
        # the checks saw guards, and timers moved in place both ways
        assert seen["guard_checks"] > 0
        assert seen["moved"] > 0 and seen["earlier"] > 0


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
    sim = Simulation(cfg, post_event_hook=check)
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
        sim = Simulation(cfg, post_event_hook=check)
        for at, count in failures:
            sim.inject_sentinel_failure(at, count)
        sim.run()
    assert all(seen[kind] > 0 for kind in MessageKind)


def test_rows_strictly_increasing_in_time():
    result = run_simulation(small_config())
    times = [row["time_s"] for row in result.rows]
    assert times == sorted(set(times))
    assert len(times) == 81  # t = 0 .. 80 inclusive at 1 s cadence


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
    assert node.died_at == pytest.approx(kill_at)
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
    sim = Simulation(small_config(duration=20.0), post_event_hook=lambda s, ev:
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
    [failure] = result.failure_log
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
    assert [f["killed"] for f in result.failure_log] == [[]]


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


def link_verdicts(sim, frame):
    """The (receiver, weak) link evidence that resolving ``frame`` hands to
    the link control, in order."""
    got = []
    original = link_control.on_link_evidence
    link_control.on_link_evidence = lambda node, weak, ctx: got.append(
        (node.id, weak))
    try:
        sim.frames.append(frame)
        sim._resolve_frame(frame)
    finally:
        link_control.on_link_evidence = original
    return got


def standing_guards(sim, *ids):
    for nid in ids:
        node = sim.nodes[nid]
        node.status = NodeStatus.ACTIVE  # bypass protocol: stand guard
        sim.note_transition(node, NodeStatus.SLEEP, NodeStatus.ACTIVE)


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
                  rx_dbm={0: rx}, awake_at_start={0})
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
    sim = Simulation(small_config(radio=radio, energy=energy))
    standing_guards(sim, 0, 2, 3)
    tx, base, floor = -3.1, -12.7, weak_link_floor(radio)
    rx = float.fromhex("-0x1.359999999999ap+6")  # -77.4
    assert (rx - tx) + base < floor <= rx + (base - tx)
    assert compute_lqi(radio, (rx - tx) + base) < radio.lqi_threshold
    for kind, want in ((MessageKind.CONN_REPLY, [0]),
                       (MessageKind.PROBE_REPLY, [0, 2, 3])):
        frame = Frame(kind, 1, 0, tx, 0.0, radio.tx_duration_s,
                      rx_dbm={0: rx, 2: rx, 3: rx}, awake_at_start={0, 2, 3})
        assert link_verdicts(sim, frame) == [(nid, True) for nid in want]


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
        sim._transmit(sim.nodes[0], MessageKind.PROBE, None)
        sim._transmit(sim.nodes[1], MessageKind.PROBE, None)
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
    sim.post_event_hook = note_on_air
    sim.send(sim.nodes[1], MessageKind.PROBE, None, cfg.radio.tx_duration_s)
    sim._transmit(sim.nodes[0], MessageKind.PROBE, None)
    sim.engine.run_until(0.01)
    first, second = on_air
    assert first.end == second.start
    assert first.jammed == second.jammed == set()
    assert delivered == {0: [1, 2], 1: [0, 2]}


def test_summary_carries_run_metadata():
    cfg = small_config()
    summary = run_simulation(cfg).summary
    assert summary["meta"]["seed"] == cfg.seed
    assert summary["meta"]["rng"] == "philox"
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
    original = chan_mod.power_maps

    def spy(links, sender, tx, radio, block):
        blocks[len(block)] += 1
        return original(links, sender, tx, radio, block)

    monkeypatch.setattr(chan_mod, "power_maps", spy)
    digests = {}
    for frames in (1, 3, 10):
        monkeypatch.setattr(sim_mod, "_BLOCK_DRAWS", frames * config.node_count)
        blocks.clear()
        result = run_simulation(config)
        assert max(blocks) == frames
        if frames > 1:  # the rest of a block, remade after a power rise
            assert min(blocks) < frames
        write_outputs(result, tmp_path / str(frames))
        digests[frames] = fingerprint(tmp_path / str(frames))
    assert digests[1] == digests[3] == digests[10]


def test_unshadowed_maps_are_shared_and_left_unchanged():
    # without shadowing a sender's frames at one power share one map; after
    # a whole run, with kills, each still equals a freshly made one
    flat, sentinel_failures = GOLDEN_RUNS["sentinels_killed"]
    config = RunConfig.from_flat({**flat, "duration": "200"})
    assert config.radio.shadowing_sigma_db == 0.0
    sim = Simulation(config)
    for at, count in sentinel_failures:
        sim.inject_sentinel_failure(at, count)
    result = sim.run()
    links = LinkRows(sim._xs, sim._ys, config.radio)
    calm = np.zeros((1, config.node_count))
    shared = [(nid, tx, rx_map) for nid, maps in enumerate(sim._maps)
              for tx, rx_map in maps.items()]
    frames = sum(result.summary["totals"]["messages"].values())
    assert 0 < len(shared) < frames
    assert {tx for _, tx, _ in shared} == set(config.radio.power_levels)
    for nid, tx, rx_map in shared:
        [fresh] = power_maps(links, nid, tx, config.radio, calm)
        assert [(k, v.hex()) for k, v in rx_map.items()] == \
            [(k, v.hex()) for k, v in fresh.items()]
