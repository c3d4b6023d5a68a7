"""Full simulation wiring: nodes, channel, protocol callbacks, outputs.

One Simulation owns one run. It implements the context surface the protocol
and link-control handlers expect (time, randomness, timers, transmissions,
transitions) and puts its handler of each event kind in the engine's
dispatch table once, so all node behaviour is serialized through the
engine's event loop; anything that watches dispatch wraps ``engine.handler``.
The draws and timers of that surface are the engine's own methods, bound once.
Frames get their power maps, shadowing included, from ``channel.LinkRows``.
What a metrics sample reads is kept as nodes change status or power: the
status census, the coverage grid and the guard graph.
"""

from __future__ import annotations

import os
import time as _wall
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import channel as chan
from . import energy as energy_mod
from . import link_control
from . import metrics as metrics_mod
from . import protocol
from .config import RunConfig
from .engine import RNG_NAME, Engine, Event, EventKind
from .protocol import Node, NodeStatus

HEALING_EPSILON = 0.05  # coverage this far below its pre-failure value is healed


@dataclass
class RunResult:
    config: RunConfig
    nodes: dict[int, Node]
    rows: list[dict]
    summary: dict
    snapshot: dict  # {"time", "nodes"}: the final node states


class Simulation:
    def __init__(self, config: RunConfig, transition_hook=None,
                 positions: Optional[dict] = None):
        """``positions`` pins node placement (id -> (x, y)) for scenario
        construction; by default nodes deploy uniformly at random."""
        self.config = config
        # held weakly: else every dropped Simulation (heap, RNGs, frames)
        # would be cyclic garbage until the next full collection
        self.engine = Engine(config.seed, config.node_count, owner=self)
        # the handlers pass absolute times, so their draws and timers are
        # the engine's methods, bound through the Engine class (a method
        # wrapped on the class is the one called)
        self.draw = self.engine.uniform
        self.schedule_event = self.engine.schedule
        self.cancel_event = self.engine.cancel
        self.defer_event = self.engine.defer
        # a deferred timer settles by the rule its t_c is drawn by
        self.engine.deferrable(EventKind.CONN_TIMER_EXPIRED, "conn",
                               partial(link_control.t_c, config))
        for kind, fn in self._HANDLERS.items():
            self.engine.handle(kind, fn)
        self.transition_hook = transition_hook
        self.frames: list[chan.Frame] = []  # on the air: delivery pending
        self.counters = [0] * len(chan.MessageKind)  # by MessageKind.index
        self.rows: list[dict] = []
        self.failure_log: list[dict] = []
        # every reply's link is judged against these, made once per run
        self.base_power = config.radio.power_levels[0]
        self.weak_floor = chan.weak_link_floor(config.radio)
        self._piggyback = config.link_control.uses_piggyback

        if positions is None:
            # node k at draws 2k (x) and 2k+1 (y): one block, the same values
            # as scalar draws in that order
            drawn = self.engine.rng(None, "deploy").random(2 * config.node_count)
            self._xs = drawn[0::2] * config.field_width
            self._ys = drawn[1::2] * config.field_height
        else:
            self._xs, self._ys = np.array(
                [positions[nid] for nid in range(config.node_count)], dtype=float).T.copy()
        self.nodes: dict[int, Node] = {
            nid: Node(id=nid, x=x, y=y, tx_power=self.base_power,
                      weibull=config.weibull)
            for nid, (x, y) in enumerate(zip(self._xs.tolist(), self._ys.tolist()))}
        self._links = chan.LinkRows(self._xs, self._ys, config.radio,
                                    partial(self.engine.rng, stream="shadow"))
        self._awake_ids: set[int] = set()
        self._guard_ids: set[int] = set()
        self._graph = metrics_mod.GuardGraph(self._links, self.weak_floor)
        # how many nodes are in each status, by NodeStatus.index
        self._census = [0] * len(NodeStatus)
        self._census[NodeStatus.SLEEP.index] = config.node_count
        self.energy = energy_mod.EnergyLedger(config.energy, config.node_count)
        self._coverage = metrics_mod.CoverageGrid(
            config.field_width, config.field_height, config.sensing_range,
            config.grid_step)
        # every node's first sleep draw, with its next three, in one pass
        self.engine.prime("sleep")
        for node in self.nodes.values():
            protocol.on_deploy(node, self)
        self._schedule_sample(0)

    # -- context surface used by protocol/link_control ---------------------

    @property
    def now(self) -> float:
        return self.engine.clock

    def send(self, node: Node, kind: chan.MessageKind,
             addressee: Optional[int], delay: float) -> None:
        self.schedule_event(self.now + delay, node.id, EventKind.TX_START,
                            payload=(kind, addressee))

    def note_transition(self, node: Node, old: NodeStatus, new: NodeStatus) -> None:
        # the node accrues at its old status up to now, then at the new one
        energy_mod.accrue_node(self.energy, node.id, self.now)
        energy_mod.set_status(self.energy, node.id, new)
        self._census[old.index] -= 1
        self._census[new.index] += 1
        if new in (NodeStatus.PROBE, NodeStatus.ACTIVE):
            self._awake_ids.add(node.id)
        else:
            self._awake_ids.discard(node.id)
        if new is NodeStatus.ACTIVE:
            self._guard_ids.add(node.id)
            self._coverage.add(node.x, node.y)
            self._graph.add(node.id, node.tx_power)
        elif old is NodeStatus.ACTIVE:
            self._guard_ids.discard(node.id)
            self._coverage.remove(node.x, node.y)
            self._graph.remove(node.id)
        if self.transition_hook is not None:
            self.transition_hook(self, node, old, new)

    def on_became_active(self, node: Node) -> None:
        link_control.on_active_entered(node, self)

    def note_power_rise(self, node: Node) -> None:
        self._graph.rise(node.id, node.tx_power)

    # -- failure injection --------------------------------------------------

    def inject_failure(self, node_id: int, at: float) -> Event:
        if node_id not in self.nodes:
            raise ValueError(f"unknown node id {node_id}")
        return self.engine.schedule(at, node_id, EventKind.NODE_FAILURE)

    def inject_sentinel_failure(self, at: float, count: Optional[int] = None) -> Event:
        """Kill the `count` lowest-id guards at `at` (all guards when None)."""
        if count is not None and count < 0:
            raise ValueError(f"sentinel kill count must be >= 0, got {count}")
        return self.engine.schedule(at, None, EventKind.NODE_FAILURE,
                                    payload={"count": count})

    # -- event routing ------------------------------------------------------

    def _sleep_expired(self, ev: Event) -> None:
        protocol.on_sleep_expired(self.nodes[ev.target], self)

    def _wait_expired(self, ev: Event) -> None:
        protocol.on_wait_expired(self.nodes[ev.target], self)

    def _conn_timer_expired(self, ev: Event) -> None:
        link_control.on_conn_timer_expired(self.nodes[ev.target], self)

    # -- radio --------------------------------------------------------------

    def _transmit(self, ev: Event) -> None:
        node = self.nodes[ev.target]
        if node.status is NodeStatus.DEAD:
            return  # fail-stop: queued transmissions die with the node
        kind, addressee = ev.payload
        nid, tx, radio = node.id, node.tx_power, self.config.radio
        self.counters[kind.index] += 1
        energy_mod.add_tx(self.energy, nid, tx, radio.tx_duration_s)
        frame = chan.make_frame(kind, nid, addressee, tx, self.engine.clock,
                                self._links.next_map(nid, tx), self._awake_ids,
                                radio, self.frames)
        self.frames.append(frame)
        self.engine.schedule(frame.end, None, EventKind.MSG_DELIVERY, payload=frame)

    def _resolve_frame(self, ev: Event) -> None:
        frame = ev.payload
        self.frames.remove(frame)
        kind, nodes = frame.kind, self.nodes
        received = chan.deliver(frame, self._awake_ids)
        if kind is chan.MessageKind.PROBE:
            for rid in received:
                protocol.on_probe_received(nodes[rid], frame, self)
            return
        if kind is chan.MessageKind.CONN:
            for rid in received:
                link_control.on_conn_received(nodes[rid], frame, self)
            return
        # A reply reaches its addressee at most: a probe answer to a prober,
        # else link evidence for the addressed guard, and for a probe reply
        # that evidence only in piggybacked mode, then for its overhearers;
        # link control judges the link of each guard among them.
        if kind is chan.MessageKind.PROBE_REPLY:
            if received and nodes[received[0]].status is NodeStatus.PROBE:
                protocol.on_probe_reply_received(nodes[received[0]], frame, self)
                received = []
            if not self._piggyback:
                return
            received = received + chan.overhearers(frame, self._guard_ids)
        if received:
            link_control.on_link_evidence(received, frame, self)

    # -- failures -----------------------------------------------------------

    def _handle_failure(self, ev: Event) -> None:
        if ev.target is not None:
            node = self.nodes[ev.target]
            killed = [node.id] if node.alive else []
            protocol.mark_dead(node, self)
            self.failure_log.append({"time": self.now, "kind": "node",
                                     "requested": 1, "killed": killed})
            return
        count = ev.payload["count"]
        guards = sorted(self._guard_ids)
        victims = guards if count is None else guards[:count]
        for nid in victims:
            protocol.mark_dead(self.nodes[nid], self)
        self.failure_log.append({
            "time": self.now, "kind": "sentinels",
            "requested": count if count is not None else "all",
            "killed": victims,
            "clamped": bool(count is not None and count > len(guards)),
        })

    # -- metrics ------------------------------------------------------------

    def _schedule_sample(self, index: int) -> None:
        # the last sample is at the end of the run, on the interval's grid or not
        at = min(index * self.config.metric_interval, self.config.duration)
        self.engine.schedule(at, None, EventKind.METRIC_SAMPLE, payload=index)

    def census(self) -> list[int]:
        """How many nodes are in each status, by ``NodeStatus.index``."""
        return list(self._census)

    def snapshot(self) -> dict:
        """The current node states, as written to snapshot.json."""
        spent = self.energy.node_totals().tolist()
        return {"time": self.now,
                "nodes": [{"id": n.id, "x": n.x, "y": n.y,
                           "status": n.status.value, "tx_dbm": n.tx_power,
                           "energy_j": spent[n.id]}
                          for n in self.nodes.values()]}

    def _sample_metrics(self, ev: Event) -> None:
        index = ev.payload
        energy_mod.accrue(self.energy, self.now)
        components, isolated = self._graph.counts()
        totals = energy_mod.summarize(self.energy)
        # both lists run in their enum's declaration order
        n_sleep, n_probe, n_active, n_dead = self._census
        probe, probe_reply, conn, conn_reply = self.counters
        self.rows.append({
            "time_s": self.now,
            "n_sleep": n_sleep,
            "n_probe": n_probe,
            "n_active": n_active,
            "n_dead": n_dead,
            "coverage": self._coverage.fraction(),
            "components": components,
            "isolated": isolated,
            "msgs_probe": probe,
            "msgs_probe_reply": probe_reply,
            "msgs_conn": conn,
            "msgs_conn_reply": conn_reply,
            "energy_total_j": totals["total_j"],
            "energy_mean_j": totals["mean_per_node_j"],
        })
        if self.now < self.config.duration:
            self._schedule_sample(index + 1)

    # -- run ----------------------------------------------------------------

    def run(self) -> RunResult:
        started = _wall.perf_counter()
        dispatched = self.engine.run_until(self.config.duration)
        energy_mod.accrue(self.energy, self.now)
        wall = _wall.perf_counter() - started
        totals = energy_mod.summarize(self.energy)
        final_row = self.rows[-1]  # the sample at duration
        summary = {
            "meta": {"seed": self.config.seed, "config": self.config.config_hash(),
                     "rng": RNG_NAME},
            "seed": self.config.seed,
            "config": self.config.to_flat(),
            "totals": {
                "energy": totals,
                "messages": {k.value: self.counters[k.index]
                             for k in chan.MessageKind},
                "events": dict(sorted((k.value, n) for k, n in dispatched.items())),
                "census": dict(zip([s.value for s in NodeStatus], self.census())),
                "coverage_final": final_row["coverage"],
                "components_final": final_row["components"],
                "isolated_final": final_row["isolated"],
            },
            "failures": self.failure_log,
            "runtime_wall_s": wall,
        }
        return RunResult(config=self.config, nodes=self.nodes, rows=self.rows,
                         summary=summary, snapshot=self.snapshot())

    # each kind's handler, in EventKind order
    _HANDLERS = dict(zip(EventKind, (
        _sleep_expired, _wait_expired, _conn_timer_expired, _transmit,
        _resolve_frame, _handle_failure, _sample_metrics)))


def healing_report(rows: list[dict], failure_log: list[dict],
                   epsilon: float = HEALING_EPSILON) -> list[dict]:
    """Per failure: time until coverage returns to within epsilon of the
    last pre-failure sample."""
    report = []
    for failure in failure_log:
        t_fail = failure["time"]
        before = [r for r in rows if r["time_s"] < t_fail]
        pre = before[-1]["coverage"] if before else 0.0
        recovered_at = next((row["time_s"] for row in rows if row["time_s"] > t_fail
                             and row["coverage"] >= pre - epsilon), None)
        report.append({**failure, "pre_coverage": pre, "recovered_at": recovered_at,
                       "recovery_time": (None if recovered_at is None
                                         else recovered_at - t_fail)})
    return report


def run_simulation(config: RunConfig, failures=(),
                   sentinel_failures=()) -> RunResult:
    """Build, fault-inject, and run one simulation to completion.

    ``failures``: iterable of (node_id, time); ``sentinel_failures``:
    iterable of (time, count-or-None).
    """
    sim = Simulation(config)
    for node_id, at in failures:
        sim.inject_failure(node_id, at)
    for at, count in sentinel_failures:
        sim.inject_sentinel_failure(at, count)
    return sim.run()


def write_outputs(result: RunResult, out_dir, healing_epsilon: Optional[float] = None) -> dict:
    """Write metrics.csv, snapshot.json, summary.json, config.txt (and
    healing.json when fault injection ran). Returns the path map."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    meta_dict = result.summary["meta"]
    meta = metrics_mod.meta_line(meta_dict["seed"], meta_dict["config"],
                                 meta_dict["rng"])
    paths = {
        "metrics": os.path.join(out_dir, "metrics.csv"),
        "snapshot": os.path.join(out_dir, "snapshot.json"),
        "summary": os.path.join(out_dir, "summary.json"),
        "config": os.path.join(out_dir, "config.txt"),
    }
    metrics_mod.write_metrics_csv(paths["metrics"], result.rows, meta)
    metrics_mod.write_json(paths["snapshot"], {"meta": meta_dict, **result.snapshot})
    metrics_mod.write_json(paths["summary"], result.summary)
    metrics_mod.write_config_echo(paths["config"], cfg, meta)
    failures = result.summary["failures"]
    if failures or healing_epsilon is not None:
        eps = HEALING_EPSILON if healing_epsilon is None else healing_epsilon
        paths["healing"] = os.path.join(out_dir, "healing.json")
        metrics_mod.write_json(paths["healing"], {
            "meta": meta_dict, "epsilon": eps,
            "failures": healing_report(result.rows, failures, eps),
        })
    return paths
