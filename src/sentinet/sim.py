"""Full simulation wiring: nodes, channel, protocol callbacks, outputs.

One Simulation owns one run. It implements the context surface the protocol
and link-control handlers expect (time, randomness, timers, transmissions,
transitions) and routes every dispatched event to the right handler, so
all node behaviour is serialized through the engine's event loop. The
draws and timers of that surface are the engine's own methods, bound once.
"""

from __future__ import annotations

import os
import time as _wall
import weakref
from dataclasses import dataclass, field
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

# Shadowing normals drawn per block: a sender draws the shadowing of its
# next max(1, _BLOCK_DRAWS // N) frames at once and makes their power maps
# in one pass. Philox gives the same values in a block as frame by frame.
_BLOCK_DRAWS = 512


@dataclass
class RunResult:
    config: RunConfig
    nodes: dict[int, Node]
    rows: list[dict]
    summary: dict
    snapshot: dict  # {"time", "nodes"}: the final node states
    failure_log: list[dict] = field(default_factory=list)


class Simulation:
    def __init__(self, config: RunConfig, transition_hook=None,
                 post_event_hook=None, positions: Optional[dict] = None):
        """``positions`` pins node placement (id -> (x, y)) for scenario
        construction; by default nodes deploy uniformly at random."""
        self.config = config
        # a weak reference back: a bound _dispatch would make every dropped
        # Simulation (heap, RNGs, frames) cyclic garbage that lingers until
        # the next full collection
        me = weakref.ref(self)
        self.engine = Engine(config.seed, handler=lambda ev: me()._dispatch(ev),
                             node_count=config.node_count)
        # the handlers pass absolute times, so their draws and timers are
        # the engine's methods, bound through the Engine class (a method
        # wrapped on the class is the one called)
        self.draw = self.engine.uniform
        self.schedule_event = self.engine.schedule
        self.cancel_event = self.engine.cancel
        self.reschedule_event = self.engine.reschedule
        self.transition_hook = transition_hook
        self.post_event_hook = post_event_hook
        self.frames: list[chan.Frame] = []  # on the air: delivery pending
        self.counters = [0] * len(chan.MessageKind)  # by MessageKind.index
        self.rows: list[dict] = []
        self.failure_log: list[dict] = []
        self._sigma = config.radio.shadowing_sigma_db
        self._shadow_gens = [None] * config.node_count  # by sender, on first use
        # by sender, the power maps of its next frames: shadowed, [tx, block,
        # maps, next] while its shadowing block has frames left, else None;
        # unshadowed, {tx: the one map all its frames at tx share}
        self._maps: list = ([None] * config.node_count if self._sigma > 0.0
                            else [{} for _ in range(config.node_count)])
        self._block_frames = max(1, _BLOCK_DRAWS // config.node_count)
        self._base_power = config.radio.power_levels[0]
        self._weak_floor = chan.weak_link_floor(config.radio)
        self._piggyback = config.link_control.uses_piggyback
        self._component_cache: tuple = (None, None)

        if positions is None:
            # node k at draws 2k (x) and 2k+1 (y): one block, the same values
            # as scalar draws in that order
            drawn = self.engine.rng(None, "deploy").random(2 * config.node_count)
            self._xs = drawn[0::2] * config.field_width
            self._ys = drawn[1::2] * config.field_height
        else:
            self._xs, self._ys = np.array(
                [positions[nid] for nid in range(config.node_count)], dtype=float).T.copy()
        initial_power = config.radio.power_levels[0]
        self.nodes: dict[int, Node] = {
            nid: Node(id=nid, x=x, y=y, deploy_weibull=config.weibull,
                      tx_power=initial_power)
            for nid, (x, y) in enumerate(zip(self._xs.tolist(), self._ys.tolist()))}
        self._links = chan.LinkRows(self._xs, self._ys, config.radio)
        self._awake_ids: set[int] = set()
        self._guard_ids: set[int] = set()
        self._census = [0] * len(NodeStatus)  # by NodeStatus.index
        self._census[NodeStatus.SLEEP.index] = config.node_count
        self.energy = energy_mod.EnergyLedger(config.energy, config.node_count)
        self._coverage = metrics_mod.CoverageGrid(
            config.field_width, config.field_height, config.sensing_range,
            config.grid_step)
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
        self._census[old.index] -= 1
        self._census[new.index] += 1
        # the node accrues at its old status up to now, then at the new one
        energy_mod.accrue_node(self.energy, node.id, self.now)
        energy_mod.set_status(self.energy, node.id, new)
        if new in (NodeStatus.PROBE, NodeStatus.ACTIVE):
            self._awake_ids.add(node.id)
        else:
            self._awake_ids.discard(node.id)
        if new is NodeStatus.ACTIVE:
            self._guard_ids.add(node.id)
            self._coverage.add(node.x, node.y)
        elif old is NodeStatus.ACTIVE:
            self._guard_ids.discard(node.id)
            self._coverage.remove(node.x, node.y)
        if self.transition_hook is not None:
            self.transition_hook(self, node, old, new)

    def on_became_active(self, node: Node) -> None:
        link_control.on_active_entered(node, self)

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

    def _dispatch(self, ev: Event) -> None:
        kind = ev.kind
        if kind is EventKind.SLEEP_EXPIRED:
            protocol.on_sleep_expired(self.nodes[ev.target], self)
        elif kind is EventKind.WAIT_EXPIRED:
            protocol.on_wait_expired(self.nodes[ev.target], self)
        elif kind is EventKind.CONN_TIMER_EXPIRED:
            link_control.on_conn_timer_expired(self.nodes[ev.target], self)
        elif kind is EventKind.TX_START:
            msg_kind, addressee = ev.payload
            self._transmit(self.nodes[ev.target], msg_kind, addressee)
        elif kind is EventKind.MSG_DELIVERY:
            self._resolve_frame(ev.payload)
        elif kind is EventKind.NODE_FAILURE:
            self._handle_failure(ev)
        elif kind is EventKind.METRIC_SAMPLE:
            self._sample_metrics(ev.payload)
        if self.post_event_hook is not None:
            self.post_event_hook(self, ev)

    # -- radio --------------------------------------------------------------

    def _transmit(self, node: Node, kind: chan.MessageKind,
                  addressee: Optional[int]) -> None:
        if node.status is NodeStatus.DEAD:
            return  # fail-stop: queued transmissions die with the node
        nid, tx, radio = node.id, node.tx_power, self.config.radio
        self.counters[kind.index] += 1
        energy_mod.add_tx(self.energy, nid, tx, radio.tx_duration_s)
        if self._sigma > 0.0:
            pending = self._maps[nid]
            if pending is None:
                # one fresh per-receiver draw per transmission, from the
                # sender's substream so draw indices stay node-count
                # stable; a block holds the draws of its next frames
                gen = self._shadow_gens[nid]
                if gen is None:
                    gen = self._shadow_gens[nid] = self.engine.rng(nid, "shadow")
                block = gen.normal(0.0, self._sigma,
                                   size=(self._block_frames, len(self.nodes)))
                maps = chan.power_maps(self._links, nid, tx, radio, block)
                rx_map = maps[0]
                if len(maps) > 1:
                    self._maps[nid] = [tx, block, maps, 1]
            else:
                if pending[0] != tx:
                    # the power rose with frames left: their maps at the
                    # new power, from the draws they kept
                    block = pending[1][pending[3]:]
                    pending[:] = (tx, block, chan.power_maps(
                        self._links, nid, tx, radio, block), 0)
                maps, k = pending[2], pending[3]
                rx_map = maps[k]
                if k + 1 < len(maps):
                    pending[3] = k + 1
                else:  # spent
                    self._maps[nid] = None
        else:
            shared = self._maps[nid]
            rx_map = shared.get(tx)
            if rx_map is None:
                [rx_map] = chan.power_maps(self._links, nid, tx, radio,
                                           np.zeros((1, len(self.nodes))))
                shared[tx] = rx_map
        frame = chan.make_frame(kind, nid, addressee, tx, self.engine.clock,
                                rx_map, self._awake_ids, radio, self.frames)
        self.frames.append(frame)
        self.engine.schedule(frame.end, None, EventKind.MSG_DELIVERY, payload=frame)

    def _resolve_frame(self, frame: chan.Frame) -> None:
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
        # that evidence only in piggybacked mode, then for its overhearers.
        if kind is chan.MessageKind.PROBE_REPLY:
            if received and nodes[received[0]].status is NodeStatus.PROBE:
                protocol.on_probe_reply_received(nodes[received[0]], frame, self)
                received = []
            if not self._piggyback:
                return
            received = received + chan.overhearers(frame, self._guard_ids)
        # A reply carries its transmit power, so a guard judges the path
        # itself, normalized to the base power, not the momentary reception:
        # a guard that escalated first would otherwise mask the weak link
        # from its peer. LQI never falls as the power grows, so the link is
        # weak exactly when the normalized power is below the weak-link
        # floor. The order of these float operations is part of the bytes.
        rx, tx = frame.rx_dbm, frame.tx_power_dbm
        base, floor = self._base_power, self._weak_floor
        for rid in received:
            link_control.on_link_evidence(nodes[rid], (rx[rid] - tx) + base < floor,
                                          self)

    # -- failures -----------------------------------------------------------

    def _handle_failure(self, ev: Event) -> None:
        if ev.target is not None:
            node = self.nodes[ev.target]
            killed = [node.id] if node.alive else []
            protocol.mark_dead(node, self)
            self.failure_log.append({"time": self.now, "kind": "node",
                                     "requested": 1, "killed": killed})
            return
        count = (ev.payload or {}).get("count")
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
        at = index * self.config.metric_interval
        if at <= self.config.duration:
            self.engine.schedule(at, None, EventKind.METRIC_SAMPLE, payload=index)

    def snapshot(self) -> dict:
        """The current node states, as written to snapshot.json."""
        spent = self.energy.node_totals().tolist()
        return {"time": self.now,
                "nodes": [{"id": n.id, "x": n.x, "y": n.y,
                           "status": n.status.value, "tx_dbm": n.tx_power,
                           "energy_j": spent[n.id]}
                          for n in self.nodes.values()]}

    def _sample_metrics(self, index: int) -> None:
        energy_mod.accrue(self.energy, self.now)
        # guard set and powers change rarely; reuse the components when
        # they are unchanged since the last sample
        guards = sorted(self._guard_ids)
        powers = [self.nodes[g].tx_power for g in guards]
        if self._component_cache[0] != (guards, powers):
            self._component_cache = ((guards, powers), metrics_mod.sentinel_components(
                self._xs, self._ys, powers, self.config.radio,
                ids=guards, links=self._links))
        comps = self._component_cache[1]
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
            "components": comps["component_count"],
            "isolated": comps["isolated_count"],
            "msgs_probe": probe,
            "msgs_probe_reply": probe_reply,
            "msgs_conn": conn,
            "msgs_conn_reply": conn_reply,
            "energy_total_j": totals["total_j"],
            "energy_mean_j": totals["mean_per_node_j"],
        })
        self._schedule_sample(index + 1)

    # -- run ----------------------------------------------------------------

    def run(self) -> RunResult:
        started = _wall.perf_counter()
        engine_summary = self.engine.run_until(self.config.duration)
        energy_mod.accrue(self.energy, self.now)
        wall = _wall.perf_counter() - started
        totals = energy_mod.summarize(self.energy)
        final_row = self.rows[-1] if self.rows else None
        summary = {
            "meta": self._meta_dict(),
            "seed": self.config.seed,
            "config": self.config.to_flat(),
            "totals": {
                "energy": totals,
                "messages": {k.value: self.counters[k.index]
                             for k in chan.MessageKind},
                "events": engine_summary.as_dict()["dispatched"],
                "census": {s.value: self._census[s.index] for s in NodeStatus},
                "coverage_final": final_row["coverage"] if final_row else None,
                "components_final": final_row["components"] if final_row else None,
                "isolated_final": final_row["isolated"] if final_row else None,
            },
            "failures": self.failure_log,
            "runtime_wall_s": wall,
        }
        return RunResult(config=self.config, nodes=self.nodes, rows=self.rows,
                         summary=summary, snapshot=self.snapshot(),
                         failure_log=self.failure_log)

    def _meta_dict(self) -> dict:
        return {"seed": self.config.seed, "config": self.config.config_hash(),
                "rng": RNG_NAME}


def healing_report(rows: list[dict], failure_log: list[dict],
                   epsilon: float = 0.05) -> list[dict]:
    """Per failure: time until coverage returns to within epsilon of the
    last pre-failure sample."""
    report = []
    for failure in failure_log:
        t_fail = failure["time"]
        before = [r for r in rows if r["time_s"] < t_fail]
        pre = before[-1]["coverage"] if before else 0.0
        recovered_at = None
        for row in rows:
            if row["time_s"] > t_fail and row["coverage"] >= pre - epsilon:
                recovered_at = row["time_s"]
                break
        entry = dict(failure)
        entry["pre_coverage"] = pre
        entry["recovered_at"] = recovered_at
        entry["recovery_time"] = (None if recovered_at is None
                                  else recovered_at - t_fail)
        report.append(entry)
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
    if result.failure_log or healing_epsilon is not None:
        eps = 0.05 if healing_epsilon is None else healing_epsilon
        paths["healing"] = os.path.join(out_dir, "healing.json")
        metrics_mod.write_json(paths["healing"], {
            "meta": meta_dict, "epsilon": eps,
            "failures": healing_report(result.rows, result.failure_log, eps),
        })
    return paths
