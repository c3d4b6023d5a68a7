"""Per-node sleep/probe/guard state machine.

A reserve node sleeps for a Weibull-distributed time, wakes into PROBE,
broadcasts a probe, and waits t_w. Hearing a guard's reply sends it back to
sleep with a fresh draw; silence promotes it to ACTIVE, where it stands
guard until failure. ACTIVE is absorbing: there is no demotion path.

Handlers are sans-IO: they mutate the node and talk to a context object
(`ctx`) for time, configuration, randomness, timers, and transmissions, so
they run identically under the real simulation or a test double. A handler
for a received frame takes the ``channel.Frame`` record itself and reads
its fields (``frame.sender``). The ctx surface used here and by
link_control: now, config, draw(node_id, stream), schedule_event(time,
target, kind), cancel_event(handle) (spends a pending timer, so it never
fires; a spent one, cancelled or fired, stays spent), defer_event(handles,
since, bound) (moves pending timers to ``since`` plus a t_c drawn when each
comes due; ``bound`` is ``since`` plus the least t_c), send(node, kind,
addressee, delay), note_transition(node, old, new), on_became_active(node),
note_power_rise(node) (after each rise of a guard's ``tx_power``, so the
simulation's guard graph follows it), and for link evidence nodes
(id -> Node), base_power (the lowest power level) and weak_floor
(``channel.weak_link_floor`` of the radio). Timer times are absolute engine
times, each computed as ``ctx.now + delay`` at the call; ``send`` takes its
slot delay.

A node holds at most one pending timer, ``Node.timer``, the one its status
owns: the sleep expiry in SLEEP, the wait expiry in PROBE, the
connectivity timer in ACTIVE (None when link control is off), and None
once DEAD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .channel import MessageKind
from .engine import EventKind, IndexedEnum
from .weibull import WeibullParams, sample_sleep_time, update_probe_rate


class NodeStatus(IndexedEnum):
    SLEEP = "SLEEP"
    PROBE = "PROBE"
    ACTIVE = "ACTIVE"
    DEAD = "DEAD"


ALLOWED_TRANSITIONS = frozenset({
    (NodeStatus.SLEEP, NodeStatus.PROBE),
    (NodeStatus.PROBE, NodeStatus.SLEEP),
    (NodeStatus.PROBE, NodeStatus.ACTIVE),
    (NodeStatus.SLEEP, NodeStatus.DEAD),
    (NodeStatus.PROBE, NodeStatus.DEAD),
    (NodeStatus.ACTIVE, NodeStatus.DEAD),
})
# whether ALLOWED_TRANSITIONS holds (old, new), at [old.index][new.index]:
# a set lookup would hash two members through the Python-level Enum.__hash__
_LEGAL = [[(old, new) in ALLOWED_TRANSITIONS for new in NodeStatus]
          for old in NodeStatus]


class ProtocolViolationError(RuntimeError):
    """A handler ran in a status its contract forbids."""


def reply_slots(config) -> tuple[int, float]:
    """How many reply slots fit in what t_w leaves of the probe's and the
    reply's frames, and their width. ``RunConfig`` requires two at least,
    so a reply lands before t_w ends and repliers do not share one slot."""
    frame = config.radio.tx_duration_s
    width = 1.05 * frame
    return int((config.t_w - 2.0 * frame) / width), width


def reply_slot_delay(node_id: int, config) -> float:
    """Deterministic reply stagger: each node owns a slot inside t_w.

    Repliers share the probe-delivery instant, so id-keyed slots keep their
    frames disjoint unless ids clash modulo the slot count.
    """
    slots, width = config.reply_slots  # reply_slots(config), made once
    return (node_id % slots) * width


@dataclass
class Node:
    id: int
    x: float
    y: float
    tx_power: float
    weibull: WeibullParams  # current sampling params, post-updates
    status: NodeStatus = NodeStatus.SLEEP
    rcv_msg: bool = False
    deployed_at: float = 0.0
    sleep_cycle_start: float = 0.0
    timer: Optional[object] = None  # the pending timer its status owns

    @property
    def alive(self) -> bool:
        return self.status is not NodeStatus.DEAD


def set_status(node: Node, new: NodeStatus, ctx) -> None:
    old = node.status
    if not _LEGAL[old.index][new.index]:
        raise ProtocolViolationError(f"node {node.id}: {old.value} -> {new.value}")
    node.status = new
    ctx.note_transition(node, old, new)


def on_deploy(node: Node, ctx) -> None:
    """Freshly created node: sleep for a Weibull time, then wake to probe."""
    if node.status is not NodeStatus.SLEEP or node.timer is not None:
        raise ProtocolViolationError(f"node {node.id} already deployed")
    node.deployed_at = ctx.now
    node.sleep_cycle_start = ctx.now
    t_s = sample_sleep_time(node.weibull, ctx.draw(node.id, "sleep"))
    node.timer = ctx.schedule_event(ctx.now + t_s, node.id,
                                    EventKind.SLEEP_EXPIRED)


def on_sleep_expired(node: Node, ctx) -> None:
    """Wake up: broadcast a probe and wait t_w for a standing guard."""
    if node.status is NodeStatus.DEAD:
        return
    if node.status is not NodeStatus.SLEEP:
        raise ProtocolViolationError(
            f"sleep timer fired for node {node.id} in {node.status.value}")
    set_status(node, NodeStatus.PROBE, ctx)
    node.rcv_msg = False
    ctx.send(node, MessageKind.PROBE, None, 0.0)
    node.timer = ctx.schedule_event(ctx.now + ctx.config.t_w, node.id,
                                    EventKind.WAIT_EXPIRED)


def on_probe_received(node: Node, frame, ctx) -> None:
    """Guards answer probes with a slot-staggered unicast reply; others ignore."""
    if node.status is not NodeStatus.ACTIVE:
        return
    delay = reply_slot_delay(node.id, ctx.config)
    ctx.send(node, MessageKind.PROBE_REPLY, frame.sender, delay)


def on_probe_reply_received(node: Node, frame, ctx) -> None:
    """Record that a guard answered; resolution waits for t_w expiry.

    Replies reaching a node that is itself already a guard are link-quality
    evidence, not probe answers; the simulation routes those to link_control.
    """
    if node.status is NodeStatus.PROBE:
        node.rcv_msg = True


def on_wait_expired(node: Node, ctx) -> None:
    """Resolve the probe: back to sleep if a guard answered, else stand guard."""
    if node.status is NodeStatus.DEAD:
        return
    if node.status is not NodeStatus.PROBE:
        raise ProtocolViolationError(
            f"wait timer fired for node {node.id} in {node.status.value}")
    node.timer = None
    if node.rcv_msg:
        feedback = ctx.config.hazard_feedback
        if feedback == "global":
            node.weibull = update_probe_rate(ctx.config.weibull,
                                             ctx.now - node.deployed_at)
        elif feedback == "cycle":
            node.weibull = update_probe_rate(ctx.config.weibull,
                                             ctx.now - node.sleep_cycle_start)
        set_status(node, NodeStatus.SLEEP, ctx)
        node.sleep_cycle_start = ctx.now
        t_s = sample_sleep_time(node.weibull, ctx.draw(node.id, "sleep"))
        node.timer = ctx.schedule_event(ctx.now + t_s, node.id,
                                        EventKind.SLEEP_EXPIRED)
    else:
        set_status(node, NodeStatus.ACTIVE, ctx)
        ctx.on_became_active(node)


def mark_dead(node: Node, ctx) -> None:
    """Fail-stop: cancel the pending timer and leave the protocol permanently."""
    if node.status is NodeStatus.DEAD:
        return
    set_status(node, NodeStatus.DEAD, ctx)
    if node.timer is not None:
        ctx.cancel_event(node.timer)
        node.timer = None
