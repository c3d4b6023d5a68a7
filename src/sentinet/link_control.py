"""Guard-to-guard link control: connectivity rounds and power escalation.

Every guard runs a random connectivity timer t_c; on expiry it broadcasts a
connectivity frame and peers answer by unicast. The simulation hands link
control the ids that received a reply, all at once, and link control judges
each guard's link: the reply's LQI against the configured threshold, by
comparing its power with the weak-link floor (``channel.weak_link_floor``).
A weak link bumps the guard's transmit power one level up (never down), and
every reply a guard receives re-arms the timer. The timer is the guard's
``Node.timer``, pending in every ACTIVE node in the timer-driven modes and
None with link control off. Evidence arrives far more often than a timer
expires, so re-arming is a deferred move (``ctx.defer_event``): the timers
of one reply move to ``ctx.now`` plus a t_c that is drawn only when the
timer comes due, and a piece of evidence costs a sequence number and marks
a draw owed. The engine settles a timer when it comes due with one fresh
draw through ``t_c``, the rule every t_c is drawn by, so each period is
still one fresh uniform's t_c from the last piece of evidence; only which
uniform it takes differs from re-arming at once.
In piggybacked mode the same judgement is also applied to probe replies a
guard receives from other guards, and those resets postpone the standalone
rounds, which is where the control-overhead saving comes from: a guard
falls back to its own connectivity round only when probe traffic has gone
quiet around it.
"""

from __future__ import annotations

from .channel import MessageKind, RadioConfig
from .engine import EventKind
from .protocol import Node, NodeStatus, reply_slot_delay


def t_c(config, u: float) -> float:
    """The connectivity period a draw ``u`` in (0, 1) gives, at least
    ``t_c_range[0]``: drawn or settled, every t_c is this sum."""
    lo, hi = config.t_c_range
    return lo + u * (hi - lo)


def draw_t_c(node: Node, ctx) -> float:
    return t_c(ctx.config, ctx.draw(node.id, "conn"))


def escalate_power(node: Node, radio: RadioConfig) -> bool:
    """Raise tx power one configured level; saturates at the top level."""
    levels = radio.power_levels
    if node.tx_power == levels[-1]:
        return False
    node.tx_power = levels[levels.index(node.tx_power) + 1]
    return True


def on_active_entered(node: Node, ctx) -> None:
    """New guard: arm the first connectivity timer (timer-driven modes only)."""
    if ctx.config.link_control.uses_conn_timer:
        node.timer = ctx.schedule_event(ctx.now + draw_t_c(node, ctx), node.id,
                                        EventKind.CONN_TIMER_EXPIRED)


def on_conn_timer_expired(node: Node, ctx) -> None:
    """Broadcast a connectivity frame and arm a fallback timer.

    The fallback (t_w plus a fresh t_c) keeps a guard with no reachable
    peers cycling; any reply that does arrive moves it via
    on_link_evidence. Only the timer-driven modes arm the timer that runs
    this handler.
    """
    if node.status is not NodeStatus.ACTIVE:
        return
    ctx.send(node, MessageKind.CONN, None, 0.0)
    # t_w + t_c is summed before now is added: the output bytes pin that rounding
    node.timer = ctx.schedule_event(
        ctx.now + (ctx.config.t_w + draw_t_c(node, ctx)), node.id,
        EventKind.CONN_TIMER_EXPIRED)


def on_conn_received(node: Node, frame, ctx) -> None:
    """Guards answer connectivity frames by slot-staggered unicast; others ignore."""
    if node.status is not NodeStatus.ACTIVE:
        return
    delay = reply_slot_delay(node.id, ctx.config)
    ctx.send(node, MessageKind.CONN_REPLY, frame.sender, delay)


def on_link_evidence(ids, frame, ctx) -> None:
    """Act on one reply, received by the nodes ``ids`` in order: each guard's
    timer resets to a fresh t_c from now, in one deferred move, and a guard
    below the top level whose link is weak escalates its power, told to
    ``ctx.note_power_rise``. t_c is never below ``t_c_range[0]``, so now
    plus that bounds the move.

    A reply carries its transmit power, so a guard judges the path itself,
    normalized to the base power (``ctx.base_power``), not the momentary
    reception: a guard that escalated first would otherwise mask the weak
    link from its peer. LQI never falls as the power grows, so the link is
    weak exactly when the normalized power is below the weak-link floor
    (``ctx.weak_floor``). The order of these float operations is part of
    the output bytes.
    """
    config, nodes, active = ctx.config, ctx.nodes, NodeStatus.ACTIVE
    radio, base, floor = config.radio, ctx.base_power, ctx.weak_floor
    rx, tx, top = frame.rx_dbm, frame.tx_power_dbm, radio.power_levels[-1]
    timers = []
    for rid in ids:
        node = nodes[rid]
        if node.status is active:
            if node.tx_power != top and (rx[rid] - tx) + base < floor:
                escalate_power(node, radio)
                ctx.note_power_rise(node)
            timers.append(node.timer)
    if timers and config.link_control.uses_conn_timer:
        now = ctx.now
        ctx.defer_event(timers, now, now + config.t_c_range[0])
