"""Guard-to-guard link control: connectivity rounds and power escalation.

Every guard runs a random connectivity timer t_c; on expiry it broadcasts a
connectivity frame and peers answer by unicast. The simulation judges each
reply's LQI against the configured threshold, by comparing its power with
the weak-link floor (``channel.weak_link_floor``), and passes the verdicts
of all the reply's receivers on at once: a weak link bumps the guard's
transmit power one level up (never down), and every judged reply re-arms
the timer. The timer is the guard's ``Node.timer``, pending in every ACTIVE
node in the timer-driven modes and None with link control off. Evidence
arrives far more often than a timer expires, so re-arming is a deferred
move (``ctx.defer_event``): the timers of one reply move to ``ctx.now`` plus
a t_c that is drawn only when the timer comes due, and a piece of evidence
costs a sequence number and marks a draw owed. The engine settles a timer
when it comes due with one fresh draw through ``t_c``, the rule every t_c
is drawn by, so each period is still one fresh uniform's t_c from the last
piece of evidence; only which uniform it takes differs from re-arming at
once.
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


def on_link_evidence(evidence, ctx) -> None:
    """Act on one reply's judged receivers, (node, weak) pairs in order: a
    weak link escalates a guard's power below the top level, told to
    ``ctx.note_power_rise``, and every guard's timer resets to a fresh t_c
    from now, in one deferred move. t_c is never below ``t_c_range[0]``, so
    now plus that bounds the move."""
    config, active = ctx.config, NodeStatus.ACTIVE
    top = config.radio.power_levels[-1]
    timers = []
    for node, weak in evidence:
        if node.status is active:
            if weak and node.tx_power != top:
                escalate_power(node, config.radio)
                ctx.note_power_rise(node)
            timers.append(node.timer)
    if timers and config.link_control.uses_conn_timer:
        now = ctx.now
        ctx.defer_event(timers, now, now + config.t_c_range[0])
