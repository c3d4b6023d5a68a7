import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FakeCtx
from sentinet.channel import (Frame, MessageKind, RadioConfig, compute_lqi,
                              weak_link_floor)
from sentinet.config import LinkControlMode, RunConfig
from sentinet.energy import EnergyConfig
from sentinet.engine import EventKind
from sentinet.link_control import (draw_t_c, escalate_power,
                                   on_active_entered, on_conn_received,
                                   on_conn_timer_expired, on_link_evidence)
from sentinet.protocol import NodeStatus, reply_slot_delay
from test_protocol import make_node


def guard(node_id=0, power=-10.0):
    node = make_node(node_id=node_id, status=NodeStatus.ACTIVE)
    node.tx_power = power
    return node


def armed_guard(ctx, node_id=0, power=-10.0):
    """A guard holding the connectivity timer it armed on standing guard."""
    node = guard(node_id, power)
    on_active_entered(node, ctx)
    return node


def ctx_with(mode, **kw):
    return FakeCtx(config=RunConfig(link_control=mode, **kw))


def reply(ctx, *links, tx=-10.0):
    """Hand link control one probe reply sent at ``tx`` dBm and received,
    in order, by the node of each (node, weak) in ``links``: a weak link's
    power, normalized to the base power, lies 3 dB below the weak-link
    floor, a strong one's 3 dB above it."""
    base, floor = ctx.base_power, ctx.weak_floor
    rx = {}
    for node, weak in links:
        ctx.nodes[node.id] = node
        rx[node.id] = floor - base + tx + (-3.0 if weak else 3.0)
        assert ((rx[node.id] - tx) + base < floor) is weak
    frame = Frame(MessageKind.PROBE_REPLY, 99, links[0][0].id, tx, ctx.now,
                  ctx.now + 0.004, rx_dbm=rx)
    on_link_evidence([node.id for node, _ in links], frame, ctx)


def test_t_c_drawn_inside_configured_range(ctx):
    lo, hi = ctx.config.t_c_range
    assert lo <= draw_t_c(guard(), ctx) <= hi


def test_new_guard_arms_timer_in_every_link_mode():
    for mode in (LinkControlMode.STANDALONE, LinkControlMode.PIGGYBACKED):
        ctx = ctx_with(mode)
        ctx.now = 20.0
        node = guard()
        on_active_entered(node, ctx)
        [timer] = ctx.of_kind(EventKind.CONN_TIMER_EXPIRED)
        assert node.timer is timer, mode
        assert timer.time == 20.0 + draw_t_c(node, ctx)


def test_new_guard_has_no_timer_when_off():
    ctx = ctx_with(LinkControlMode.OFF)
    node = guard()
    on_active_entered(node, ctx)
    assert node.timer is None


def test_timer_expiry_broadcasts_and_rearms(ctx):
    node = armed_guard(ctx, 3)
    ctx.now = node.timer.time  # the timer fires
    on_conn_timer_expired(node, ctx)
    assert ctx.sent == [(3, MessageKind.CONN, None, 0.0)]
    [_, fallback] = ctx.of_kind(EventKind.CONN_TIMER_EXPIRED)
    assert node.timer is fallback
    lo, hi = ctx.config.t_c_range
    assert ctx.now + ctx.config.t_w + lo <= fallback.time
    assert fallback.time <= ctx.now + ctx.config.t_w + hi


def test_timer_expiry_on_dead_guard_is_inert(ctx):
    node = guard()
    node.status = NodeStatus.DEAD
    on_conn_timer_expired(node, ctx)
    assert ctx.sent == []


def test_guard_answers_conn_with_slot_delay(ctx):
    node = guard(7)
    frame = Frame(MessageKind.CONN, 2, None, -10.0, 0.0, 0.004)
    on_conn_received(node, frame, ctx)
    assert ctx.sent == [(7, MessageKind.CONN_REPLY, 2,
                         reply_slot_delay(7, ctx.config))]


def test_reserves_ignore_conn_frames(ctx):
    node = make_node(status=NodeStatus.SLEEP)
    on_conn_received(node, Frame(MessageKind.CONN, 2, None, -10.0, 0.0, 0.004),
                     ctx)
    assert ctx.sent == []


def test_strong_evidence_keeps_power_and_resets_timer(ctx):
    node = armed_guard(ctx)
    timer = node.timer
    ctx.now = 9.0
    reply(ctx, (node, False))
    assert node.tx_power == -10.0
    # the pending timer moved in place to a fresh t_c from now
    assert node.timer is timer and ctx.moved == [timer]
    assert timer.time == 9.0 + draw_t_c(node, ctx)
    assert ctx.cancelled == [] and ctx.scheduled == [timer]


def test_evidence_draws_t_c_as_draw_t_c_does():
    # the reset time is now + (lo + u * (hi - lo)), bit for bit
    for u in (1e-12, 0.1, 0.3, 0.7, 1.0 - 2.0 ** -53):
        ctx = ctx_with(LinkControlMode.PIGGYBACKED, t_c_range=(0.3, 7.1))
        ctx.u = u
        node = armed_guard(ctx)
        ctx.now = 9.7
        reply(ctx, (node, False))
        assert node.timer.time == 9.7 + draw_t_c(node, ctx), u
        assert node.timer.time == 9.7 + (0.3 + u * (7.1 - 0.3)), u
        # the deferred move is bounded by the least t_c from now
        assert ctx.deferrals[-1][1:] == (9.7, 9.7 + 0.3)


def test_one_reply_is_one_deferred_move_for_its_guards(ctx):
    # the judged receivers of one reply, in order: each guard acts on its
    # own verdict, a non-guard is skipped, and the guards' timers move in
    # one call, bounded by the least t_c from now
    first, second = armed_guard(ctx, 1), armed_guard(ctx, 2, power=-5.0)
    prober = make_node(node_id=3, status=NodeStatus.PROBE)
    prober.tx_power = -10.0
    ctx.now = 4.0
    reply(ctx, (first, True), (prober, True), (second, True))
    assert (first.tx_power, second.tx_power, prober.tx_power) == (-5.0, -5.0, -10.0)
    assert ctx.raised == [(1, -5.0)]  # the one guard whose power rose
    assert ctx.deferrals == [([first.timer, second.timer], 4.0,
                              4.0 + ctx.config.t_c_range[0])]
    assert ctx.moved == [first.timer, second.timer]
    assert first.timer.time == second.timer.time == 4.0 + draw_t_c(first, ctx)


def test_evidence_moves_no_timer_when_off():
    ctx = ctx_with(LinkControlMode.OFF)
    node = armed_guard(ctx)
    assert node.timer is None
    reply(ctx, (node, True))
    assert node.tx_power == -5.0  # escalation does not need the timer
    assert ctx.deferrals == [] and ctx.scheduled == []


def test_weak_evidence_escalates_one_level(ctx):
    node = armed_guard(ctx)
    reply(ctx, (node, True))
    assert node.tx_power == -5.0
    assert ctx.raised == [(node.id, -5.0)]


def test_weak_evidence_at_top_level_saturates(ctx):
    node = armed_guard(ctx, power=-5.0)
    reply(ctx, (node, True))
    assert node.tx_power == -5.0
    assert ctx.moved == [node.timer]  # timer still reset
    assert ctx.raised == []  # nothing rose


def test_threshold_boundary_is_strong(ctx):
    # a reply whose normalized power is at the weak-link floor has the
    # threshold LQI: it is not weak, and one an ulp below the floor is
    radio, floor = ctx.config.radio, ctx.weak_floor
    below = math.nextafter(floor, -math.inf)
    assert compute_lqi(radio, floor) == radio.lqi_threshold
    assert compute_lqi(radio, below) < radio.lqi_threshold
    node = armed_guard(ctx)
    ctx.nodes[node.id] = node
    tx = base = ctx.base_power  # sent at the base power: judged as received
    assert (floor - tx) + base == floor and (below - tx) + base == below
    for rx, power in ((floor, -10.0), (below, -5.0)):
        frame = Frame(MessageKind.CONN_REPLY, 1, node.id, tx, 0.0, 0.004,
                      rx_dbm={node.id: rx})
        on_link_evidence([node.id], frame, ctx)
        assert node.tx_power == power, rx


def test_evidence_ignored_for_non_guards(ctx):
    node = make_node(status=NodeStatus.PROBE)
    node.tx_power = -10.0
    reply(ctx, (node, True))
    assert node.tx_power == -10.0
    assert ctx.scheduled == [] and ctx.moved == []


def test_power_stays_in_configured_domain(ctx):
    node = armed_guard(ctx)
    for _ in range(5):
        reply(ctx, (node, True))
        assert node.tx_power in ctx.config.radio.power_levels
    assert node.tx_power == max(ctx.config.radio.power_levels)
    # one notice per rise, none once saturated
    assert ctx.raised == [(node.id, p) for p in ctx.config.radio.power_levels[1:]]


def test_power_never_decreases(ctx):
    node = armed_guard(ctx)
    seen = [node.tx_power]
    for weak in (False, True, False, True, False):
        reply(ctx, (node, weak))
        seen.append(node.tx_power)
    assert seen == sorted(seen)


def test_escalate_power_walks_the_ladder():
    radio = RunConfig().radio
    node = guard()
    assert escalate_power(node, radio) is True
    assert node.tx_power == -5.0
    assert escalate_power(node, radio) is False
    assert node.tx_power == -5.0


def pair_form(evidence, ctx):
    """Link evidence as (node, weak) pairs, each judged before any is acted
    on: the reference for ``on_link_evidence``, which judges as it goes."""
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


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_link_evidence_matches_the_pair_form(data):
    # one reply's receivers, drawn with mixed statuses at either power
    # level, repeated ids, and powers within a few ulps of the weak-link
    # floor once normalized: judging each guard's link as the loop reaches
    # it escalates, tells and defers exactly as judging every receiver
    # first, as (rx - tx) + base < floor, in the same order
    tenths = st.integers(-200, -10).map(lambda k: k / 10.0)
    levels = data.draw(st.sampled_from([(-10.0, -5.0), (-12.7, -3.1)])
                       | st.tuples(tenths, tenths).filter(lambda p: p[0] < p[1]))
    config = RunConfig(
        link_control=data.draw(st.sampled_from(list(LinkControlMode))),
        radio=RadioConfig(power_levels=levels,
                          lqi_threshold=data.draw(st.integers(1, 10))),
        energy=EnergyConfig(tx_draw_w=tuple((p, 0.04) for p in levels)))
    base, floor = levels[0], weak_link_floor(config.radio)
    tx = data.draw(st.sampled_from(levels))
    n = data.draw(st.integers(1, 6))
    # mostly guards below the top level at the floor: the receivers whose
    # verdict counts, where the order of the float operations shows
    statuses = [NodeStatus.ACTIVE] * 3 + list(NodeStatus)
    kinds = data.draw(st.lists(st.tuples(st.sampled_from(statuses),
                                         st.sampled_from((base,) + levels)),
                               min_size=n, max_size=n))
    rx = {}
    for nid in range(n):
        power = floor - base + tx + data.draw(st.sampled_from([0.0, 0.0, -3.0, 3.0]))
        for _ in range(data.draw(st.integers(0, 4))):
            power = math.nextafter(power, data.draw(st.sampled_from(
                [-math.inf, math.inf])))
        rx[nid] = power
    ids = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    frame = Frame(MessageKind.PROBE_REPLY, n, ids[0], tx, 0.0, 0.004, rx_dbm=rx)

    def world():
        ctx = FakeCtx(config=config, now=2.5)
        for nid, (status, power) in enumerate(kinds):
            node = ctx.nodes[nid] = make_node(node_id=nid, status=status)
            node.tx_power = power
            if status is NodeStatus.ACTIVE:
                on_active_entered(node, ctx)
        return ctx

    def seen(ctx):
        return ([node.tx_power for node in ctx.nodes.values()], ctx.raised,
                [([h.target for h in handles], since, bound)
                 for handles, since, bound in ctx.deferrals],
                [(h.target, h.time) for h in ctx.moved])

    want = world()
    pair_form([(want.nodes[rid], (rx[rid] - tx) + base < floor) for rid in ids],
              want)
    got = world()
    on_link_evidence(ids, frame, got)
    assert seen(got) == seen(want)
