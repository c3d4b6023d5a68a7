import dataclasses
import math

import pytest

from conftest import FakeCtx
from sentinet.channel import Frame, MessageKind
from sentinet.config import LinkControlMode, RunConfig
from sentinet.engine import EventKind
from sentinet.protocol import (ALLOWED_TRANSITIONS, Node, NodeStatus,
                               ProtocolViolationError, mark_dead, on_deploy,
                               on_probe_received, on_probe_reply_received,
                               on_sleep_expired, on_wait_expired,
                               reply_slot_delay, set_status)
from sentinet.weibull import WeibullParams, sample_sleep_time, update_probe_rate


def make_node(node_id=0, status=NodeStatus.SLEEP, **kw):
    node = Node(id=node_id, x=0.0, y=0.0,
                deploy_weibull=WeibullParams(0.05, 2.0), tx_power=-10.0, **kw)
    node.status = status
    return node


def probe_from(sender):
    return Frame(MessageKind.PROBE, sender, None, -10.0, 0.0, 0.004)


def test_deploy_sleeps_and_arms_timer():
    ctx = FakeCtx(now=3.0)
    node = make_node()
    on_deploy(node, ctx)
    assert node.status is NodeStatus.SLEEP
    [timer] = ctx.of_kind(EventKind.SLEEP_EXPIRED)
    assert node.timer is timer
    assert timer.time == 3.0 + sample_sleep_time(node.weibull, ctx.u)


def test_deploy_twice_rejected(ctx):
    node = make_node()
    on_deploy(node, ctx)
    with pytest.raises(ProtocolViolationError):
        on_deploy(node, ctx)


def test_sleep_expiry_probes_and_waits(ctx):
    node = make_node()
    on_deploy(node, ctx)
    ctx.now = node.timer.time  # the sleep timer fires
    on_sleep_expired(node, ctx)
    assert node.status is NodeStatus.PROBE
    assert node.rcv_msg is False
    assert ctx.sent == [(0, MessageKind.PROBE, None, 0.0)]
    [wait] = ctx.of_kind(EventKind.WAIT_EXPIRED)
    assert node.timer is wait
    assert wait.time == ctx.now + ctx.config.t_w


def test_sleep_expiry_in_wrong_status_raises(ctx):
    node = make_node(status=NodeStatus.ACTIVE)
    with pytest.raises(ProtocolViolationError):
        on_sleep_expired(node, ctx)


def test_stale_timer_on_dead_node_is_inert(ctx):
    node = make_node(status=NodeStatus.DEAD)
    on_sleep_expired(node, ctx)
    on_wait_expired(node, ctx)
    assert ctx.sent == []
    assert ctx.scheduled == []


def test_guard_answers_probe_with_slot_delay(ctx):
    node = make_node(node_id=5, status=NodeStatus.ACTIVE)
    on_probe_received(node, probe_from(9), ctx)
    assert ctx.sent == [(5, MessageKind.PROBE_REPLY, 9,
                         reply_slot_delay(5, ctx.config))]


@pytest.mark.parametrize("status", [NodeStatus.SLEEP, NodeStatus.PROBE,
                                    NodeStatus.DEAD])
def test_non_guards_ignore_probes(ctx, status):
    node = make_node(status=status)
    on_probe_received(node, probe_from(9), ctx)
    assert ctx.sent == []


def test_reply_sets_rcv_msg_only_in_probe(ctx):
    node = make_node(status=NodeStatus.PROBE)
    reply = Frame(MessageKind.PROBE_REPLY, 3, 0, -10.0, 0.0, 0.004)
    on_probe_reply_received(node, reply, ctx)
    assert node.rcv_msg is True
    guard = make_node(node_id=1, status=NodeStatus.ACTIVE)
    on_probe_reply_received(guard, reply, ctx)
    assert guard.rcv_msg is False


def test_wait_expiry_with_reply_returns_to_sleep(ctx):
    node = make_node(status=NodeStatus.PROBE)
    node.rcv_msg = True
    ctx.now = 40.0
    on_wait_expired(node, ctx)
    assert node.status is NodeStatus.SLEEP
    assert node.sleep_cycle_start == 40.0
    [timer] = ctx.of_kind(EventKind.SLEEP_EXPIRED)
    assert node.timer is timer
    assert timer.time == 40.0 + sample_sleep_time(node.weibull, ctx.u)
    assert node.weibull == node.deploy_weibull  # feedback off by default


def test_wait_expiry_updates_rate_under_global_feedback():
    ctx = FakeCtx(config=RunConfig(hazard_feedback="global"), now=100.0)
    node = make_node(status=NodeStatus.PROBE)
    node.rcv_msg = True
    on_wait_expired(node, ctx)
    assert node.weibull == update_probe_rate(node.deploy_weibull, 100.0)
    [timer] = ctx.of_kind(EventKind.SLEEP_EXPIRED)
    assert timer.time == 100.0 + sample_sleep_time(node.weibull, ctx.u)


def test_wait_expiry_updates_rate_under_cycle_feedback():
    ctx = FakeCtx(config=RunConfig(hazard_feedback="cycle"), now=25.0)
    node = make_node(status=NodeStatus.PROBE)
    node.rcv_msg = True
    node.sleep_cycle_start = 10.0
    on_wait_expired(node, ctx)
    assert node.weibull == update_probe_rate(node.deploy_weibull, 15.0)


def test_wait_expiry_without_reply_stands_guard(ctx):
    node = make_node(status=NodeStatus.PROBE)
    on_wait_expired(node, ctx)
    assert node.status is NodeStatus.ACTIVE
    assert ctx.activated == [0]
    # the default mode arms t_c, which replaces the spent wait timer
    [conn] = ctx.of_kind(EventKind.CONN_TIMER_EXPIRED)
    assert node.timer is conn


def test_wait_expiry_without_reply_no_timer_when_off():
    ctx = FakeCtx(config=RunConfig(link_control=LinkControlMode.OFF))
    node = make_node()
    on_sleep_expired(node, ctx)
    assert node.timer.kind is EventKind.WAIT_EXPIRED
    on_wait_expired(node, ctx)
    assert node.status is NodeStatus.ACTIVE
    assert ctx.of_kind(EventKind.CONN_TIMER_EXPIRED) == []
    assert node.timer is None


def test_wait_expiry_in_wrong_status_raises(ctx):
    node = make_node(status=NodeStatus.SLEEP)
    with pytest.raises(ProtocolViolationError):
        on_wait_expired(node, ctx)


def test_mark_dead_cancels_timers(ctx):
    node = make_node(status=NodeStatus.ACTIVE)
    timer = node.timer = ctx.schedule_event(5.0, 0, EventKind.CONN_TIMER_EXPIRED)
    mark_dead(node, ctx)
    assert node.status is NodeStatus.DEAD
    assert ctx.cancelled == [timer] and node.timer is None
    mark_dead(node, ctx)  # idempotent
    assert ctx.cancelled == [timer]


def test_transition_table_is_enforced(ctx):
    legal = ALLOWED_TRANSITIONS
    for old in NodeStatus:
        for new in NodeStatus:
            node = make_node(status=old)
            if (old, new) in legal:
                set_status(node, new, ctx)
                assert node.status is new
            else:
                with pytest.raises(ProtocolViolationError):
                    set_status(node, new, ctx)


def test_active_is_absorbing_except_death():
    assert (NodeStatus.ACTIVE, NodeStatus.SLEEP) not in ALLOWED_TRANSITIONS
    assert (NodeStatus.ACTIVE, NodeStatus.PROBE) not in ALLOWED_TRANSITIONS
    assert (NodeStatus.ACTIVE, NodeStatus.DEAD) in ALLOWED_TRANSITIONS


def test_reply_slots_distinct_until_wraparound():
    cfg = RunConfig()
    delays = [reply_slot_delay(nid, cfg) for nid in range(21)]
    assert len(set(delays)) == len(delays)
    assert reply_slot_delay(0, cfg) == reply_slot_delay(21, cfg)
    frame = cfg.radio.tx_duration_s
    assert max(delays) + 2 * frame <= cfg.t_w
