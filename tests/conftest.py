import dataclasses

import pytest

from sentinet.channel import weak_link_floor
from sentinet.config import RunConfig
from sentinet.engine import EventKind


class FakeHandle:
    def __init__(self, time, target, kind):
        self.time = time  # absolute, as the engine takes it
        self.target = target
        self.kind = kind
        self.cancelled = False


class FakeCtx:
    """Stand-in for the simulation context so handlers run without an engine."""

    def __init__(self, config=None, now=0.0, u=0.5):
        self.config = config or RunConfig()
        self.now = now
        self.u = u
        self.scheduled = []
        self.cancelled = []
        self.moved = []
        self.deferrals = []  # (handles, since, bound) per defer_event call
        self.sent = []
        self.transitions = []
        self.activated = []
        self.raised = []  # (node id, new power) per note_power_rise call
        # what link evidence reads: the receivers by id, and the run's
        # base power and weak-link floor
        self.nodes = {}
        self.base_power = self.config.radio.power_levels[0]
        self.weak_floor = weak_link_floor(self.config.radio)

    def draw(self, node_id, stream):
        return self.u

    def schedule_event(self, time, target, kind, payload=None):
        assert time >= self.now
        handle = FakeHandle(time, target, kind)
        self.scheduled.append(handle)
        return handle

    def cancel_event(self, handle):
        handle.cancelled = True
        self.cancelled.append(handle)
        return True

    def defer_event(self, handles, since, bound):
        # settled at once, as the engine settles a deferred timer when it
        # comes due: since plus a t_c from the handle's next conn draw; the
        # handlers only ever defer pending timers, bounded by the least t_c
        from sentinet import link_control
        assert since == self.now and bound >= self.now
        self.deferrals.append((list(handles), since, bound))
        for handle in handles:
            assert isinstance(handle, FakeHandle) and not handle.cancelled
            handle.time = since + link_control.t_c(
                self.config, self.draw(handle.target, "conn"))
            assert bound <= handle.time
            self.moved.append(handle)

    def send(self, node, kind, addressee, delay):
        self.sent.append((node.id, kind, addressee, delay))

    def note_transition(self, node, old, new):
        self.transitions.append((node.id, old, new))

    def note_power_rise(self, node):
        self.raised.append((node.id, node.tx_power))

    def on_became_active(self, node):
        from sentinet import link_control
        self.activated.append(node.id)
        link_control.on_active_entered(node, self)

    def of_kind(self, kind):
        return [h for h in self.scheduled if h.kind is kind]


@pytest.fixture
def ctx():
    return FakeCtx()


def after_each_event(sim, watch):
    """Call ``watch(sim, event)`` after each event's handler, by wrapping
    ``sim.engine.handler``; returns ``sim``."""
    handler = sim.engine.handler

    def watched(ev):
        handler(ev)
        watch(sim, ev)

    sim.engine.handler = watched
    return sim


def zero_shadow(config: RunConfig) -> RunConfig:
    return dataclasses.replace(
        config, radio=dataclasses.replace(config.radio, shadowing_sigma_db=0.0))
