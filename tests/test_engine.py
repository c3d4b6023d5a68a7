from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sentinet.engine import ClockViolationError, Engine, EventKind


def collect(engine):
    seen = []
    engine.handler = lambda ev: seen.append((ev.time, ev.target, ev.kind))
    return seen


def test_dispatch_in_time_order():
    eng = Engine(seed=1)
    seen = collect(eng)
    eng.schedule(5.0, 1, EventKind.SLEEP_EXPIRED)
    eng.schedule(2.0, 2, EventKind.SLEEP_EXPIRED)
    eng.schedule(9.0, 3, EventKind.SLEEP_EXPIRED)
    eng.run_until(10.0)
    assert [t for t, _, _ in seen] == [2.0, 5.0, 9.0]
    assert eng.clock == 10.0


def test_equal_times_dispatch_fifo():
    eng = Engine(seed=1)
    seen = collect(eng)
    eng.schedule(3.0, 1, EventKind.SLEEP_EXPIRED)
    eng.schedule(3.0, 2, EventKind.WAIT_EXPIRED)
    eng.schedule(3.0, 3, EventKind.METRIC_SAMPLE)
    eng.run_until(5.0)
    assert [target for _, target, _ in seen] == [1, 2, 3]


def test_scheduling_in_the_past_rejected():
    eng = Engine(seed=1)
    eng.schedule(2.0, 1, EventKind.SLEEP_EXPIRED)
    eng.run_until(2.0)
    with pytest.raises(ClockViolationError):
        eng.schedule(1.0, 1, EventKind.SLEEP_EXPIRED)


def test_schedule_at_current_clock_allowed():
    eng = Engine(seed=1)
    seen = collect(eng)
    eng.schedule(2.0, 1, EventKind.SLEEP_EXPIRED)
    eng.run_until(5.0)
    eng.schedule(5.0, 2, EventKind.WAIT_EXPIRED)
    eng.run_until(5.0)
    assert len(seen) == 2


def test_cancel_pending_event():
    eng = Engine(seed=1)
    seen = collect(eng)
    handle = eng.schedule(4.0, 1, EventKind.SLEEP_EXPIRED)
    assert eng.cancel(handle) is True
    eng.run_until(10.0)
    assert seen == []


def test_cancel_twice_returns_false():
    eng = Engine(seed=1)
    handle = eng.schedule(4.0, 1, EventKind.SLEEP_EXPIRED)
    assert eng.cancel(handle) is True
    assert eng.cancel(handle) is False


def test_cancel_dispatched_event_returns_false():
    eng = Engine(seed=1)
    handle = eng.schedule(1.0, 1, EventKind.SLEEP_EXPIRED)
    eng.run_until(2.0)
    assert eng.cancel(handle) is False


def test_run_until_rejects_rewinding_the_clock():
    eng = Engine(seed=1)
    eng.run_until(10.0)
    with pytest.raises(ClockViolationError):
        eng.run_until(5.0)


def test_run_until_on_empty_queue_advances_clock():
    eng = Engine(seed=1)
    summary = eng.run_until(1000.0)
    assert eng.clock == 1000.0
    assert sum(summary.dispatched.values()) == 0


def test_events_beyond_horizon_stay_queued():
    eng = Engine(seed=1)
    seen = collect(eng)
    eng.schedule(7.0, 1, EventKind.SLEEP_EXPIRED)
    eng.run_until(5.0)
    assert seen == []
    eng.run_until(7.0)
    assert len(seen) == 1


def test_summary_counts_by_kind():
    eng = Engine(seed=1)
    collect(eng)
    eng.schedule(1.0, 1, EventKind.SLEEP_EXPIRED)
    eng.schedule(2.0, 1, EventKind.WAIT_EXPIRED)
    eng.schedule(3.0, 1, EventKind.WAIT_EXPIRED)
    summary = eng.run_until(10.0)
    assert summary.dispatched[EventKind.SLEEP_EXPIRED] == 1
    assert summary.dispatched[EventKind.WAIT_EXPIRED] == 2


# -- reschedule ----------------------------------------------------------------


def test_reschedule_later_moves_the_event_in_place():
    eng = Engine(seed=1)
    seen = collect(eng)
    handle = eng.schedule(2.0, 1, EventKind.CONN_TIMER_EXPIRED)
    eng.schedule(3.0, 2, EventKind.SLEEP_EXPIRED)
    assert eng.reschedule(handle, 3.0) is handle
    summary = eng.run_until(10.0)
    # the moved event took a fresh sequence number, so it sorts last at 3.0
    assert seen == [(3.0, 2, EventKind.SLEEP_EXPIRED),
                    (3.0, 1, EventKind.CONN_TIMER_EXPIRED)]
    assert sum(summary.dispatched.values()) == 2


def test_reschedule_earlier_or_spent_handle_schedules_anew():
    eng = Engine(seed=1)
    seen = collect(eng)
    handle = eng.schedule(5.0, 1, EventKind.CONN_TIMER_EXPIRED)
    moved = eng.reschedule(handle, 4.0)
    assert moved is not handle and handle.cancelled
    eng.run_until(4.5)
    again = eng.reschedule(moved, 6.0)  # dispatched: a new event
    assert again is not moved
    eng.run_until(10.0)
    assert seen == [(4.0, 1, EventKind.CONN_TIMER_EXPIRED),
                    (6.0, 1, EventKind.CONN_TIMER_EXPIRED)]


class ReferenceQueue:
    """Cancel and schedule only: every event keeps its (time, seq) for good."""

    def __init__(self):
        self.clock = 0.0
        self.next_seq = 0
        self.pending = {}  # seq -> (time, target, kind)
        self.seen = []
        self.counts = Counter()

    def schedule(self, time, target, kind):
        seq = self.next_seq
        self.next_seq += 1
        self.pending[seq] = (time, target, kind)
        return seq

    def cancel(self, seq):
        self.pending.pop(seq, None)

    def run_until(self, t_end):
        while True:
            due = [(t, s) for s, (t, _, _) in self.pending.items() if t <= t_end]
            if not due:
                break
            time, target, kind = self.pending.pop(min(due)[1])
            self.clock = time
            self.seen.append((time, target, kind))
            self.counts[kind] += 1
        self.clock = t_end


KINDS = (EventKind.SLEEP_EXPIRED, EventKind.CONN_TIMER_EXPIRED,
         EventKind.WAIT_EXPIRED)
# half-second steps so equal times, and equal old and new times, are common
STEPS = st.integers(0, 6).map(lambda k: 0.5 * k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reschedule_dispatches_like_cancel_and_schedule(data):
    eng, ref = Engine(seed=1), ReferenceQueue()
    seen, last_key, fired = [], [(-1.0, -1)], set()  # fired keeps events alive

    def handler(ev):
        # a re-filed entry must never get here: each event fires once, at
        # its current key, in key order
        assert not ev.cancelled and ev not in fired
        assert ev.time == eng.clock and (ev.time, ev.seq) > last_key[0]
        last_key[0] = (ev.time, ev.seq)
        fired.add(ev)
        seen.append((ev.time, ev.target, ev.kind))

    eng.handler = handler
    handles = []  # [engine handle, reference seq]; spent handles stay
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(
            ["schedule", "schedule", "cancel", "reschedule", "reschedule", "run"]))
        if op == "schedule" or not handles and op != "run":
            time = eng.clock + data.draw(STEPS)
            target = data.draw(st.integers(0, 3))
            kind = data.draw(st.sampled_from(KINDS))
            handles.append([eng.schedule(time, target, kind),
                            ref.schedule(time, target, kind)])
        elif op == "cancel":
            pair = data.draw(st.sampled_from(handles))
            eng.cancel(pair[0])
            ref.cancel(pair[1])
        elif op == "reschedule":
            pair = data.draw(st.sampled_from(handles))
            handle = pair[0]
            # later, equal or earlier than the handle's time, never behind
            # the clock; spent handles included
            time = max(eng.clock, handle.time + data.draw(STEPS) - 1.5)
            ref.cancel(pair[1])
            pair[:] = [eng.reschedule(handle, time),
                       ref.schedule(time, handle.target, handle.kind)]
        else:
            t_end = eng.clock + data.draw(STEPS)
            summary = eng.run_until(t_end)
            ref.run_until(t_end)
            assert summary.dispatched == ref.counts
    summary = eng.run_until(eng.clock + 10.0)
    ref.run_until(ref.clock + 10.0)
    assert seen == ref.seen
    assert summary.dispatched == ref.counts and summary.clock == ref.clock
    assert eng._next_seq == ref.next_seq  # sequence numbers used up alike


# -- randomness ---------------------------------------------------------------


def test_substreams_deterministic_per_seed():
    a = Engine(seed=42)
    b = Engine(seed=42)
    for node in (0, 3, 17):
        for stream in ("sleep", "conn", "shadow"):
            assert [a.uniform(node, stream) for _ in range(4)] == \
                   [b.uniform(node, stream) for _ in range(4)]


def test_substreams_differ_across_nodes_and_streams():
    eng = Engine(seed=42)
    draws = {(n, s): eng.uniform(n, s) for n in (0, 1) for s in ("sleep", "conn")}
    assert len(set(draws.values())) == 4


def test_substreams_independent_of_creation_order():
    a = Engine(seed=7)
    b = Engine(seed=7)
    a.uniform(0, "sleep")
    a_val = a.uniform(5, "sleep")
    b_val = b.uniform(5, "sleep")  # node 5 first; no node 0 draws
    assert a_val == b_val


def test_uniform_stays_inside_open_interval():
    eng = Engine(seed=3)
    for _ in range(1000):
        u = eng.uniform(0, "sleep")
        assert 0.0 < u < 1.0


def test_identical_runs_identical_traces():
    def trace(seed):
        eng = Engine(seed=seed)
        seen = collect(eng)
        for k in range(20):
            eng.schedule(eng.uniform(k % 3, "conn") * 50.0, k % 3,
                         EventKind.SLEEP_EXPIRED)
        eng.run_until(100.0)
        return seen

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)
