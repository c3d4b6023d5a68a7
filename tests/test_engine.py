from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentinet.engine import (_BLOCK, _STREAMS, ClockViolationError, Engine,
                             EventKind, substream_keys)


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


def test_scheduling_at_nan_rejected():
    # a NaN key compares false both ways and would break the heap order
    eng = Engine(seed=1)
    with pytest.raises(ClockViolationError):
        eng.schedule(float("nan"), 1, EventKind.NODE_FAILURE)
    assert eng._queue == []


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


def test_run_until_nan_rejected():
    # a NaN clock would compare false with every later time
    eng = Engine(seed=1)
    eng.run_until(3.0)
    with pytest.raises(ClockViolationError):
        eng.run_until(float("nan"))
    assert eng.clock == 3.0


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
    # an earlier move is made in place too; only a spent handle is replaced
    eng = Engine(seed=1)
    seen = collect(eng)
    handle = eng.schedule(5.0, 1, EventKind.CONN_TIMER_EXPIRED)
    moved = eng.reschedule(handle, 4.0)
    assert moved is handle and not handle.cancelled
    assert len(eng._queue) == 2  # filed anew at 4.0; the 5.0 entry is stale
    eng.run_until(4.5)
    again = eng.reschedule(moved, 6.0)  # dispatched: a new event
    assert again is not moved
    eng.run_until(10.0)
    assert seen == [(4.0, 1, EventKind.CONN_TIMER_EXPIRED),
                    (6.0, 1, EventKind.CONN_TIMER_EXPIRED)]
    assert eng._queue == []


def test_reschedule_earlier_behind_the_clock_rejected():
    eng = Engine(seed=1)
    handle = eng.schedule(8.0, 1, EventKind.CONN_TIMER_EXPIRED)
    eng.run_until(7.0)
    with pytest.raises(ClockViolationError):
        eng.reschedule(handle, 6.5)
    assert (handle.time, handle.seq) == (8.0, 0)


def test_reschedule_to_nan_rejected():
    # a NaN key would leave the event undispatched for good; the move is
    # refused and the event stays pending at its old key
    eng = Engine(seed=1)
    seen = collect(eng)
    handle = eng.schedule(5.0, 1, EventKind.CONN_TIMER_EXPIRED)
    eng.schedule(7.0, 2, EventKind.SLEEP_EXPIRED)
    with pytest.raises(ClockViolationError):
        eng.reschedule(handle, float("nan"))
    assert (handle.time, handle.seq, handle.filed) == (5.0, 0, 0)
    assert not handle.cancelled and not handle.dispatched
    assert sorted(key[:2] for key in eng._queue) == [(5.0, 0), (7.0, 1)]
    eng.run_until(10.0)
    assert seen == [(5.0, 1, EventKind.CONN_TIMER_EXPIRED),
                    (7.0, 2, EventKind.SLEEP_EXPIRED)]


class CancelAndSchedule(Engine):
    """The engine with every earlier move made as a cancel and a schedule,
    so each event has one heap entry: the heap work moves in place must
    match."""

    def reschedule(self, event, time):
        if not (event.cancelled or event.dispatched) and time < event.time:
            self.cancel(event)
            return self.schedule(time, event.target, event.kind, event.payload)
        return super().reschedule(event, time)


def heap_keys(engine):
    return sorted((time, seq) for time, seq, _ in engine._queue)


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


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reschedule_dispatches_like_cancel_and_schedule(data):
    # against a reference that only cancels and schedules, and against the
    # engine that makes earlier moves that way, whose heap must hold the
    # same keys after every step
    eng, ref, base = Engine(seed=1), ReferenceQueue(), CancelAndSchedule(seed=1)
    seen, last_key, fired = [], [(-1.0, -1)], set()  # fired keeps events alive

    def handler(ev):
        # a stale entry must never get here: each event fires once, at
        # its current key, in key order
        assert not ev.cancelled and ev not in fired
        assert ev.time == eng.clock and (ev.time, ev.seq) > last_key[0]
        last_key[0] = (ev.time, ev.seq)
        fired.add(ev)
        seen.append((ev.time, ev.target, ev.kind))

    eng.handler = handler

    def run(t_end):
        summary = eng.run_until(t_end)
        ref.run_until(t_end)
        base.run_until(t_end)
        assert summary.dispatched == ref.counts

    def move(handles):
        handle = handles[0]
        # later, equal or earlier than the handle's time, never behind the
        # clock; spent handles included
        time = max(eng.clock, handle.time + data.draw(STEPS) - 1.5)
        ref.cancel(handles[1])
        handles[:] = [eng.reschedule(handle, time),
                      ref.schedule(time, handle.target, handle.kind),
                      base.reschedule(handles[2], time)]

    handles = []  # [engine handle, reference seq, base handle]; spent stay
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(
            ["schedule", "schedule", "cancel", "reschedule", "reschedule",
             "chain", "run"]))
        if op == "schedule" or not handles and op != "run":
            time = eng.clock + data.draw(STEPS)
            target = data.draw(st.integers(0, 3))
            kind = data.draw(st.sampled_from(KINDS))
            handles.append([eng.schedule(time, target, kind),
                            ref.schedule(time, target, kind),
                            base.schedule(time, target, kind)])
        elif op == "cancel":
            pair = data.draw(st.sampled_from(handles))
            eng.cancel(pair[0])
            ref.cancel(pair[1])
            base.cancel(pair[2])
        elif op == "reschedule":
            move(data.draw(st.sampled_from(handles)))
        elif op == "chain":
            # 2-4 moves of one handle, earlier and later mixed, the queue
            # run between some of them
            chained = data.draw(st.sampled_from(handles))
            for _ in range(data.draw(st.integers(2, 4))):
                if data.draw(st.booleans()):
                    run(eng.clock + data.draw(STEPS))
                move(chained)
        else:
            run(eng.clock + data.draw(STEPS))
        assert heap_keys(eng) == heap_keys(base)
    summary = eng.run_until(eng.clock + 10.0)
    ref.run_until(ref.clock + 10.0)
    base.run_until(base.clock + 10.0)
    assert seen == ref.seen
    assert summary.dispatched == ref.counts and summary.clock == ref.clock
    assert eng._next_seq == ref.next_seq  # sequence numbers used up alike
    assert heap_keys(eng) == heap_keys(base)


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


class PlantedZeros:
    """A generator whose draws at the given positions read 0.0."""

    def __init__(self, gen, zeros):
        self.gen, self.zeros, self.drawn = gen, zeros, 0

    def random(self, size=None):
        first = self.drawn
        if size is None:
            self.drawn += 1
            value = self.gen.random()
            return 0.0 if first in self.zeros else value
        self.drawn += size
        values = self.gen.random(size)
        values[[i - first for i in self.zeros if first <= i < self.drawn]] = 0.0
        return values


class PlantedEngine(Engine):
    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros = zeros  # (node, stream) -> positions planted with 0.0

    def rng(self, node_id, stream):
        gen = self._rngs.get((node_id, stream))
        if gen is None:
            gen = self._rngs[node_id, stream] = PlantedZeros(
                super().rng(node_id, stream), self.zeros.get((node_id, stream), ()))
        return gen


def scalar_draws(seed, node, stream, zeros=()):
    """The scalar reference: a fresh generator, one ``random()`` a draw,
    zeros retried."""
    index = {"sleep": 0, "conn": 2}[stream]
    key = (0xFFFFFFFF if node is None else node, index)
    gen = PlantedZeros(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=key))), zeros)
    while True:
        u = gen.random()
        if u != 0.0:
            yield u


SUBSTREAMS = [(node, stream) for node in (None, 0, 1, 7)
              for stream in ("sleep", "conn")]
# planted zeros: a few anywhere in the first blocks, or a whole block
ZEROS = st.one_of(
    st.sets(st.integers(0, 3 * _BLOCK + 1), max_size=6),
    st.integers(0, 2).map(lambda b: set(range(1 + b * _BLOCK, 1 + (b + 1) * _BLOCK))))


@pytest.mark.oracle
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**200 - 1),
       order=st.lists(st.sampled_from(SUBSTREAMS), max_size=200),
       zeros=st.dictionaries(st.sampled_from(SUBSTREAMS), ZEROS, max_size=3))
def test_block_draws_match_scalar_draws(seed, order, zeros):
    # the uniform oracle: block-served draws under any interleaving of
    # nodes and streams equal scalar draws from fresh generators, zeros
    # (planted ones included) skipped alike; a first draw makes no block
    eng = PlantedEngine(seed, zeros)
    refs = {key: scalar_draws(seed, *key, zeros.get(key, ())) for key in SUBSTREAMS}
    drawn = set()
    for key in order:
        assert eng.uniform(*key) == next(refs[key])
        if key not in drawn:
            assert key not in eng._blocks
            drawn.add(key)


# -- substream keys -----------------------------------------------------------

KEY_NODES = [0, 1, 123_456_789, 0xFFFFFFFF]


def seed_sequence(seed, node, index):
    return np.random.SeedSequence(entropy=seed, spawn_key=(node, index))


@pytest.mark.oracle
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200 - 1))
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**128 - 1)
@example(seed=2**128)
def test_substream_keys_match_seed_sequence(seed):
    # the key oracle: one vectorized pass gives numpy's SeedSequence state
    # for every (node, stream) word pair, seeds of one to seven words
    indices = list(_STREAMS.values())
    keys = substream_keys(seed, KEY_NODES, indices)
    assert keys.shape == (len(indices), len(KEY_NODES), 2)
    for row, index in enumerate(indices):
        for col, node in enumerate(KEY_NODES):
            ref = seed_sequence(seed, node, index)
            assert keys[row, col].tolist() == ref.generate_state(2, np.uint64).tolist()
    eng = Engine(seed, node_count=2)  # nodes 0 and 1 from the table, others one by one
    for stream, index in _STREAMS.items():
        for node in KEY_NODES:
            gen = eng.rng(None if node == 0xFFFFFFFF else node, stream)
            ref = np.random.Generator(np.random.Philox(seed_sequence(seed, node, index)))
            assert gen.random() == ref.random() and gen.normal() == ref.normal()


def test_table_and_single_keys_give_the_same_draws():
    table, alone = Engine(5, node_count=40), Engine(5)
    for node in (0, 17, 39, None):
        for stream in ("sleep", "conn"):
            assert [table.uniform(node, stream) for _ in range(40)] == \
                   [alone.uniform(node, stream) for _ in range(40)]


def test_generators_built_without_a_seed_sequence():
    # each generator takes its precomputed key, in the table or not
    eng = Engine(3, node_count=4)
    for node in (0, 3, 4, 10_000, None):
        for stream in _STREAMS:
            seq = eng.rng(node, stream).bit_generator.seed_seq
            assert not isinstance(seq, np.random.SeedSequence), (node, stream)
            with pytest.raises(ValueError):
                seq.generate_state(4)
            with pytest.raises(ValueError):
                seq.generate_state(2, np.uint32)


@pytest.mark.parametrize("node", [-1, 2**32])
def test_node_ids_outside_one_word_rejected(node):
    with pytest.raises(ValueError):
        Engine(1).uniform(node, "sleep")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Engine(-1)
