import itertools
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentinet import engine as engine_module
from sentinet.engine import (_BLOCK, _STREAMS, ClockViolationError, Engine,
                             EventKind, philox_first, substream_keys)


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
    dispatched = eng.run_until(1000.0)
    assert eng.clock == 1000.0
    assert sum(dispatched.values()) == 0


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
    dispatched = eng.run_until(10.0)
    assert dispatched[EventKind.SLEEP_EXPIRED] == 1
    assert dispatched[EventKind.WAIT_EXPIRED] == 2


# -- dispatch table ------------------------------------------------------------


class Owner:
    """What an engine's handlers get as their first argument."""


def one_of_each_kind(eng):
    """Schedule one event of every kind, the last kind first."""
    for at, kind in enumerate(reversed(EventKind)):
        eng.schedule(float(at), at, kind)


def test_engine_without_handlers_runs_its_queue():
    eng = Engine(seed=1)
    one_of_each_kind(eng)
    dispatched = eng.run_until(10.0)
    assert eng.clock == 10.0 and eng._queue == []
    assert dispatched == Counter(EventKind)


def test_every_kind_reaches_its_own_entry_with_the_owner():
    owner = Owner()
    eng, seen = Engine(seed=1, owner=owner), []
    for kind in EventKind:
        eng.handle(kind, lambda got, ev, kind=kind: seen.append((kind, got, ev)))
    one_of_each_kind(eng)
    eng.run_until(10.0)
    assert [kind for kind, _, _ in seen] == list(reversed(EventKind))
    assert all(got is owner and ev.kind is kind for kind, got, ev in seen)


def test_engine_holds_its_owner_weakly():
    owner = Owner()
    eng, got = Engine(seed=1, owner=owner), []
    eng.handle(EventKind.METRIC_SAMPLE, lambda o, ev: got.append(o))
    eng.schedule(1.0, None, EventKind.METRIC_SAMPLE)
    ref = weakref.ref(owner)
    del owner
    assert ref() is None
    eng.run_until(2.0)
    assert got == [None]


def test_assigned_handler_takes_every_kind_and_a_read_one_dispatches_as_the_table():
    eng, inner, outer = Engine(seed=1, owner=Owner()), [], []
    for kind in EventKind:
        eng.handle(kind, lambda o, ev, kind=kind: inner.append(kind))
    view = eng.handler
    # the view keeps the entries it was read with
    eng.handle(EventKind.TX_START, lambda o, ev: inner.append(None))

    def wrapped(ev):
        outer.append(ev.kind)
        view(ev)

    eng.handler = wrapped
    one_of_each_kind(eng)
    eng.run_until(10.0)
    assert inner == outer == list(reversed(EventKind))


# -- deferred moves ------------------------------------------------------------

CONN = EventKind.CONN_TIMER_EXPIRED


def deferring(eng, lo=1.0, hi=3.0):
    """Let ``eng`` defer connectivity timers, settled ``lo + u * (hi - lo)``
    after their last move for ``u`` the target's next conn draw; returns
    that delay."""
    def delay(u):
        return lo + u * (hi - lo)

    eng.deferrable(CONN, "conn", delay)
    return delay


def conn_draws(seed, node, n):
    """The first ``n`` conn draws of a node, served one at a time."""
    eng = Engine(seed=seed)
    return [eng.uniform(node, "conn") for _ in range(n)]


def test_defer_later_files_no_entry_and_settles_when_due():
    eng = Engine(seed=1)
    seen = collect(eng)
    delay = deferring(eng)
    handle = eng.schedule(2.0, 1, CONN)
    eng.schedule(2.0, 2, EventKind.SLEEP_EXPIRED)
    assert eng.defer([handle], 1.5, 2.5) is None
    # a fresh sequence number and an owed draw; the 2.0 entry bounds it
    assert (handle.time, handle.seq, handle.filed, handle.since) == (2.0, 2, 0, 1.5)
    assert len(eng._queue) == 2
    dispatched = eng.run_until(10.0)
    [u] = conn_draws(1, 1, 1)
    assert seen == [(2.0, 2, EventKind.SLEEP_EXPIRED), (1.5 + delay(u), 1, CONN)]
    assert (handle.since, handle.filed) == (None, -1)  # settled, then spent
    assert sum(dispatched.values()) == 2 and eng._queue == []


def test_defer_earlier_files_one_entry_and_spent_handles_stay_spent():
    # a move whose bound is earlier than the newest entry files one entry
    # at the bound; deferring a dispatched or cancelled handle takes a
    # sequence number and files nothing
    eng = Engine(seed=1)
    seen = collect(eng)
    delay = deferring(eng, lo=0.5, hi=0.75)
    handle = eng.schedule(5.0, 1, CONN)
    eng.defer([handle], 3.0, 3.5)
    assert (handle.time, handle.seq, handle.filed) == (3.5, 1, 1)
    assert heap_keys(eng) == [(3.5, 1), (5.0, 0)]  # the 5.0 entry is stale
    eng.run_until(4.5)
    [u, _] = conn_draws(1, 1, 2)
    assert seen == [(3.0 + delay(u), 1, CONN)] and handle.filed == -1
    cancelled = eng.schedule(8.0, 2, CONN)
    assert eng.cancel(cancelled) is True and cancelled.filed == -1
    eng.defer([handle, cancelled], 4.5, 5.0)
    assert (handle.seq, cancelled.seq) == (3, 4) and eng._next_seq == 5
    assert handle.filed == cancelled.filed == -1
    assert heap_keys(eng) == [(5.0, 0), (8.0, 2)]  # stale entries only
    eng.run_until(20.0)
    assert len(seen) == 1 and eng._queue == []


def test_settling_takes_one_draw_however_many_moves():
    # an event listed twice is moved twice; however many moves came since it
    # last settled, it settles with its target's next draw, once, and the
    # stream goes on from there
    for moves in (1, 2, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
        eng = Engine(seed=4)
        seen = collect(eng)
        delay = deferring(eng)
        handle = eng.schedule(50.0, 7, CONN)
        for k in range(moves // 2):
            eng.defer([handle, handle], 0.5 * k, 0.5 * k + 1.0)
        if moves % 2:
            eng.defer([handle], 0.5 * (moves // 2), 0.5 * (moves // 2) + 1.0)
        since = 0.5 * ((moves - 1) // 2)
        assert (handle.since, handle.seq) == (since, moves)
        eng.run_until(100.0)
        first, second = conn_draws(4, 7, 2)
        assert seen == [(since + delay(first), 7, CONN)], moves
        assert eng.uniform(7, "conn") == second, moves


def test_defer_bound_behind_the_clock_rejected():
    eng = Engine(seed=1)
    deferring(eng)
    handle = eng.schedule(8.0, 1, CONN)
    eng.run_until(7.0)
    with pytest.raises(ClockViolationError):
        eng.defer([handle], 6.0, 6.5)
    assert (handle.time, handle.seq, handle.filed, handle.since) == (8.0, 0, 0, None)
    assert eng._next_seq == 1


def test_defer_to_nan_bound_rejected():
    # a NaN key would leave the event undispatched for good; the move is
    # refused and the event stays pending at its old key
    eng = Engine(seed=1)
    seen = collect(eng)
    deferring(eng)
    handle = eng.schedule(5.0, 1, CONN)
    eng.schedule(7.0, 2, EventKind.SLEEP_EXPIRED)
    with pytest.raises(ClockViolationError):
        eng.defer([handle], 1.0, float("nan"))
    # still pending, at its old key
    assert (handle.time, handle.seq, handle.filed, handle.since) == (5.0, 0, 0, None)
    assert heap_keys(eng) == [(5.0, 0), (7.0, 1)]
    eng.run_until(10.0)
    assert seen == [(5.0, 1, CONN), (7.0, 2, EventKind.SLEEP_EXPIRED)]


def test_settling_before_the_bound_rejected():
    # a bound above a delay the draw gives would dispatch out of order
    eng = Engine(seed=1)
    deferring(eng, lo=1.0, hi=2.0)
    handle = eng.schedule(5.0, 1, CONN)
    eng.defer([handle], 0.0, 2.5)
    with pytest.raises(ClockViolationError):
        eng.run_until(10.0)


def test_settling_a_kind_not_deferrable_rejected():
    eng = Engine(seed=1)
    deferring(eng)
    handle = eng.schedule(5.0, 1, EventKind.SLEEP_EXPIRED)
    eng.defer([handle], 0.0, 1.0)
    with pytest.raises(ValueError, match="sleep_expired"):
        eng.run_until(10.0)


def heap_keys(engine):
    return sorted((time, seq) for time, seq, _ in engine._queue)


class ReferenceQueue:
    """Cancel and schedule only: an event keeps its (time, seq) until it is
    moved. A move cancels the event and schedules a stand-in for it at the
    bound, or at its pending time if that is earlier, as the engine keeps an
    earlier entry; when the stand-in comes due, the event draws its delay
    once and is scheduled at its settled time under the stand-in's seq."""

    def __init__(self, seed, delay):
        self.clock = 0.0
        self.next_seq = 0
        # seq -> [time, target, kind, since]; since is None once settled
        self.pending = {}
        self.seen = []
        self.counts = Counter()
        self.draws = Engine(seed=seed)  # the same substreams
        self.delay = delay

    def schedule(self, time, target, kind):
        seq = self.next_seq
        self.next_seq += 1
        self.pending[seq] = [time, target, kind, None]
        return seq

    def cancel(self, seq):
        """Whether the event was pending."""
        return self.pending.pop(seq, None) is not None

    def move(self, seq, since, bound):
        """Cancel, and schedule a stand-in owing a draw; a spent event takes
        a sequence number and stays spent."""
        if seq not in self.pending:
            self.next_seq += 1
            return seq
        time, target, kind, _ = self.pending.pop(seq)
        seq = self.schedule(min(time, bound), target, kind)
        self.pending[seq][3] = since
        return seq

    def run_until(self, t_end):
        while True:
            due = [(entry[0], s) for s, entry in self.pending.items()
                   if entry[0] <= t_end]
            if not due:
                break
            time, seq = min(due)
            entry = self.pending[seq]
            if entry[3] is not None:  # a stand-in: draw, and wait its turn
                u = self.draws.uniform(entry[1], "conn")
                entry[0], entry[3] = entry[3] + self.delay(u), None
                continue
            del self.pending[seq]
            self.clock = time
            self.seen.append((time, entry[1], entry[2]))
            self.counts[entry[2]] += 1
        self.clock = t_end


KINDS = (EventKind.SLEEP_EXPIRED, CONN, EventKind.WAIT_EXPIRED)
# half-second steps so equal times, and equal old and new times, are common
STEPS = st.integers(0, 6).map(lambda k: 0.5 * k)
# how far past a move its bound lies: up to the least delay, so a run step
# can leave a moved event owing its draw when the next move comes, at a
# later clock
BOUNDS = st.sampled_from([0.5, 1.0, 1.5])


def half_seconds(u):
    """A delay in half seconds from 1.5 to 3.5, so settled times tie."""
    return 0.5 * (3 + int(u * 5))


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_defer_dispatches_like_cancel_and_schedule(data):
    # against a reference that only cancels and schedules, drawing a moved
    # event's delay once, when its stand-in comes due: after every step
    # exactly the events the reference holds pending are live, each live
    # event's newest entry is filed at the reference time, under a seq at
    # or below the reference seq and equal to it once settled, and it owes
    # a draw from the same move's clock exactly when the reference's
    # stand-in does; an event moved again before it settles counts from
    # the last move; cancel succeeds exactly on a pending event
    eng, ref = Engine(seed=1), ReferenceQueue(1, half_seconds)
    for kind in KINDS:
        eng.deferrable(kind, "conn", half_seconds)
    # fired and cancelled keep events alive
    seen, last_key, fired, cancelled = [], [(-1.0, -1)], set(), set()

    def handler(ev):
        # a stale entry must never get here: each event fires once, spent,
        # at its current key, in key order, with nothing owed
        assert ev not in cancelled and ev not in fired
        assert ev.filed == -1 and ev.since is None
        assert ev.time == eng.clock and (ev.time, ev.seq) > last_key[0]
        last_key[0] = (ev.time, ev.seq)
        fired.add(ev)
        seen.append((ev.time, ev.target, ev.kind))

    eng.handler = handler

    def run(t_end):
        dispatched = eng.run_until(t_end)
        ref.run_until(t_end)
        assert dispatched == ref.counts

    def move(pairs):
        # one deferred move of 1-3 handles, a handle possibly listed twice;
        # pending and spent handles alike
        since = eng.clock
        bound = since + data.draw(BOUNDS)
        eng.defer([pair[0] for pair in pairs], since, bound)
        for pair in pairs:
            pair[1] = ref.move(pair[1], since, bound)

    # [engine handle, reference seq]; spent handles stay; each event has
    # its own target, so the order in which entries at one time settle does
    # not change what each event draws
    handles = []
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(
            ["schedule", "schedule", "cancel", "defer", "defer", "chain", "run"]))
        if op == "schedule" or not handles and op != "run":
            time = eng.clock + data.draw(STEPS)
            kind = data.draw(st.sampled_from(KINDS))
            target = len(handles)
            handles.append([eng.schedule(time, target, kind),
                            ref.schedule(time, target, kind)])
        elif op == "cancel":
            pair = data.draw(st.sampled_from(handles))
            pending = ref.cancel(pair[1])
            assert eng.cancel(pair[0]) is pending
            if pending:
                cancelled.add(pair[0])
        elif op == "defer":
            move(data.draw(st.lists(st.sampled_from(handles), min_size=1,
                                    max_size=3)))
        elif op == "chain":
            # 2-4 moves of one handle, the queue run between some of them
            chained = data.draw(st.sampled_from(handles))
            for _ in range(data.draw(st.integers(2, 4))):
                if data.draw(st.booleans()):
                    run(eng.clock + data.draw(STEPS))
                move([chained])
        else:
            run(eng.clock + data.draw(STEPS))
        filed = set(heap_keys(eng))
        for ev, seq in handles:
            assert (ev.filed >= 0) == (seq in ref.pending)
            if seq not in ref.pending:
                continue
            time, _, _, since = ref.pending[seq]
            assert ev.seq == seq and (ev.time, ev.filed) in filed
            assert ev.time == time and ev.filed <= seq
            assert ev.since == since
            assert since is not None or ev.filed == seq
    dispatched = eng.run_until(eng.clock + 10.0)
    ref.run_until(ref.clock + 10.0)
    assert seen == ref.seen
    assert dispatched == ref.counts and eng.clock == ref.clock
    assert eng._next_seq == ref.next_seq  # sequence numbers used up alike
    assert eng._queue == [] and not ref.pending
    # every event drew what the reference drew; a cancelled one never
    # settles on either side
    for ev, _ in handles:
        assert eng.uniform(ev.target, "conn") == \
            ref.draws.uniform(ev.target, "conn")


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


_PRIMED = 4  # draws in one Philox block, the block ``Engine.prime`` makes


class PlantedZeros:
    """A generator whose draws at the given positions read 0.0; ``drawn``
    is the position of its first draw."""

    def __init__(self, gen, zeros, drawn=0):
        self.gen, self.zeros, self.drawn = gen, zeros, drawn

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
    def __init__(self, seed, zeros, node_count=0):
        super().__init__(seed, node_count)
        self.zeros = zeros  # (node, stream) -> positions planted with 0.0

    def rng(self, node_id, stream):
        key = (node_id, stream)
        gen = self._rngs.get(key)
        if gen is None:
            # a primed stream's generator starts past its four primed draws
            drawn = _PRIMED if key in self._blocks else 0
            gen = self._rngs[key] = PlantedZeros(
                super().rng(node_id, stream), self.zeros.get(key, ()), drawn)
        return gen

    def prime(self, stream):
        def planted(keys):  # row k is node k's block
            words = philox_first(keys)
            for (node, name), positions in self.zeros.items():
                if name == stream:
                    words[node, [i for i in positions if i < _PRIMED]] = 0
            return words

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "philox_first", planted)
            super().prime(stream)


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
# planted zeros: a few anywhere in the first blocks, or a whole refill
ZEROS = st.one_of(
    st.sets(st.integers(0, 3 * _BLOCK - 1), max_size=6),
    st.integers(0, 2).map(lambda b: set(range(b * _BLOCK, (b + 1) * _BLOCK))))


@pytest.mark.oracle
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**200 - 1),
       order=st.lists(st.sampled_from(SUBSTREAMS), max_size=200),
       zeros=st.dictionaries(st.sampled_from(SUBSTREAMS), ZEROS, max_size=3))
def test_block_draws_match_scalar_draws(seed, order, zeros):
    # the uniform oracle: block-served draws under any interleaving of
    # nodes and streams equal scalar draws from fresh generators, zeros
    # (planted ones included) skipped alike, a refill of zeros too; every
    # block served is a list
    eng = PlantedEngine(seed, zeros)
    refs = {key: scalar_draws(seed, *key, zeros.get(key, ())) for key in SUBSTREAMS}
    for key in order:
        assert eng.uniform(*key) == next(refs[key])
        assert type(eng._blocks[key]) is list


# -- primed first blocks ------------------------------------------------------

WORDS = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1])


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=8))
@example(keys=[(0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (2**64 - 1, 0)])
def test_philox_first_matches_numpy(keys):
    # the block oracle: one vectorized pass gives each key's first Philox
    # outputs, words 0 and 2**64 - 1 included
    words = philox_first(np.array(keys, dtype=np.uint64))
    assert words.shape == (len(keys), _PRIMED) and words.dtype == np.uint64
    for row, key in zip(words, keys):
        ref = np.random.Philox(key=np.array(key, dtype=np.uint64))
        assert row.tolist() == ref.random_raw(_PRIMED).tolist()


# planted zeros: a few in the first ten draws, or the whole primed block
PRIMED_ZEROS = st.sets(st.integers(0, 9), max_size=6) | st.just(set(range(_PRIMED)))


@pytest.mark.oracle
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), nodes=st.integers(1, 5), data=st.data())
def test_primed_draws_match_scalar_draws(seed, nodes, data):
    # the primed oracle: each node's first ten sleep draws, served from the
    # primed block and then from a generator built past it, equal scalar
    # draws under any interleaving with each other and with unprimed conn
    # streams; zeros planted in or past the block are skipped alike
    streams = [(node, stream) for node in range(nodes) for stream in ("sleep", "conn")]
    zeros = data.draw(st.dictionaries(
        st.sampled_from([key for key in streams if key[1] == "sleep"]),
        PRIMED_ZEROS, max_size=3))
    order = data.draw(st.permutations(streams * 10))
    eng = PlantedEngine(seed, zeros, node_count=nodes)
    eng.prime("sleep")
    assert not eng._rngs
    refs = {key: scalar_draws(seed, *key, zeros.get(key, ())) for key in streams}
    for key in order:
        assert eng.uniform(*key) == next(refs[key])


def test_primed_stream_builds_its_generator_past_its_block():
    eng = Engine(11, node_count=3)
    eng.prime("sleep")
    assert all(len(eng._blocks[node, "sleep"]) == _PRIMED for node in range(3))
    first = [eng.uniform(1, "sleep") for _ in range(_PRIMED)]
    assert not eng._rngs  # no generator for draws the block served
    fifth = eng.uniform(1, "sleep")
    assert list(eng._rngs) == [(1, "sleep")]
    assert first + [fifth] == list(itertools.islice(scalar_draws(11, 1, "sleep"), 5))


@pytest.mark.oracle
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), nodes=st.integers(1, 40), draws=st.integers(1, 12))
def test_primed_draws_do_not_depend_on_the_node_count(seed, nodes, draws):
    # node k's sleep stream is the same whatever N is, primed or not
    few, many = Engine(seed, nodes), Engine(seed, 2 * nodes)
    few.prime("sleep")
    many.prime("sleep")
    for node in range(nodes):
        assert [few.uniform(node, "sleep") for _ in range(draws)] == \
            [many.uniform(node, "sleep") for _ in range(draws)]


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
