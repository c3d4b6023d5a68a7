"""Deterministic discrete-event core.

A single heap-backed queue dispatches events in nondecreasing time order,
breaking ties FIFO by insertion sequence. A pending event moves by a
deferred move (``defer``), made for timers that are re-armed to a random
delay far more often than they expire. The move gives the event a fresh
sequence number, as a new event would, and marks it as owing the delay's
draw instead of making it: it records the clock at the move, and files a
heap entry under (bound, seq) only when the event's live entry is later
than ``bound``, the earliest time the draw can give. An event's ``time``
and ``filed`` are the time and seq of its live entry; other entries are
stale, dropped when popped. Once cancelled or dispatched an event is spent:
``filed`` is -1, so no entry of it is live. When the live entry of an event
that owes a draw is popped, the event settles: the next draw of its
target's substream gives the delay from its last move, one fresh draw
however many moves came since it last settled, and the event is re-filed
under its settled (time, seq) unless that is the key just popped. The live
entry never sorts after the settled key, so events dispatch in key order.

All randomness flows through counter-based Philox substreams keyed by
(seed, node id, stream name), so a node's draws depend only on its own
draw indices and adding more nodes never perturbs existing streams. A
substream's Philox key equals numpy's ``SeedSequence(entropy=seed,
spawn_key=(node id, stream index)).generate_state(2, uint64)``, but no
SeedSequence is built per key: ``substream_keys`` takes the pool of one
``SeedSequence(seed)``, which has absorbed the seed, and ports the mixing
of the two spawn words of many keys into one vectorized pass, so an engine
that knows its node count derives every node's keys at construction and
builds each generator straight from its key.
``uniform`` pops a substream's draws from its block, a list, last draw
first; ``_as_blocks`` makes every block, from ``prime`` or from a refill of
``_BLOCK`` draws of ``gen.random``. Philox gives the same values in a block
as in scalar calls, and zeros are dropped from a block as the scalar retry
skips them, so the values are those of scalar draws. Philox is
counter-based, so ``philox_first`` ports its first block, four words, to one
numpy pass over many keys, and ``prime`` makes every node's first block of a
stream from it: the sleep draws every node makes at deployment cost no
generator, and a node builds one, past that block, only on its fifth draw.

Dispatch is a table of plain functions ``fn(owner, event)``, one per
``EventKind.index`` (``handle``). The engine holds its owner by a weak
reference, dereferenced once per ``run_until``, so the table makes no
cycle through it. ``handler`` views the table as one callable(event); it is
the one way to watch dispatch: read it, wrap it, assign the wrapper back.
"""

from __future__ import annotations

import heapq
import weakref
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# the draw scheme's version, in every output's meta line: Philox substreams,
# shadowing clipped at 4 sigma and drawn over the sender's link row, one
# fresh draw per settled deferred move
RNG_NAME = "philox3"

# Stable substream indices; also used for draws not owned by any node.
_STREAMS = {"sleep": 0, "conn": 2, "shadow": 3, "deploy": 4}
_SYSTEM_NODE = 0xFFFFFFFF
_BLOCK = 32  # draws per refill of a substream's block in ``uniform``

# numpy's SeedSequence constants: a pool of 4 32-bit words, hashed with a
# multiplier that advances on every use
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_U32, _SHIFT, _HIGH = np.uint64(_MASK), np.uint64(16), np.uint64(32)
_MIX_L64, _MIX_R64 = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)

# Philox4x64-10's round multipliers, as 32-bit halves, and its key bumps
# (Salmon et al., SC'11), one row per multiplied counter word
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M0, _PHILOX_M1 = _PHILOX_M & _U32, _PHILOX_M >> _HIGH
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_DOUBLE_SHIFT = np.uint64(11)  # random() keeps a word's top 53 bits


def _hash_consts(start: int, mult: int, n: int) -> list[int]:
    """The hash multiplier before and after each of ``n`` uses."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    return out


# generate_state(2, uint64) reads the 4 pool words once each
_OUT = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL), dtype=np.uint64)
_OUT_XOR, _OUT_MUL = _OUT[:-1].reshape(_POOL, 1, 1), _OUT[1:].reshape(_POOL, 1, 1)


def substream_keys(seed: int, nodes, streams) -> np.ndarray:
    """Philox keys of every (stream index, node id) pair, shape
    (len(streams), len(nodes), 2) uint64; each equals numpy's
    ``SeedSequence(entropy=seed, spawn_key=(node, stream)).generate_state(
    2, np.uint64)``. Node ids and stream indices are single 32-bit words.

    The pool words are held as uint32 values in uint64 arrays, so a product
    of two words never overflows and masking takes it modulo 2**32.
    """
    seed = int(seed)
    # absorbing the seed used the hash multiplier once per pool word, per
    # ordered pair of pool words, and per pool word per seed word past the pool
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    seed_words = (max(seed.bit_length(), 1) + 31) // 32
    uses = _POOL * _POOL + _POOL * max(0, seed_words - _POOL)
    h = _INIT_A * pow(_MULT_A, uses, _MASK + 1) & _MASK
    consts = np.array(_hash_consts(h, _MULT_A, 2 * _POOL), dtype=np.uint64)
    words = []
    for w in (nodes, streams):
        w = np.asarray(w, dtype=np.int64)
        if w.size and (w.min() < 0 or w.max() > _MASK):
            raise ValueError("node ids and stream indices must be in [0, 2**32)")
        words.append(w.astype(np.uint64))
    # (pool word, stream, node): each pool word absorbs the node word, then
    # the stream word, each hashed with the multiplier's next value
    p = pool.reshape(_POOL, 1, 1)
    for k, w in enumerate((words[0][None, None, :], words[1][None, :, None])):
        xor = consts[k * _POOL:(k + 1) * _POOL].reshape(_POOL, 1, 1)
        mul = consts[k * _POOL + 1:(k + 1) * _POOL + 1].reshape(_POOL, 1, 1)
        v = (w ^ xor) * mul & _U32
        v ^= v >> _SHIFT
        p = (_MIX_L64 * p - _MIX_R64 * v) & _U32
        p ^= p >> _SHIFT
    out = (p ^ _OUT_XOR) * _OUT_MUL & _U32
    out ^= out >> _SHIFT
    return np.stack([out[0] | out[1] << _HIGH, out[2] | out[3] << _HIGH], axis=-1)


def philox_first(keys) -> np.ndarray:
    """The four outputs of numpy's ``Philox(key=k)`` for each key ``k`` of
    an (n, 2) uint64 table, shape (n, 4): the block at counter (1, 0, 0, 0),
    since Philox bumps its counter before its first block.

    The high word of each 64 x 64-bit product is summed from products of
    32-bit halves, which never overflow. The counter words multiplied,
    (c0, c2), form one row pair and the words passed on, (c1, c3), another,
    so each round is one pass over both.
    """
    key = np.asarray(keys, dtype=np.uint64).T.copy()  # (k0, k1)
    mul, kept = np.zeros_like(key), np.zeros_like(key)  # (c0, c2), (c1, c3)
    mul[0] = 1
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        a0, a1 = mul & _U32, mul >> _HIGH
        p00, p01, p10 = a0 * _PHILOX_M0, a0 * _PHILOX_M1, a1 * _PHILOX_M0
        mid = (p00 >> _HIGH) + (p01 & _U32) + (p10 & _U32)
        high = a1 * _PHILOX_M1 + (p01 >> _HIGH) + (p10 >> _HIGH) + (mid >> _HIGH)
        # with products M0*c0 = (h0, l0) and M1*c2 = (h1, l1):
        # (c0, c1, c2, c3) <- (h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0)
        mul, kept = high[::-1] ^ kept ^ key, (mul * _PHILOX_M)[::-1]
    return np.stack([mul[0], kept[0], mul[1], kept[1]], axis=1)


def _as_blocks(draws: np.ndarray) -> list[list[float]]:
    """One block per row of ``draws``: last draw first, zeros dropped, as
    the scalar draws retry them."""
    blocks = draws[:, ::-1].tolist()
    if not draws.all():
        blocks = [[u for u in block if u != 0.0] for block in blocks]
    return blocks


class _Key(ISeedSequence):
    """Hands Philox a precomputed key where it asks a seed sequence for one."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a substream key is 2 uint64 words, "
                             f"not {n_words} {np.dtype(dtype)}")
        return self.key


class IndexedEnum(Enum):
    """An Enum whose members carry ``index``, their declaration position.

    Hot counters are lists indexed by it rather than dicts keyed by the
    members, whose ``Enum.__hash__`` runs as Python code on every update.
    """

    def __init__(self, *args):
        self.index = len(type(self).__members__)


class EventKind(IndexedEnum):
    SLEEP_EXPIRED = "sleep_expired"
    WAIT_EXPIRED = "wait_expired"
    CONN_TIMER_EXPIRED = "conn_timer_expired"
    TX_START = "tx_start"
    MSG_DELIVERY = "msg_delivery"
    NODE_FAILURE = "node_failure"
    METRIC_SAMPLE = "metric_sample"


class ClockViolationError(ValueError):
    """Raised when an event is scheduled before the current clock, or at a
    NaN time, which would break the heap order."""


@dataclass(eq=False, slots=True)
class Event:
    time: float
    seq: int
    target: Optional[int]  # None = system-wide
    kind: EventKind
    payload: Any = None
    filed: int = -1  # live entry's seq; -1 once spent (cancelled/dispatched)
    since: Optional[float] = None  # last move's clock while a draw is owed


class Engine:
    """Event queue, simulation clock, and seeded RNG substreams."""

    def __init__(self, seed: int, node_count: int = 0, owner=None):
        self.seed = int(seed)
        self._node_count = node_count
        # each stream's keys for nodes 0..node_count-1, then the system node
        self._keys = dict(zip(_STREAMS, substream_keys(
            self.seed, np.append(np.arange(node_count), _SYSTEM_NODE),
            list(_STREAMS.values()))))
        self.clock = 0.0
        self._owner = (lambda: None) if owner is None else weakref.ref(owner)
        self._handlers = [lambda owner, ev: None] * len(EventKind)
        # (time, seq, event): seq is unique, so events are never compared
        self._queue: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        # keyed by the caller's (node id, stream name), so a draw costs one
        # dict lookup
        self._rngs: dict[tuple[Optional[int], str], np.random.Generator] = {}
        # the undrawn rest of each substream's block, last draw first
        self._blocks: dict[tuple[Optional[int], str], list[float]] = {}
        self._counts = [0] * len(EventKind)  # dispatched, by EventKind.index
        # how a deferred move settles, by EventKind.index: (stream, delay)
        self._settle_by_kind = [None] * len(EventKind)

    # -- randomness -------------------------------------------------------

    def rng(self, node_id: Optional[int], stream: str) -> np.random.Generator:
        """The substream's generator, for array draws; a stream drawn
        through ``uniform`` must not be read here, since its generator runs
        ahead of the draws served. A primed stream's generator starts past
        the block ``prime`` served."""
        key = (node_id, stream)
        gen = self._rngs.get(key)
        if gen is None:
            bits = _Key(self._key(node_id, stream))
            # a block without a generator is a primed one: output 4 is next
            gen = self._rngs[key] = np.random.Generator(
                np.random.Philox(bits, counter=1) if key in self._blocks
                else np.random.Philox(bits))
        return gen

    def _key(self, node_id: Optional[int], stream: str) -> np.ndarray:
        keys = self._keys[stream]
        if node_id is None:
            return keys[-1]
        node = int(node_id)
        if 0 <= node < self._node_count:
            return keys[node]
        return substream_keys(self.seed, [node], [_STREAMS[stream]])[0, 0]

    def prime(self, stream: str) -> None:
        """Make the first block of ``stream`` for every node below the node
        count, from one vectorized Philox pass over the key table: the four
        draws at Philox's first counter, zeros dropped. No generator is
        built until a node's stream outruns its block. Call it before any
        draw of ``stream``."""
        n = self._node_count
        words = philox_first(self._keys[stream][:n]) >> _DOUBLE_SHIFT
        blocks = _as_blocks(words * 2.0 ** -53)
        self._blocks.update(zip(zip(range(n), [stream] * n), blocks))

    def uniform(self, node_id: Optional[int], stream: str) -> float:
        """Uniform draw strictly inside (0, 1); endpoint draws are retried.

        Draws pop from the substream's block, a primed stream's first one
        the block ``prime`` made; a missing or spent block is refilled with
        ``_BLOCK`` draws of its generator.
        """
        key = (node_id, stream)
        block = self._blocks.get(key)
        while not block:
            block = self._blocks[key] = _as_blocks(
                self.rng(node_id, stream).random(_BLOCK)[None])[0]
        return block.pop()

    # -- dispatch ---------------------------------------------------------

    def handle(self, kind: EventKind, fn) -> None:
        """Dispatch events of ``kind`` to ``fn(owner, event)``."""
        self._handlers[kind.index] = fn

    @property
    def handler(self):
        """A callable(event) that dispatches as the table does now;
        assigning a callable(event) sends every kind through it."""
        table, owner = list(self._handlers), self._owner
        return lambda ev: table[ev.kind.index](owner(), ev)

    @handler.setter
    def handler(self, fn) -> None:
        self._handlers[:] = [lambda owner, ev: fn(ev)] * len(EventKind)

    # -- queue ------------------------------------------------------------

    def schedule(self, time: float, target: Optional[int], kind: EventKind,
                 payload: Any = None) -> Event:
        if not time >= self.clock:  # NaN too
            raise ClockViolationError(
                f"cannot schedule {kind.value} at {time} behind clock {self.clock}")
        seq = self._next_seq
        ev = Event(time, seq, target, kind, payload, seq)
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def cancel(self, event: Event) -> bool:
        """Spend a pending event; False if it was cancelled or dispatched."""
        if event.filed < 0:
            return False
        event.filed = -1
        return True

    def deferrable(self, kind: EventKind, stream: str, delay) -> None:
        """Let ``defer`` move events of ``kind``: a settled event is due
        ``delay(u)`` after its last move, for ``u`` its target's next
        ``stream`` draw."""
        self._settle_by_kind[kind.index] = (stream, delay)

    def defer(self, events, since: float, bound: float) -> None:
        """Move each pending event to ``since`` plus a delay drawn when it
        comes due, in order; an event listed twice is moved twice.

        Each event takes the next sequence number and owes a draw of its
        kind's ``deferrable`` stream, made when it settles; ``bound``, at or
        after the clock, must not exceed ``since + delay(u)`` for any draw
        ``u``. A spent event takes a sequence number; nothing is filed for it.
        """
        if not bound >= self.clock:  # NaN too
            raise ClockViolationError(
                f"cannot defer to {bound} behind clock {self.clock}")
        queue, seq = self._queue, self._next_seq
        for ev in events:
            ev.seq = seq
            if ev.filed >= 0:
                ev.since = since
                if ev.time > bound:
                    ev.time = bound
                    ev.filed = seq
                    heapq.heappush(queue, (bound, seq, ev))
            seq += 1
        self._next_seq = seq

    def _settled(self, ev: Event, popped: float) -> float:
        """Draw an event's owed delay; returns its settled time."""
        settle = self._settle_by_kind[ev.kind.index]
        if settle is None:
            raise ValueError(f"{ev.kind.value} events are not deferrable")
        stream, delay = settle
        time = ev.since + delay(self.uniform(ev.target, stream))
        ev.since = None
        if not time >= popped:  # a bound above the delay, or NaN
            raise ClockViolationError(
                f"{ev.kind.value} settled at {time}, before its bound {popped}")
        return time

    def run_until(self, t_end: float) -> Counter:
        """Dispatch the events due by ``t_end``; returns the count of each
        kind dispatched since the engine was made."""
        if not t_end >= self.clock:  # NaN too
            raise ClockViolationError(
                f"cannot run to {t_end} behind clock {self.clock}")
        # handle changes the table in place, from the next event on
        queue, handlers, counts = self._queue, self._handlers, self._counts
        owner = self._owner()
        while queue and queue[0][0] <= t_end:
            time, seq, ev = heapq.heappop(queue)
            if seq != ev.filed:  # spent, or a stale entry
                continue
            if ev.since is not None:
                ev.time = self._settled(ev, time)
                if ev.time != time or ev.seq != seq:
                    ev.filed = ev.seq
                    heapq.heappush(queue, (ev.time, ev.seq, ev))
                    continue
            self.clock = time
            ev.filed = -1
            index = ev.kind.index
            counts[index] += 1
            handlers[index](owner, ev)
        self.clock = t_end
        return Counter({kind: n for kind, n in zip(EventKind, counts) if n})
