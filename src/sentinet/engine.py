"""Deterministic discrete-event core.

A single heap-backed queue dispatches events in nondecreasing time order,
breaking ties FIFO by insertion sequence. Moving a pending event
(``reschedule``) rewrites it in place, in either direction: it takes a
fresh sequence number, as a new event would. A move earlier files one new
heap entry under the new (time, seq); a move later files none. An entry
popped with a stale sequence number is re-filed under the event's current
(time, seq) when it is the event's newest filed entry, and dropped
otherwise, so the heap sees the same pushes and pops as cancelling and
scheduling anew would make.

All randomness flows through counter-based Philox substreams keyed by
(seed, node id, stream name), so a node's draws depend only on its own
draw indices and adding more nodes never perturbs existing streams.
``uniform`` serves a substream's draws after its first from blocks of
``gen.random(k)``: Philox gives the same values in a block as in k scalar
calls, and zeros are dropped from a block as the scalar retry skips them,
so the values are those of scalar draws.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

import numpy as np

RNG_NAME = "philox"

# Stable substream indices; also used for draws not owned by any node.
_STREAMS = {"sleep": 0, "conn": 2, "shadow": 3, "deploy": 4}
_SYSTEM_NODE = 0xFFFFFFFF
_BLOCK = 32  # draws per refill of a substream's block in ``uniform``


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
    cancelled: bool = False
    dispatched: bool = False
    filed: int = -1  # seq of the newest heap entry filed for this event


@dataclass
class RunSummary:
    clock: float
    dispatched: Counter

    def as_dict(self) -> dict:
        return {"clock": self.clock,
                "dispatched": {k.value: v for k, v in sorted(
                    self.dispatched.items(), key=lambda kv: kv[0].value)}}


class Engine:
    """Event queue, simulation clock, and seeded RNG substreams."""

    def __init__(self, seed: int, handler=None):
        self.seed = int(seed)
        self.clock = 0.0
        self.handler = handler  # callable(event) set by the simulation
        # (time, seq, event): seq is unique, so events are never compared
        self._queue: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        # keyed by the caller's (node id, stream name), so a draw costs one
        # dict lookup
        self._rngs: dict[tuple[Optional[int], str], np.random.Generator] = {}
        # the undrawn rest of each substream's block, last draw first
        self._blocks: dict[tuple[Optional[int], str], array] = {}
        self._counts = [0] * len(EventKind)  # dispatched, by EventKind.index

    # -- randomness -------------------------------------------------------

    def rng(self, node_id: Optional[int], stream: str) -> np.random.Generator:
        """The substream's generator, for array draws; a stream drawn
        through ``uniform`` must not be read here, since its generator runs
        ahead of the draws served."""
        gen = self._rngs.get((node_id, stream))
        if gen is None:
            key = (_SYSTEM_NODE if node_id is None else int(node_id), _STREAMS[stream])
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
            gen = self._rngs[node_id, stream] = np.random.Generator(np.random.Philox(seq))
        return gen

    def uniform(self, node_id: Optional[int], stream: str) -> float:
        """Uniform draw strictly inside (0, 1); endpoint draws are retried.

        The first draw of a substream is a scalar one, so a stream drawn
        once costs no block; later draws pop from a block refilled ``_BLOCK``
        values at a time.
        """
        key = (node_id, stream)
        block = self._blocks.get(key)
        if block:
            return block.pop()
        gen = self._rngs.get(key)
        if gen is None:
            gen = self.rng(node_id, stream)
            u = gen.random()
            while u == 0.0:
                u = gen.random()
            return u
        while not block:
            block = array("d", gen.random(_BLOCK)[::-1].tobytes())
            if 0.0 in block:  # the scalar draws retry these
                block = array("d", [u for u in block if u != 0.0])
        self._blocks[key] = block
        return block.pop()

    # -- queue ------------------------------------------------------------

    def schedule(self, time: float, target: Optional[int], kind: EventKind,
                 payload: Any = None) -> Event:
        if not time >= self.clock:  # NaN too
            raise ClockViolationError(
                f"cannot schedule {kind.value} at {time} behind clock {self.clock}")
        seq = self._next_seq
        ev = Event(time, seq, target, kind, payload, False, False, seq)
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def cancel(self, event: Event) -> bool:
        if event.cancelled or event.dispatched:
            return False
        event.cancelled = True
        return True

    def reschedule(self, event: Event, time: float) -> Event:
        """Move an event to ``time``; returns the handle now pending there.

        A pending event is rewritten in place with the next sequence number,
        so it sorts exactly where a fresh ``schedule`` would put it; a move
        earlier also files it under that key. A cancelled or dispatched
        handle is left alone and a new event is scheduled.
        """
        if event.cancelled or event.dispatched:
            return self.schedule(time, event.target, event.kind, event.payload)
        seq = self._next_seq
        if not time >= event.time:  # earlier, or NaN
            if not time >= self.clock:
                raise ClockViolationError(
                    f"cannot move {event.kind.value} to {time} behind clock {self.clock}")
            event.filed = seq
            heapq.heappush(self._queue, (time, seq, event))
        event.time = time
        event.seq = seq
        self._next_seq = seq + 1
        return event

    def run_until(self, t_end: float) -> RunSummary:
        if not t_end >= self.clock:  # NaN too
            raise ClockViolationError(
                f"cannot run to {t_end} behind clock {self.clock}")
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            _, seq, ev = heapq.heappop(queue)
            if ev.cancelled:
                continue
            if seq != ev.seq:  # moved since this entry was filed
                if seq == ev.filed:  # its newest entry: it moved later
                    ev.filed = ev.seq
                    heapq.heappush(queue, (ev.time, ev.seq, ev))
                continue
            self.clock = ev.time
            ev.dispatched = True
            self._counts[ev.kind.index] += 1
            if self.handler is not None:
                self.handler(ev)
        self.clock = t_end
        return RunSummary(clock=self.clock, dispatched=Counter(
            {kind: n for kind, n in zip(EventKind, self._counts) if n}))
