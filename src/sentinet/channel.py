"""Radio channel: log-distance path loss, LQI mapping, collision-aware delivery.

A transmission is one ``Frame`` record, made by ``make_frame`` and handed
as it is to the handlers that receive it: who sent which kind to whom at
what power, when it is on the air, and where it arrives at what power.
Frames occupy the air for a fixed duration; any time overlap between two
audible frames at a receiver destroys both receptions there (no capture
effect). Senders are half-duplex: a node transmitting during a frame's
interval cannot receive it. Collisions are settled when a frame is made:
it and every frame still on the air that overlaps it jam each other's
audible receivers and senders, so a delivery only reads its own frame.

Node positions are static, so each sender's path loss to the others is
computed once and kept in a link row: the nodes within a loss cap,
ascending by id. ``LinkRows`` owns the rows and makes each sender's power
maps from its row, once for a block of its frames; the guard graph in
``metrics`` reads the same rows. Without shadowing a map depends only on
the sender and its power, so one map serves all of that sender's frames at
that power, and their ``rx_dbm`` is shared and read-only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Optional

import numpy as np

from .engine import IndexedEnum

MIN_DISTANCE_M = 0.01  # co-located nodes are clamped to 1 cm
SHADOW_CLIP = 4.0  # shadowing draws are clipped to this many sigma either way


class MessageKind(IndexedEnum):
    PROBE = "probe"
    PROBE_REPLY = "probe_reply"
    CONN = "conn"
    CONN_REPLY = "conn_reply"


@dataclass(frozen=True)
class RadioConfig:
    power_levels: tuple[float, ...] = (-10.0, -5.0)  # dBm, ascending
    path_loss_exponent: float = 2.4
    reference_loss_db: float = 55.0  # at d0 = 1 m
    shadowing_sigma_db: float = 4.0
    noise_floor_dbm: float = -100.0
    sensitivity_dbm: float = -95.0
    lqi_threshold: int = 7
    lqi_snr_min_db: float = 0.0
    lqi_snr_max_db: float = 20.0
    tx_duration_s: float = 0.004

    def __post_init__(self):
        require_finite(self, "radio")
        if len(self.power_levels) < 1:
            raise ValueError("at least one transmit power level is required")
        if any(b <= a for a, b in zip(self.power_levels, self.power_levels[1:])):
            raise ValueError(f"power_levels must be strictly increasing: {self.power_levels}")
        if self.path_loss_exponent <= 0.0:
            raise ValueError("path_loss_exponent must be positive")
        if self.shadowing_sigma_db < 0.0:
            raise ValueError(f"shadowing_sigma_db must be >= 0, "
                             f"got {self.shadowing_sigma_db}")
        if self.sensitivity_dbm < self.noise_floor_dbm:
            raise ValueError("sensitivity must be at or above the noise floor")
        if self.lqi_snr_min_db >= self.lqi_snr_max_db:
            raise ValueError("lqi_snr_min_db must be below lqi_snr_max_db")
        if self.tx_duration_s <= 0.0:
            raise ValueError("tx_duration_s must be positive")


def require_finite(config, name: str) -> None:
    """Reject NaN/±inf in the float fields of a config dataclass, tuples
    included; nested config dataclasses check themselves."""
    for f in fields(config):
        for value in _floats(getattr(config, f.name)):
            if not math.isfinite(value):
                raise ValueError(f"{name}.{f.name} must be finite, got {value!r}")


def _floats(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


def compute_lqi(radio: RadioConfig, rx_dbm: float) -> int:
    """Map SNR above the noise floor onto the 0..10 link-quality scale."""
    snr = rx_dbm - radio.noise_floor_dbm
    span = radio.lqi_snr_max_db - radio.lqi_snr_min_db
    frac = (snr - radio.lqi_snr_min_db) / span
    frac = min(max(frac, 0.0), 1.0)
    # round half away from zero so the scale is language-neutral
    return int(math.floor(10.0 * frac + 0.5))


def weak_link_floor(radio: RadioConfig) -> float:
    """The least received power whose LQI reaches the threshold.

    LQI never falls as the power grows, so a reception is weak (LQI below
    the threshold) exactly when its power is below this floor: -inf when
    every LQI qualifies (threshold <= 0), +inf when none does (above 10).
    """
    threshold = radio.lqi_threshold
    if threshold <= 0:
        return -math.inf
    if threshold > 10:
        return math.inf
    # LQI >= t exactly when rx >= noise + snr_min + span * (t - 0.5) / 10;
    # rounding moves that edge by a few ulps of the terms, so the search
    # starts from the first of these powers where the LQI falls short
    span = radio.lqi_snr_max_db - radio.lqi_snr_min_db
    edge = (radio.noise_floor_dbm + radio.lqi_snr_min_db
            + span * (math.ceil(threshold) - 0.5) / 10.0)
    terms = abs(radio.noise_floor_dbm) + abs(radio.lqi_snr_min_db) + span + abs(edge)
    below = (edge, math.nextafter(edge, -math.inf), edge - 16.0 * math.ulp(terms),
             -math.inf)

    def holds(rx: float) -> bool:
        return compute_lqi(radio, rx) >= threshold

    return least_float(holds, next(rx for rx in below if not holds(rx)))


def path_loss_db(radio: RadioConfig, distance: np.ndarray) -> np.ndarray:
    """Log-distance path loss over an array of distances; the received
    power without shadowing is ``tx_power - path_loss_db(radio, d)``."""
    d = np.maximum(distance, MIN_DISTANCE_M)
    return radio.reference_loss_db + 10.0 * radio.path_loss_exponent * np.log10(d)


def loss_cap(tx: float, bound: float, smin: float = 0.0) -> float:
    """A path loss past which a ``tx`` dBm transmission arrives below
    ``bound`` dBm under any shadowing draw of at least ``smin`` dB; inf for
    a ``bound`` of -inf, which nothing arrives below.

    Past a cut at loss ``cap``, rx = (tx - L) - s <= (tx - cap) - smin, in
    floats too since rounding is monotone; the search settles the rounding
    from the cut in exact arithmetic up.
    """
    if bound == -math.inf:
        return math.inf
    return least_float(lambda cap: (tx - cap) - smin < bound, tx - bound - smin)


_SIGN = 1 << 63


def _order(x: float) -> int:
    """A double's place in the integer order of all doubles; 0.0 and -0.0
    share place 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (_SIGN - 1))


def _double(place: int) -> float:
    """The double at an integer place (``_order``'s inverse)."""
    bits = place if place >= 0 else -place | _SIGN
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_INF_PLACE = _order(math.inf)


def least_float(holds, start: float) -> float:
    """The least double at or above ``start`` where ``holds``, a predicate
    that stays true once true as its argument grows; +inf when no finite
    one does.

    Gallops up from ``start`` by doubling steps over the integer order of
    doubles, then bisects the last step: at most about 130 calls of
    ``holds``, and no NaN is ever passed, since the gallop stops at +inf.
    """
    if holds(start):
        return start
    lo = _order(start)  # holds fails here
    step, hi = 1, min(lo + 1, _INF_PLACE)
    while hi < _INF_PLACE and not holds(_double(hi)):
        lo, step = hi, 2 * step
        hi = min(lo + step, _INF_PLACE)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(_double(mid)):
            hi = mid
        else:
            lo = mid
    return _double(hi)


class LinkRows:
    """Per-sender link rows over static node positions, and power maps.

    A sender's row holds the other nodes whose path loss from it is at most
    ``cap``, ascending by id, with those losses. ``cap`` is one loss for all
    rows, set by the top power level so that it covers both readers: frames,
    whose shadowing draws are clipped at ±``SHADOW_CLIP`` sigma, cut where
    even the strongest clipped draw leaves a receiver below sensitivity, and
    the guard graph cuts at the weak-link floor. A node's power only rises
    and never passes the top level, so a row is built once, on first use,
    and never changes.
    ``next_map`` draws the shadowing of a sender's next max(1, 512 // N)
    frames at once from the generator ``shadow(sender)`` returns, asked for
    once per sender and kept: a block of one row of draws per frame, one
    column per position in the sender's row, the same values as frame by
    frame under Philox. Rows read only for the guard graph need no source.
    ``maps`` makes all of a block's maps in one 2-D numpy pass, so a block
    costs a fixed number of numpy calls however many frames it holds; a
    one-frame block takes a 1-D path that costs less.
    """

    def __init__(self, xs, ys, radio: RadioConfig, shadow=None):
        self._xs = np.asarray(xs, dtype=float)
        self._ys = np.asarray(ys, dtype=float)
        self._radio, self._shadow, self._sigma = radio, shadow, radio.shadowing_sigma_db
        self._clip = SHADOW_CLIP * self._sigma
        top, floor = radio.power_levels[-1], weak_link_floor(radio)
        self.cap = loss_cap(top, radio.sensitivity_dbm, -self._clip)
        if floor != -math.inf:  # else the guard graph links every pair, unread
            self.cap = max(self.cap, loss_cap(top, floor))
        # loss grows with distance, so every node within loss `cap` lies
        # within `reach`; the margin covers rounding, and the exact cut is
        # made on the loss itself
        self._reach = 1.001 * 10.0 ** min(
            (self.cap - radio.reference_loss_db) / (10.0 * radio.path_loss_exponent),
            300.0)
        n = self._xs.size
        self._rows: list[Optional[tuple]] = [None] * n
        self._block_frames = max(1, 512 // max(n, 1))
        self._pending: list = [None] * n  # by sender: [tx, block, maps left, last first]
        self._sources: list = [None] * n  # by sender: shadow(sender), once asked

    def __len__(self) -> int:
        """The number of nodes."""
        return len(self._rows)

    def row(self, sender: int) -> tuple[np.ndarray, np.ndarray]:
        """Ids (ascending) and path losses of ``sender``'s row, which holds
        exactly the other nodes within loss ``cap`` of it."""
        row = self._rows[sender]
        if row is None:
            row = self._rows[sender] = self._build(sender)
        return row

    def _build(self, sender: int) -> tuple[np.ndarray, np.ndarray]:
        dx = self._xs - self._xs[sender]
        dy = self._ys - self._ys[sender]
        near = np.flatnonzero(dx * dx + dy * dy <= self._reach * self._reach)
        near = near[near != sender]
        loss = path_loss_db(self._radio, np.hypot(dx[near], dy[near]))
        keep = loss <= self.cap
        return near[keep], loss[keep]

    def next_map(self, sender: int, tx: float) -> dict[int, float]:
        """The power map of ``sender``'s next frame, sent at ``tx`` dBm; a
        power rise remakes the maps of its block's frames left from the same
        draws. Without shadowing the map at each power is made once and
        shared."""
        pending = self._pending[sender]
        if pending is None or pending[0] != tx:
            if self._sigma == 0.0:
                block = None
            elif pending:
                block = pending[1][-len(pending[2]):]
            else:
                gen = self._sources[sender]
                if gen is None:
                    gen = self._sources[sender] = self._shadow(sender)
                block = gen.normal(0.0, self._sigma, size=(
                    self._block_frames, len(self.row(sender)[0])))
            # the last frame's map first, so each frame pops its own
            pending = self._pending[sender] = [tx, block,
                                               self.maps(sender, tx, block)[::-1]]
        maps = pending[2]
        if self._sigma == 0.0:  # never spent
            return maps[0]
        if len(maps) == 1:  # spent
            self._pending[sender] = None
        return maps.pop()

    def maps(self, sender: int, tx: float,
             block: Optional[np.ndarray] = None) -> list[dict[int, float]]:
        """The received-power maps of ``sender``'s frames at ``tx`` dBm, one
        per row of ``block``: each frame's per-receiver shadowing in dB, one
        column per position in the sender's row, clipped at ±``SHADOW_CLIP``
        sigma. Without a block, the one map of an unshadowed frame.

        A map holds the audible receivers, ascending by id; receivers below
        sensitivity can neither decode a frame nor disturb anyone else. The
        row reaches every receiver at the top power level, so the
        sensitivity mask alone cuts a frame at its own power. Each power is
        ``(tx - loss) - shadowing`` on either path, so a map is the same
        bytes however many frames its block holds.
        """
        sens, clip = self._radio.sensitivity_dbm, self._clip
        ids, loss = self.row(sender)
        if block is not None:
            # the ufuncs, not ndarray.clip, whose Python-level wrapper costs
            # more than the clip on blocks this small
            block = np.minimum(np.maximum(block, -clip), clip)
        if block is None or len(block) == 1:
            # two masks cost less than the 2-D pass's fixed calls when there
            # is one frame to share them
            rx = tx - loss if block is None else (tx - loss) - block[0]
            audible = rx >= sens
            return [dict(zip(ids[audible].tolist(), rx[audible].tolist()))]
        # one pass over the whole block; row-major nonzero lists each frame's
        # audible receivers in turn, ascending by id
        rx = (tx - loss) - block
        audible = rx >= sens
        frames, cols = audible.nonzero()
        maps = [{} for _ in range(len(block))]
        for k, nid, power in zip(frames.tolist(), ids[cols].tolist(),
                                 rx[audible].tolist()):
            maps[k][nid] = power
        return maps


@dataclass(eq=False, slots=True)
class Frame:
    """One transmission: what was sent, when it is on the air, and where
    it arrives at what power.

    Replies (``PROBE_REPLY``, ``CONN_REPLY``) are unicast to ``addressee``;
    probes and connectivity frames are broadcast, with no addressee. The
    handlers pass each kind's addressing as a constant, and the tests check
    it over whole runs, so a frame does not check it again. ``rx_dbm`` maps
    the audible receivers, ascending by id, to their received power,
    whatever their state; without shadowing, the frames a sender sends at
    one power share one such map, so nothing may change it. Nobody asleep
    when the frame started can receive it: a broadcast frame keeps, in
    ``awake_at_start``, its audible receivers that were awake then, and a
    unicast frame keeps one fact alone, in ``addressee_awake``: whether its
    addressee was audible and awake then. ``jammed`` holds the nodes that
    hear, or send, another frame overlapping this one: none of them can
    receive it. Frames compare by identity, so one can be removed from a
    list of frames on the air.
    """

    kind: MessageKind
    sender: int
    addressee: Optional[int]  # None = broadcast
    tx_power_dbm: float
    start: float
    end: float
    rx_dbm: dict[int, float] = field(default_factory=dict)
    awake_at_start: AbstractSet[int] = frozenset()  # broadcast only
    jammed: set[int] = field(default_factory=set)
    addressee_awake: bool = False  # unicast only


_NOBODY = frozenset()  # a unicast frame's awake_at_start


def make_frame(kind: MessageKind, sender: int, addressee: Optional[int],
               tx_power_dbm: float, start: float, rx_dbm: dict[int, float],
               awake_ids, radio: RadioConfig, on_air=()) -> Frame:
    """Make the frame ``sender`` starts at ``start`` with the power map
    ``rx_dbm`` (from ``LinkRows.next_map``), and settle its collisions with the
    frames ``on_air``.

    ``on_air`` holds frames that started no later than this one; each of
    them still on the air when this one starts adds its audible receivers
    and its sender to this frame's ``jammed`` set, and this frame's to its
    own. Of ``awake_ids``, the nodes awake now, a broadcast frame keeps its
    audible receivers, and a unicast frame whether its addressee is one.
    """
    jammed = set()
    for other in on_air:
        # a frame that ends as this one starts does not overlap it
        if other.end > start:
            jammed.update(other.rx_dbm)
            jammed.add(other.sender)
            other.jammed.update(rx_dbm)
            other.jammed.add(sender)
    end = start + radio.tx_duration_s
    if addressee is None:
        return Frame(kind, sender, None, tx_power_dbm, start, end, rx_dbm,
                     rx_dbm.keys() & awake_ids, jammed)
    return Frame(kind, sender, addressee, tx_power_dbm, start, end, rx_dbm,
                 _NOBODY, jammed, addressee in rx_dbm and addressee in awake_ids)


def deliver(frame: Frame, awake_now) -> list[int]:
    """Resolve a frame at its end time; returns the receiving ids, ascending.

    Candidate receivers are the audible ones awake at the frame's start and
    at its end (broadcast), or the addressee alone, tested by membership
    (unicast); a link row never holds its sender. A candidate receives the
    frame unless it is jammed.
    """
    addressee = frame.addressee
    if addressee is None:
        return sorted(frame.awake_at_start.intersection(awake_now) - frame.jammed)
    if (frame.addressee_awake and addressee in awake_now
            and addressee not in frame.jammed):
        return [addressee]
    return []


def overhearers(frame: Frame, listener_ids) -> list[int]:
    """Ids of the listeners other than the addressee that receive a unicast
    frame (same rules), ascending.

    Precondition: every listener was awake at the frame's start, so the
    scan covers its audible receivers among the listeners and keeps no
    awake set. The simulation's listeners are the guards at the frame's
    end, and a node is a guard only after probing for ``t_w``, which
    ``RunConfig`` keeps above four frame times (two frames and two reply
    slots): a guard at a frame's end was awake at its start.
    """
    return sorted((frame.rx_dbm.keys() & listener_ids)
                  .difference(frame.jammed, (frame.addressee,)))
