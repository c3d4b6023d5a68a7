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
computed once and kept in a link row (``LinkRows``): the nodes within a
loss cap, ascending by id. ``power_maps`` reads its sender's row instead of
the whole field, once for a block of that sender's frames; the guard graph
in ``metrics`` reads the same rows. Without shadowing a map depends only on
the sender and its power, so one map serves all of that sender's frames at
that power, and their ``rx_dbm`` is shared and read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Optional

import numpy as np

from .engine import IndexedEnum

MIN_DISTANCE_M = 0.01  # co-located nodes are clamped to 1 cm


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


def rx_power_dbm(radio: RadioConfig, tx_power: float, distance: float,
                 shadowing_db: float = 0.0) -> float:
    """Received power under log-distance path loss plus a shadowing term."""
    d = max(distance, MIN_DISTANCE_M)
    loss = radio.reference_loss_db + 10.0 * radio.path_loss_exponent * math.log10(d)
    return tx_power - (loss + shadowing_db)


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
    # the steps settle the rounding at that boundary
    span = radio.lqi_snr_max_db - radio.lqi_snr_min_db
    floor = (radio.noise_floor_dbm + radio.lqi_snr_min_db
             + span * (math.ceil(threshold) - 0.5) / 10.0)
    while compute_lqi(radio, floor) < threshold:
        floor = math.nextafter(floor, math.inf)
    while compute_lqi(radio, math.nextafter(floor, -math.inf)) >= threshold:
        floor = math.nextafter(floor, -math.inf)
    return floor


def path_loss_db(radio: RadioConfig, distance: np.ndarray) -> np.ndarray:
    """Log-distance path loss over an array of distances; the received
    power without shadowing is ``tx_power - path_loss_db(radio, d)``."""
    d = np.maximum(distance, MIN_DISTANCE_M)
    return radio.reference_loss_db + 10.0 * radio.path_loss_exponent * np.log10(d)


def loss_cap(tx: float, bound: float, smin: float = 0.0) -> float:
    """A path loss past which a ``tx`` dBm transmission arrives below
    ``bound`` dBm under any shadowing draw of at least ``smin`` dB.

    Past a cut at loss ``cap``, rx = (tx - L) - s <= (tx - cap) - smin, in
    floats too since rounding is monotone; the steps settle the rounding.
    """
    cap = tx - bound - smin
    while (tx - cap) - smin >= bound:
        cap = math.nextafter(cap, math.inf)
    return cap


class LinkRows:
    """Per-sender link rows over static node positions.

    A sender's row holds the other nodes whose path loss from it is at most
    the row's cap, ascending by id, with those losses. A row is built on its
    first use and rebuilt to a larger cap when a caller needs more; it never
    shrinks. A build adds headroom past the cap asked for: one shadowing
    sigma, so that the strongest draws of a sender's later blocks seldom
    force another build, and at least 1 dB, so that a row cut for a
    zero-sigma channel is not an ulp short of its next frame's needs.
    """

    def __init__(self, xs, ys, radio: RadioConfig):
        self._xs = np.asarray(xs, dtype=float)
        self._ys = np.asarray(ys, dtype=float)
        self._radio = radio
        self._headroom = max(radio.shadowing_sigma_db, 1.0)
        self._rows: list[Optional[tuple]] = [None] * self._xs.size

    def row(self, sender: int, cap: float) -> tuple[np.ndarray, np.ndarray]:
        """Ids (ascending) and path losses of ``sender``'s row, which holds
        every other node within loss ``cap`` of it, and maybe more."""
        row = self._rows[sender]
        if row is None or row[0] < cap:
            row = self._rows[sender] = self._build(sender, cap + self._headroom)
        return row[1], row[2]

    def _build(self, sender: int, cap: float) -> tuple:
        radio = self._radio
        dx = self._xs - self._xs[sender]
        dy = self._ys - self._ys[sender]
        # loss grows with distance, so every node within loss `cap` lies
        # within `reach`; the margin covers rounding, and the exact cut is
        # made on the loss itself
        reach = 1.001 * 10.0 ** min(
            (cap - radio.reference_loss_db) / (10.0 * radio.path_loss_exponent),
            300.0)
        near = np.flatnonzero(dx * dx + dy * dy <= reach * reach)
        near = near[near != sender]
        loss = path_loss_db(radio, np.hypot(dx[near], dy[near]))
        keep = loss <= cap
        return cap, near[keep], loss[keep]


def power_maps(links: LinkRows, sender: int, tx: float, radio: RadioConfig,
               block: np.ndarray) -> list[dict[int, float]]:
    """The received-power maps of ``sender``'s next frames at ``tx`` dBm,
    one per row of ``block``: each frame's per-receiver shadowing in dB,
    indexed by node id (a row of zeros for an unshadowed frame).

    A map holds the audible receivers, ascending by id; receivers below
    sensitivity can neither decode a frame nor disturb anyone else. Each
    power is ``(tx - loss) - shadowing``, so a map is the same bytes however
    many frames its block holds.
    """
    sens = radio.sensitivity_dbm
    # The row need only hold the receivers these frames could reach: cut
    # past the loss at which even the block's most negative draw leaves a
    # receiver below sensitivity, so locality needs no clip on the shadowing.
    smin = float(np.minimum.reduce(block, axis=None))
    ids, loss = links.row(sender, loss_cap(tx, sens, smin))
    base = tx - loss
    maps = []
    # one frame at a time, so a one-frame block costs what a lone frame did;
    # rows by index, as iterating an array ends in a raised IndexError
    for k in range(len(block)):
        rx = base - block[k][ids]
        audible = rx >= sens
        maps.append(dict(zip(ids[audible].tolist(), rx[audible].tolist())))
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
    one power share one such map, so nothing may change it.
    ``awake_at_start`` holds those of them that were awake when the frame
    started. Nobody else can receive the frame. ``jammed`` holds the nodes
    that hear, or send, another frame overlapping this one: none of them
    can receive it. Frames compare by identity, so one can be removed from
    a list of frames on the air.
    """

    kind: MessageKind
    sender: int
    addressee: Optional[int]  # None = broadcast
    tx_power_dbm: float
    start: float
    end: float
    rx_dbm: dict[int, float] = field(default_factory=dict)
    awake_at_start: AbstractSet[int] = frozenset()
    jammed: set[int] = field(default_factory=set)


def make_frame(kind: MessageKind, sender: int, addressee: Optional[int],
               tx_power_dbm: float, start: float, rx_dbm: dict[int, float],
               awake_ids, radio: RadioConfig, on_air=()) -> Frame:
    """Make the frame ``sender`` starts at ``start`` with the power map
    ``rx_dbm`` (from ``power_maps``), and settle its collisions with the
    frames ``on_air``.

    ``on_air`` holds frames that started no later than this one; each of
    them still on the air when this one starts adds its audible receivers
    and its sender to this frame's ``jammed`` set, and this frame's to its
    own.
    """
    jammed = set()
    for other in on_air:
        # a frame that ends as this one starts does not overlap it
        if other.end > start:
            jammed.update(other.rx_dbm)
            jammed.add(other.sender)
            other.jammed.update(rx_dbm)
            other.jammed.add(sender)
    return Frame(kind, sender, addressee, tx_power_dbm, start,
                 start + radio.tx_duration_s, rx_dbm, rx_dbm.keys() & awake_ids,
                 jammed)


def deliver(frame: Frame, awake_now) -> list[int]:
    """Resolve a frame at its end time; returns the receiving ids, ascending.

    Candidate receivers are the audible ones awake for the whole frame
    (broadcast) or the addressee alone (unicast); a link row never holds
    its sender. A candidate receives the frame unless it is jammed.
    """
    heard = frame.awake_at_start.intersection(awake_now) - frame.jammed
    addressee = frame.addressee
    if addressee is None:
        return sorted(heard)
    return [addressee] if addressee in heard else []


def overhearers(frame: Frame, listener_ids) -> list[int]:
    """Ids of the listeners other than the addressee that receive a unicast
    frame (same rules), ascending.

    Only listeners among the frame's audible receivers awake at its start
    can receive it, so the scan covers those rather than every listener.
    """
    addressee = frame.addressee
    return [nid for nid in sorted(frame.awake_at_start.intersection(listener_ids)
                                  - frame.jammed)
            if nid != addressee]
