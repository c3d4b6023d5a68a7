"""Network energy ledger: state draws integrated over time plus frame costs.

Draw constants approximate a low-power 802.15.4-class radio and are plain
configuration, echoed into run metadata; senders pay for every transmitted
frame whether or not it collides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import require_finite
from .protocol import NodeStatus


@dataclass(frozen=True)
class EnergyConfig:
    sleep_draw_w: float = 3e-6
    probe_awake_draw_w: float = 0.062  # radio in receive during the wait window
    active_draw_w: float = 0.062
    tx_draw_w: tuple[tuple[float, float], ...] = ((-10.0, 0.040), (-5.0, 0.046))

    def __post_init__(self):
        require_finite(self, "energy")
        draws = [self.sleep_draw_w, self.probe_awake_draw_w, self.active_draw_w]
        draws += [w for _, w in self.tx_draw_w]
        if any(w < 0.0 for w in draws):
            raise ValueError("power draws must be non-negative")

    def tx_draw(self, level_dbm: float) -> float:
        for level, watts in self.tx_draw_w:
            if level == level_dbm:
                return watts
        raise ValueError(f"no tx draw configured for {level_dbm} dBm")


def tx_cost(config: EnergyConfig, level_dbm: float, frame_duration: float) -> float:
    """Joules one frame at the given power level costs its sender."""
    if frame_duration < 0.0:
        raise ValueError(f"frame duration must be non-negative, got {frame_duration}")
    return config.tx_draw(level_dbm) * frame_duration


# Joule rows of an EnergyLedger: one per NodeStatus, at its index, then
# TX. A dead node draws 0 W into the DEAD row, which therefore only ever
# holds zeros.
SLEEP, PROBE, ACTIVE, DEAD = (NodeStatus.SLEEP.index, NodeStatus.PROBE.index,
                              NodeStatus.ACTIVE.index, NodeStatus.DEAD.index)
TX = len(NodeStatus)


class EnergyLedger:
    """Joules consumed by each of ``n`` nodes (indexed by node id), split by
    what the radio was doing, with the status each node accrues in (its
    ``NodeStatus.index``) and the time up to which it has been accrued."""

    def __init__(self, config: EnergyConfig, n: int):
        self.config = config
        self.joules = np.zeros((TX + 1, n))
        self.accrued_until = np.zeros(n)
        self.status = np.full(n, SLEEP, dtype=np.intp)
        self.draws = np.zeros(TX + 1)  # W by row
        self.draws[[SLEEP, PROBE, ACTIVE]] = (
            config.sleep_draw_w, config.probe_awake_draw_w, config.active_draw_w)
        self._ids = np.arange(n)
        self._tx_joules: dict[tuple[float, float], float] = {}  # add_tx's costs

    def node_totals(self) -> np.ndarray:
        """Each node's joules, summed sleep + probe + active + tx."""
        j = self.joules
        return ((j[SLEEP] + j[PROBE]) + j[ACTIVE]) + j[TX]


def set_status(ledger: EnergyLedger, node_id: int, status: NodeStatus) -> None:
    """Accrue node ``node_id`` at ``status``'s draw from its next touch on."""
    ledger.status[node_id] = status.index


def accrue_node(ledger: EnergyLedger, node_id: int, now: float) -> None:
    """Add one node's status draw times the time since its last touch."""
    dt = now - ledger.accrued_until[node_id]
    if dt < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    if dt > 0.0:
        code = ledger.status[node_id]
        ledger.joules[code, node_id] += ledger.draws[code] * dt
    ledger.accrued_until[node_id] = now


def accrue(ledger: EnergyLedger, now: float) -> None:
    """``accrue_node`` for every node at once.

    Each node gets the same ``draw * dt`` and ``+`` as it would one at a
    time. A node already touched at ``now`` adds ``+0.0``, which leaves its
    non-negative joules unchanged.
    """
    until = ledger.accrued_until
    if until.size and now < until.max():
        raise ValueError(f"dt must be non-negative, got {now - until.max()}")
    code = ledger.status
    ledger.joules[code, ledger._ids] += ledger.draws[code] * (now - until)
    until.fill(now)


def add_tx(ledger: EnergyLedger, node_id: int, level_dbm: float,
           frame_duration: float) -> float:
    """Charge node ``node_id`` for one frame; returns its joules."""
    key = (level_dbm, frame_duration)
    joules = ledger._tx_joules.get(key)
    if joules is None:
        joules = ledger._tx_joules[key] = tx_cost(ledger.config, level_dbm,
                                                 frame_duration)
    ledger.joules[TX, node_id] += joules
    return joules


def summarize(ledger: EnergyLedger) -> dict:
    """Network totals (dead nodes included).

    Each state's total is a left fold over the nodes in id order
    (``np.add.accumulate``, not the pairwise ``np.sum``), and the total is
    the left fold ``((sleep + probe) + active) + tx``, so the bytes do not
    depend on numpy's or Python's summation algorithm.
    """
    n = ledger.joules.shape[1]
    if n:
        by_row = np.add.accumulate(ledger.joules, axis=1)[:, -1].tolist()
        sleep, probe, active, tx = (by_row[SLEEP], by_row[PROBE],
                                    by_row[ACTIVE], by_row[TX])
    else:
        sleep = probe = active = tx = 0.0
    total = ((sleep + probe) + active) + tx
    mean = total / n if n else 0.0
    return {"total_j": total, "mean_per_node_j": mean,
            "by_state_j": {"sleep": sleep, "probe": probe,
                           "active": active, "tx": tx}}
