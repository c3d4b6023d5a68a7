"""Per-node energy ledger: state draws integrated over time plus frame costs.

Draw constants approximate a low-power 802.15.4-class radio and are plain
configuration, echoed into run metadata; senders pay for every transmitted
frame whether or not it collides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import require_finite


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


@dataclass
class EnergyLedger:
    """Joules consumed by one node, split by what the radio was doing."""

    sleep_j: float = 0.0
    probe_j: float = 0.0
    active_j: float = 0.0
    tx_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.sleep_j + self.probe_j + self.active_j + self.tx_j

    def as_dict(self) -> dict[str, float]:
        return {"sleep": self.sleep_j, "probe": self.probe_j,
                "active": self.active_j, "tx": self.tx_j}


# status name -> (EnergyConfig draw attribute, EnergyLedger field); DEAD
# draws nothing. Enum members are looked up by ``_name_``, a plain attribute,
# because their ``name`` property costs more than the rest of accrue.
_STATE_DRAWS = {
    "SLEEP": ("sleep_draw_w", "sleep_j"),
    "PROBE": ("probe_awake_draw_w", "probe_j"),
    "ACTIVE": ("active_draw_w", "active_j"),
    "DEAD": None,
}


def accrue(ledger: EnergyLedger, config: EnergyConfig, status, dt: float) -> float:
    """Add state-draw * dt to the ledger; DEAD accrues nothing. Returns joules."""
    if dt < 0.0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    try:
        slot = _STATE_DRAWS[getattr(status, "_name_", status)]
    except KeyError:
        raise ValueError(f"unknown status {status!r}") from None
    if slot is None:
        return 0.0
    draw, spent = slot
    joules = getattr(config, draw) * dt
    setattr(ledger, spent, getattr(ledger, spent) + joules)
    return joules


def add_tx(ledger: EnergyLedger, config: EnergyConfig, level_dbm: float,
           frame_duration: float) -> float:
    joules = tx_cost(config, level_dbm, frame_duration)
    ledger.tx_j += joules
    return joules


def summarize(ledgers) -> dict:
    """Network totals over an iterable of ledgers (dead nodes included)."""
    ledgers = list(ledgers)
    by_state = {"sleep": 0.0, "probe": 0.0, "active": 0.0, "tx": 0.0}
    for led in ledgers:
        for key, val in led.as_dict().items():
            by_state[key] += val
    total = sum(by_state.values())
    mean = total / len(ledgers) if ledgers else 0.0
    return {"total_j": total, "mean_per_node_j": mean, "by_state_j": by_state}
