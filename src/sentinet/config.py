"""Run configuration: field geometry, protocol constants, and their echo format.

Every run resolves to a RunConfig; the flat key=value rendering written next
to the results is sufficient to reproduce the run byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum

from .channel import RadioConfig, require_finite
from .energy import EnergyConfig
from .weibull import WeibullParams


class LinkControlMode(Enum):
    """How guards assess their links.

    Every mode except OFF runs the per-guard connectivity timer; in
    PIGGYBACKED mode, link evidence carried by overheard probe replies
    keeps resetting that timer, so busy guards rarely need a standalone
    connectivity round and sentry-to-sentry traffic shrinks.
    """

    OFF = "off"
    STANDALONE = "standalone"
    PIGGYBACKED = "piggybacked"

    @property
    def uses_conn_timer(self) -> bool:
        return self is not LinkControlMode.OFF

    @property
    def uses_piggyback(self) -> bool:
        return self is LinkControlMode.PIGGYBACKED


HAZARD_FEEDBACK_MODES = ("off", "global", "cycle")


@dataclass(frozen=True)
class RunConfig:
    field_width: float = 100.0
    field_height: float = 100.0
    node_count: int = 50
    duration: float = 1000.0
    seed: int = 0
    weibull: WeibullParams = field(default_factory=lambda: WeibullParams(0.05, 2.0))
    radio: RadioConfig = field(default_factory=RadioConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    link_control: LinkControlMode = LinkControlMode.PIGGYBACKED
    sensing_range: float = 15.0
    t_w: float = 0.1
    t_c_range: tuple[float, float] = (5.0, 15.0)
    grid_step: float = 1.0
    metric_interval: float = 1.0
    hazard_feedback: str = "off"

    def __post_init__(self):
        require_finite(self, "config")
        if self.field_width <= 0.0 or self.field_height <= 0.0:
            raise ValueError("field dimensions must be positive")
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.t_c_range[0] > self.t_c_range[1]:
            raise ValueError(f"t_c_range min exceeds max: {self.t_c_range}")
        if self.t_c_range[0] < 0.0:
            raise ValueError("t_c_range must be non-negative")
        if self.t_w <= 0.0:
            raise ValueError("t_w must be positive")
        if self.sensing_range <= 0.0:
            raise ValueError("sensing_range must be positive")
        if self.grid_step <= 0.0:
            raise ValueError("grid_step must be positive")
        if self.metric_interval <= 0.0:
            raise ValueError("metric_interval must be positive")
        if self.hazard_feedback not in HAZARD_FEEDBACK_MODES:
            raise ValueError(f"hazard_feedback must be one of {HAZARD_FEEDBACK_MODES}")
        for level in self.radio.power_levels:
            self.energy.tx_draw(level)  # raises if a level has no draw

    # -- echo / hashing ----------------------------------------------------

    def to_flat(self) -> dict[str, str]:
        """Flat key=value view; parseable back via from_flat."""
        r, e = self.radio, self.energy
        return {
            "nodes": str(self.node_count),
            "field": f"{_num(self.field_width)}x{_num(self.field_height)}",
            "duration": _num(self.duration),
            "seed": str(self.seed),
            "lambda": _num(self.weibull.scale),
            "beta": _num(self.weibull.shape),
            "link_control": self.link_control.value,
            "sensing_range": _num(self.sensing_range),
            "grid_step": _num(self.grid_step),
            "tw": _num(self.t_w),
            "tc_min": _num(self.t_c_range[0]),
            "tc_max": _num(self.t_c_range[1]),
            "metric_interval": _num(self.metric_interval),
            "hazard_feedback": self.hazard_feedback,
            "tx_levels": ",".join(_num(p) for p in r.power_levels),
            "path_loss_exponent": _num(r.path_loss_exponent),
            "reference_loss": _num(r.reference_loss_db),
            "shadowing_sigma": _num(r.shadowing_sigma_db),
            "noise_floor": _num(r.noise_floor_dbm),
            "sensitivity": _num(r.sensitivity_dbm),
            "lqi_threshold": str(r.lqi_threshold),
            "lqi_snr_min": _num(r.lqi_snr_min_db),
            "lqi_snr_max": _num(r.lqi_snr_max_db),
            "tx_duration": _num(r.tx_duration_s),
            "sleep_draw": _num(e.sleep_draw_w),
            "probe_draw": _num(e.probe_awake_draw_w),
            "active_draw": _num(e.active_draw_w),
            "tx_draw": ",".join(f"{_num(l)}:{_num(w)}" for l, w in e.tx_draw_w),
        }

    @classmethod
    def from_flat(cls, flat: dict[str, str]) -> "RunConfig":
        base = cls()
        f = dict(flat)

        def take(key, cast, default):
            return cast(f.pop(key)) if key in f else default

        width, height = base.field_width, base.field_height
        if "field" in f:
            w, _, h = f.pop("field").partition("x")
            width, height = float(w), float(h)
        radio = replace(
            base.radio,
            power_levels=take("tx_levels", _float_tuple, base.radio.power_levels),
            path_loss_exponent=take("path_loss_exponent", float, base.radio.path_loss_exponent),
            reference_loss_db=take("reference_loss", float, base.radio.reference_loss_db),
            shadowing_sigma_db=take("shadowing_sigma", float, base.radio.shadowing_sigma_db),
            noise_floor_dbm=take("noise_floor", float, base.radio.noise_floor_dbm),
            sensitivity_dbm=take("sensitivity", float, base.radio.sensitivity_dbm),
            lqi_threshold=take("lqi_threshold", int, base.radio.lqi_threshold),
            lqi_snr_min_db=take("lqi_snr_min", float, base.radio.lqi_snr_min_db),
            lqi_snr_max_db=take("lqi_snr_max", float, base.radio.lqi_snr_max_db),
            tx_duration_s=take("tx_duration", float, base.radio.tx_duration_s),
        )
        energy = replace(
            base.energy,
            sleep_draw_w=take("sleep_draw", float, base.energy.sleep_draw_w),
            probe_awake_draw_w=take("probe_draw", float, base.energy.probe_awake_draw_w),
            active_draw_w=take("active_draw", float, base.energy.active_draw_w),
            tx_draw_w=take("tx_draw", _draw_tuple, base.energy.tx_draw_w),
        )
        cfg = cls(
            field_width=width,
            field_height=height,
            node_count=take("nodes", int, base.node_count),
            duration=take("duration", float, base.duration),
            seed=take("seed", int, base.seed),
            weibull=WeibullParams(scale=take("lambda", float, base.weibull.scale),
                                  shape=take("beta", float, base.weibull.shape)),
            radio=radio,
            energy=energy,
            link_control=LinkControlMode(take("link_control", str, base.link_control.value)),
            sensing_range=take("sensing_range", float, base.sensing_range),
            t_w=take("tw", float, base.t_w),
            t_c_range=(take("tc_min", float, base.t_c_range[0]),
                       take("tc_max", float, base.t_c_range[1])),
            grid_step=take("grid_step", float, base.grid_step),
            metric_interval=take("metric_interval", float, base.metric_interval),
            hazard_feedback=take("hazard_feedback", str, base.hazard_feedback),
        )
        if f:
            raise ValueError(f"unknown config keys: {sorted(f)}")
        return cfg

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_flat(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _num(x: float) -> str:
    return repr(float(x))


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _draw_tuple(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in text.split(","):
        level, _, watts = part.partition(":")
        pairs.append((float(level), float(watts)))
    return tuple(pairs)
