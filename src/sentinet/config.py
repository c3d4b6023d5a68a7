"""Run configuration: field geometry, protocol constants, and their echo format.

Every run resolves to a RunConfig; the flat key=value rendering written next
to the results is sufficient to reproduce the run byte-for-byte. ``KEYS``
lists each flat key once, in echo order, with the field(s) it holds; a
key's text form and parser follow from the type of its field's default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum

from .channel import RadioConfig, require_finite
from .energy import EnergyConfig
from .protocol import reply_slots
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

    def __init__(self, value: str):
        # plain attributes, not properties: link evidence reads them
        self.uses_conn_timer = value != "off"
        self.uses_piggyback = value == "piggybacked"


HAZARD_FEEDBACK_MODES = ("off", "global", "cycle")

# Every flat config key, in echo order, with the RunConfig field path(s) it
# holds. A path steps through attributes and tuple indices; "field" holds
# two, written WxH.
KEYS: dict[str, tuple[str, ...]] = {
    "nodes": ("node_count",),
    "field": ("field_width", "field_height"),
    "duration": ("duration",),
    "seed": ("seed",),
    "lambda": ("weibull.scale",),
    "beta": ("weibull.shape",),
    "link_control": ("link_control",),
    "sensing_range": ("sensing_range",),
    "grid_step": ("grid_step",),
    "tw": ("t_w",),
    "tc_min": ("t_c_range.0",),
    "tc_max": ("t_c_range.1",),
    "metric_interval": ("metric_interval",),
    "hazard_feedback": ("hazard_feedback",),
    "tx_levels": ("radio.power_levels",),
    "path_loss_exponent": ("radio.path_loss_exponent",),
    "reference_loss": ("radio.reference_loss_db",),
    "shadowing_sigma": ("radio.shadowing_sigma_db",),
    "noise_floor": ("radio.noise_floor_dbm",),
    "sensitivity": ("radio.sensitivity_dbm",),
    "lqi_threshold": ("radio.lqi_threshold",),
    "lqi_snr_min": ("radio.lqi_snr_min_db",),
    "lqi_snr_max": ("radio.lqi_snr_max_db",),
    "tx_duration": ("radio.tx_duration_s",),
    "sleep_draw": ("energy.sleep_draw_w",),
    "probe_draw": ("energy.probe_awake_draw_w",),
    "active_draw": ("energy.active_draw_w",),
    "tx_draw": ("energy.tx_draw_w",),
}


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
        for name, proto in _FIELD_DEFAULTS.items():  # ints as the floats echoed
            object.__setattr__(self, name, _floated(getattr(self, name), proto))
        require_finite(self, "config")
        if self.field_width <= 0.0 or self.field_height <= 0.0:
            raise ValueError("field dimensions must be positive")
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.seed < 0:  # substream keys take the seed's 32-bit words
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.t_c_range[0] > self.t_c_range[1]:
            raise ValueError(f"t_c_range min exceeds max: {self.t_c_range}")
        if self.t_c_range[0] < 0.0:
            raise ValueError("t_c_range must be non-negative")
        # not a field: every reply's slot delay reads it
        object.__setattr__(self, "reply_slots", reply_slots(self))
        slots, width = self.reply_slots
        if slots < 2:  # with one slot, every guard hearing a probe replies at once
            frame = self.radio.tx_duration_s
            raise ValueError(f"tw={self.t_w!r} must exceed two frames of tx_duration="
                             f"{frame!r} by two reply slots of {width:.6g}: at least "
                             f"{2.0 * frame + 2.0 * width:.6g}")
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
        for level, _ in self.energy.tx_draw_w:  # else no frame ever reads it
            if level not in self.radio.power_levels:
                levels = ",".join(repr(float(p)) for p in self.radio.power_levels)
                raise ValueError(f"tx_draw lists {float(level)!r} dBm, which "
                                 f"tx_levels={levels} does not list; set tx_draw="
                                 f"LEVEL:WATTS,... in a --config file, one pair "
                                 f"per tx_levels entry")

    # -- echo / hashing ----------------------------------------------------

    def to_flat(self) -> dict[str, str]:
        """Flat key=value view in ``KEYS`` order; parseable back via from_flat."""
        return {key: _text(tuple(_get(self, p) for p in paths), _PROTOS[key])
                for key, paths in KEYS.items()}

    @classmethod
    def from_flat(cls, flat: dict[str, str]) -> "RunConfig":
        """The config a flat view describes; keys it omits keep their defaults."""
        unknown = flat.keys() - KEYS.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        leaves = {}
        for key, text in flat.items():
            try:
                leaves.update(zip(KEYS[key], _parse(_PROTOS[key], text)))
            except ValueError as exc:
                raise ValueError(f"{key}={text!r}: {exc}") from exc
        return _with(_DEFAULT, leaves)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_flat(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# Separators between a key's fields (WxH), between the items of a tuple
# field, and between the parts of each pair in one (tx_draw's level:watts).
_SEPS = "x,:"


def _floated(value, proto):
    """``value``, nested configs and tuple items too, with a number (a numpy
    int too) stored as a float wherever its default ``proto`` holds a float."""
    if isinstance(proto, float):
        return value if isinstance(value, float) else float(value)
    if isinstance(proto, tuple) and proto and isinstance(value, tuple):
        return tuple(_floated(v, proto[min(i, len(proto) - 1)]) for i, v in enumerate(value))
    if is_dataclass(proto) and type(value) is type(proto):
        return replace(value, **{f.name: _floated(getattr(value, f.name),
                                                  getattr(proto, f.name))
                                 for f in fields(value)})
    return value


def _get(obj, path: str):
    for step in path.split("."):
        obj = obj[int(step)] if step.isdigit() else getattr(obj, step)
    return obj


def _text(value, proto, depth: int = 0) -> str:
    """``value`` written in the text form of ``proto``'s type and shape."""
    if isinstance(proto, float):
        return repr(float(value))
    if isinstance(proto, tuple):
        protos = (proto[0],) * len(value) if depth == 1 else proto
        return _SEPS[depth].join([_text(v, p, depth + 1)
                                  for v, p in zip(value, protos)])
    return value.value if isinstance(proto, Enum) else str(value)


def _parse(proto, text: str, depth: int = 0):
    """``text`` read as a value of ``proto``'s type and shape. A tuple field
    holds any number of items; a key's fields and a pair's parts are fixed
    in number."""
    if not isinstance(proto, tuple):
        return type(proto)(text)
    if depth == 1:
        return tuple(_parse(proto[0], part, 2) for part in text.split(","))
    parts = text.split(_SEPS[depth], len(proto) - 1)
    if len(parts) != len(proto):
        raise ValueError(
            f"expected {len(proto)} values separated by {_SEPS[depth]!r}")
    return tuple(_parse(p, part, depth + 1) for p, part in zip(proto, parts))


def _with(obj, leaves: dict):
    """``obj`` with the value at each path in ``leaves`` replaced; each
    object on those paths is rebuilt, and so validated, once."""
    if "" in leaves:
        return leaves[""]
    changes: dict = {}
    for path, value in leaves.items():
        step, _, rest = path.partition(".")
        changes.setdefault(step, {})[rest] = value
    new = {step: _with(_get(obj, step), sub) for step, sub in changes.items()}
    if isinstance(obj, tuple):
        return tuple(new.get(str(i), item) for i, item in enumerate(obj))
    return replace(obj, **new)


_FIELD_DEFAULTS = {f.name: f.default if f.default is not MISSING
                   else f.default_factory() for f in fields(RunConfig)}
_DEFAULT = RunConfig()
# each key's fields in a default RunConfig, whose types give the key's text
# form and parser
_PROTOS = {key: tuple(_get(_DEFAULT, p) for p in paths)
           for key, paths in KEYS.items()}
