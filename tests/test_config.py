import dataclasses
import math
import re
import typing
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sentinet.channel import RadioConfig
from sentinet.config import KEYS, LinkControlMode, RunConfig
from sentinet.energy import EnergyConfig
from sentinet.protocol import reply_slot_delay
from sentinet.weibull import WeibullParams


def test_flat_roundtrip_defaults():
    cfg = RunConfig()
    assert RunConfig.from_flat(cfg.to_flat()) == cfg


def test_flat_roundtrip_customized():
    cfg = RunConfig(
        field_width=250.0, field_height=80.0, node_count=123, duration=742.5,
        seed=987654321, weibull=WeibullParams(0.013, 3.0),
        link_control=LinkControlMode.STANDALONE, sensing_range=21.5, t_w=0.25,
        t_c_range=(2.0, 9.0), grid_step=0.5, metric_interval=2.5,
        hazard_feedback="cycle",
        radio=dataclasses.replace(RunConfig().radio, shadowing_sigma_db=0.0,
                                  lqi_threshold=6),
    )
    assert RunConfig.from_flat(cfg.to_flat()) == cfg


def test_int_valued_floats_echo_as_floats():
    # the text form follows the field's declared type, not the value's
    flat = RunConfig(field_width=100, field_height=80).to_flat()
    assert flat["field"] == "100.0x80.0"
    assert RunConfig.from_flat(flat) == RunConfig(field_width=100.0,
                                                  field_height=80.0)


def _leaf_paths(cls, prefix=""):
    """Dotted paths of every leaf field under ``cls``; a fixed-size tuple
    field (``tuple[float, float]``) has one leaf per item."""
    for name, hint in typing.get_type_hints(cls).items():
        path = prefix + name
        args = typing.get_args(hint)
        if dataclasses.is_dataclass(hint):
            yield from _leaf_paths(hint, path + ".")
        elif typing.get_origin(hint) is tuple and Ellipsis not in args:
            yield from (f"{path}.{i}" for i in range(len(args)))
        else:
            yield path


@pytest.mark.oracle
def test_every_leaf_field_has_exactly_one_key():
    reached = Counter(path for paths in KEYS.values() for path in paths)
    leaves = set(_leaf_paths(RunConfig))
    assert {"weibull.shape", "radio.power_levels", "energy.tx_draw_w",
            "t_c_range.1"} <= leaves
    assert sorted(leaves - set(reached)) == [], "fields without a key"
    assert sorted(set(reached) - leaves) == [], "keys without a field"
    assert [p for p, n in reached.items() if n > 1] == [], "fields keyed twice"
    assert len(KEYS) == 28


def test_from_flat_partial_uses_defaults():
    cfg = RunConfig.from_flat({"nodes": "7", "seed": "3"})
    assert cfg.node_count == 7
    assert cfg.seed == 3
    assert cfg.duration == RunConfig().duration


def test_from_flat_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_flat({"modes": "5"})


@pytest.mark.parametrize("kw", [
    dict(node_count=0),
    dict(duration=0.0),
    dict(field_width=-1.0),
    dict(t_c_range=(9.0, 2.0)),
    dict(t_w=0.0),
    dict(sensing_range=0.0),
    dict(grid_step=-0.1),
    dict(metric_interval=0.0),
    dict(hazard_feedback="sometimes"),
])
def test_validation_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        RunConfig(**kw)


@pytest.mark.parametrize("seed", [-1, -3, -2**40])
def test_negative_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig(seed=seed)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig.from_flat({"seed": str(seed)})


def test_tw_must_exceed_two_frames():
    # a reply at slot 0 ends two frames after its probe began, and t_w must
    # leave two reply slots of 1.05 frames after that: with one slot, every
    # guard that hears a probe replies at the same instant
    frame = RadioConfig().tx_duration_s
    least = 2.0 * frame + 2.0 * (1.05 * frame)
    for tw in (0.005, 2.0 * frame, 0.01, math.nextafter(least, 0.0)):
        with pytest.raises(ValueError, match="tw=.* tx_duration=0.004 by two "
                                             "reply slots .* at least 0.0164"):
            RunConfig.from_flat({"tw": repr(tw)})
    cfg = RunConfig(t_w=least)
    assert [reply_slot_delay(nid, cfg) for nid in range(3)] == [
        0.0, 1.05 * frame, 0.0]
    slow = dataclasses.replace(RadioConfig(), tx_duration_s=0.06)
    with pytest.raises(ValueError, match="tx_duration=0.06"):
        RunConfig(radio=slow)


@given(tx_s=st.floats(1e-6, 0.1),
       ratio=st.floats(0.0, 10.0) | st.sampled_from([1.0, 4.0, 4.1]),
       ulps=st.integers(-2, 2))
def test_every_accepted_tw_outlasts_a_frame(tx_s, ratio, ulps):
    # overhearers reads a reply's audible guards without an awake set: a
    # node stands guard t_w after it wakes, so a guard at a frame's end was
    # awake at its start only while t_w exceeds a frame. The reply-slot
    # rule keeps that: every config that constructs has it
    tw = ratio * tx_s
    for _ in range(abs(ulps)):
        tw = math.nextafter(tw, math.copysign(math.inf, ulps))
    radio = dataclasses.replace(RadioConfig(), tx_duration_s=tx_s)
    try:
        cfg = RunConfig(t_w=tw, radio=radio)
    except ValueError:
        return
    assert cfg.t_w > cfg.radio.tx_duration_s


def test_negative_shadowing_sigma_rejected():
    with pytest.raises(ValueError, match="shadowing_sigma_db must be >= 0"):
        RunConfig.from_flat({"shadowing_sigma": "-4"})
    calm = RunConfig.from_flat({"shadowing_sigma": "0"})
    assert calm.radio.shadowing_sigma_db == 0.0


def test_multi_word_seeds_accepted():
    for seed in (0, 2**32, 2**200 + 1):
        assert RunConfig.from_flat({"seed": str(seed)}).seed == seed


def test_power_levels_need_energy_draws():
    radio = dataclasses.replace(RunConfig().radio, power_levels=(-10.0, -3.0))
    with pytest.raises(ValueError, match="tx draw"):
        RunConfig(radio=radio)


def test_draw_for_an_unlisted_power_level_rejected():
    # no frame is ever sent at a level tx_levels does not list, so its
    # draw would be echoed into config.txt and never read
    with pytest.raises(ValueError, match=r"tx_draw lists 0\.0 dBm, which "
                                         r"tx_levels=-10\.0,-5\.0 does not list"):
        RunConfig.from_flat({"tx_draw": "-10:0.04,-5:0.046,0:0.09"})
    with pytest.raises(ValueError, match=r"tx_draw lists -10\.0 dBm"):
        RunConfig.from_flat({"tx_levels": "-5"})
    config = RunConfig.from_flat({"tx_levels": "-5", "tx_draw": "-5:0.046"})
    assert config.energy.tx_draw_w == ((-5.0, 0.046),)


def test_power_level_with_two_draws_rejected():
    # tx_draw would read the first draw and never the second
    for text in ("-10:0.04,-10:0.05,-5:0.046", "-5:0.046,-10:0.04,-10.0:0.04"):
        with pytest.raises(ValueError, match=r"tx_draw lists -10\.0 dBm twice"):
            RunConfig.from_flat({"tx_draw": text})
    # two levels may share a draw
    energy = RunConfig.from_flat({"tx_draw": "-10:0.04,-5:0.04"}).energy
    assert (energy.tx_draw(-10.0), energy.tx_draw(-5.0)) == (0.04, 0.04)


def test_config_hash_tracks_content():
    a, b = RunConfig(seed=1), RunConfig(seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != RunConfig(seed=2).config_hash()
    assert a.config_hash() != RunConfig(seed=1, node_count=51).config_hash()


def test_mode_properties():
    assert not LinkControlMode.OFF.uses_conn_timer
    assert not LinkControlMode.OFF.uses_piggyback
    assert LinkControlMode.STANDALONE.uses_conn_timer
    assert not LinkControlMode.STANDALONE.uses_piggyback
    assert LinkControlMode.PIGGYBACKED.uses_conn_timer
    assert LinkControlMode.PIGGYBACKED.uses_piggyback


# flat keys whose values are floats or lists of floats
FLOAT_KEYS = ("field", "duration", "lambda", "beta", "sensing_range",
              "grid_step", "tw", "tc_min", "tc_max", "metric_interval",
              "tx_levels", "path_loss_exponent", "reference_loss",
              "shadowing_sigma", "noise_floor", "sensitivity", "lqi_snr_min",
              "lqi_snr_max", "tx_duration", "sleep_draw", "probe_draw",
              "active_draw", "tx_draw")


def test_float_keys_list_every_float_valued_key():
    others = {"nodes", "seed", "lqi_threshold", "link_control",
              "hazard_feedback"}
    assert set(RunConfig().to_flat()) == set(FLOAT_KEYS) | others


# every float field of the configs RunConfig nests, which check themselves
NESTED_FIELDS = [(cls, f.name) for cls in (RadioConfig, EnergyConfig)
                 for f in dataclasses.fields(cls)
                 if isinstance(getattr(cls(), f.name), (float, tuple))]


def _with_bad_number(value, bad: float, position: int):
    """``value`` with one of its (possibly nested tuple) numbers set to bad."""
    if not isinstance(value, tuple):
        return bad
    i = position % len(value)
    return (value[:i] + (_with_bad_number(value[i], bad, position // len(value)),)
            + value[i + 1:])


@given(st.sampled_from(FLOAT_KEYS), st.sampled_from(["nan", "inf", "-inf"]),
       st.integers(0, 3), st.sampled_from(NESTED_FIELDS))
def test_from_flat_rejects_non_finite_values(key, bad, position, nested):
    flat = RunConfig().to_flat()
    # swap one number of the (possibly compound) value, e.g. "100.0x100.0"
    parts = re.split(r"([x,:])", flat[key])
    numbers = list(range(0, len(parts), 2))
    parts[numbers[position % len(numbers)]] = bad
    flat[key] = "".join(parts)
    with pytest.raises(ValueError):
        RunConfig.from_flat(flat)
    # RadioConfig and EnergyConfig reject it when built on their own too
    cls, name = nested
    value = _with_bad_number(getattr(cls(), name), float(bad), position)
    with pytest.raises(ValueError, match="must be finite"):
        cls(**{name: value})
