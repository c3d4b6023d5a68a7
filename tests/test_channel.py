import math

import pytest
from hypothesis import given, settings, strategies as st

from sentinet.channel import (UNICAST_KINDS, Frame, Message, MessageKind,
                              RadioConfig, _receivable, compute_lqi, deliver,
                              make_frame, overhearers, rx_power_dbm)

RADIO = RadioConfig()


def test_radio_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(power_levels=(-5.0, -10.0))
    with pytest.raises(ValueError):
        RadioConfig(sensitivity_dbm=-120.0, noise_floor_dbm=-100.0)
    with pytest.raises(ValueError):
        RadioConfig(lqi_snr_min_db=20.0, lqi_snr_max_db=20.0)


def test_message_addressing_rules():
    with pytest.raises(ValueError):
        Message(MessageKind.PROBE_REPLY, 1, None, -10.0, 0.0)
    with pytest.raises(ValueError):
        Message(MessageKind.PROBE, 1, 2, -10.0, 0.0)


def test_rx_power_reference_distance():
    # at the 1 m reference only the reference loss applies
    assert rx_power_dbm(RADIO, -5.0, 1.0) == pytest.approx(-60.0)


def test_rx_power_hand_evaluated_at_ten_meters():
    # -5 - 55 - 10*2.4*log10(10) = -84
    assert rx_power_dbm(RADIO, -5.0, 10.0) == pytest.approx(-84.0)


def test_rx_power_linear_in_tx_power():
    for d in (0.5, 3.0, 42.0):
        delta = rx_power_dbm(RADIO, -5.0, d) - rx_power_dbm(RADIO, -10.0, d)
        assert delta == pytest.approx(5.0)


def test_rx_power_clamps_colocated_nodes():
    assert rx_power_dbm(RADIO, -5.0, 0.0) == rx_power_dbm(RADIO, -5.0, 0.01)


@given(st.floats(0.01, 1000.0), st.floats(0.011, 1000.0))
def test_rx_power_strictly_decreasing_in_distance(d1, d2):
    if d1 == d2:
        return
    lo, hi = sorted((d1, d2))
    assert rx_power_dbm(RADIO, -5.0, lo) > rx_power_dbm(RADIO, -5.0, hi)


def test_lqi_saturation():
    assert compute_lqi(RADIO, RADIO.noise_floor_dbm + RADIO.lqi_snr_max_db) == 10
    assert compute_lqi(RADIO, RADIO.noise_floor_dbm) == 0
    assert compute_lqi(RADIO, -200.0) == 0
    assert compute_lqi(RADIO, 0.0) == 10


def test_lqi_threshold_point():
    # 14 dB over the floor maps exactly onto the decision threshold
    assert compute_lqi(RADIO, RADIO.noise_floor_dbm + 14.0) == 7


@given(st.floats(-130.0, -60.0), st.floats(-130.0, -60.0))
def test_lqi_monotone_in_rx_power(a, b):
    lo, hi = sorted((a, b))
    assert compute_lqi(RADIO, lo) <= compute_lqi(RADIO, hi)


def test_lqi_range():
    for rx in (-150.0, -101.0, -95.0, -88.0, -80.0, -50.0):
        assert 0 <= compute_lqi(RADIO, rx) <= 10


# -- frame delivery ----------------------------------------------------------


import numpy as np


def _broadcast(sender, t, power=-5.0):
    return Message(MessageKind.PROBE, sender, None, power, t)


def _mk(msg, positions, awake):
    n = max(positions) + 1
    xs = np.array([positions.get(i, (1e6, 1e6))[0] for i in range(n)])
    ys = np.array([positions.get(i, (1e6, 1e6))[1] for i in range(n)])
    alive = np.array([i in positions for i in range(n)])
    return make_frame(msg, xs, ys, alive, awake, RADIO)


def test_single_receiver_delivery():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0)}
    frame = _mk(_broadcast(0, 0.0), positions, [0, 1])
    assert deliver(frame, [frame], {0, 1}, RADIO) == [1]


def test_overlapping_frames_destroy_each_other():
    positions = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (15.0, 0.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1, 2])
    f2 = _mk(_broadcast(1, 0.002), positions, [0, 1, 2])
    in_flight = [f1, f2]
    assert deliver(f1, in_flight, {0, 1, 2}, RADIO) == []
    assert deliver(f2, in_flight, {0, 1, 2}, RADIO) == []


def test_back_to_back_frames_do_not_collide():
    positions = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (15.0, 0.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1, 2])
    f2 = _mk(_broadcast(1, RADIO.tx_duration_s), positions, [0, 1, 2])
    in_flight = [f1, f2]
    assert deliver(f1, in_flight, {0, 1, 2}, RADIO) == [2]
    assert deliver(f2, in_flight, {0, 1, 2}, RADIO) == [2]


def test_sleeping_nodes_receive_nothing():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (6.0, 0.0)}
    frame = _mk(_broadcast(0, 0.0), positions, [0])  # 1 and 2 asleep
    assert deliver(frame, [frame], {0}, RADIO) == []


def test_out_of_range_receiver_misses():
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0)}  # far below sensitivity
    frame = _mk(_broadcast(0, 0.0, power=-10.0), positions, [0, 1])
    assert deliver(frame, [frame], {0, 1}, RADIO) == []


def test_unicast_reaches_only_addressee():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 5.0)}
    msg = Message(MessageKind.PROBE_REPLY, 0, 1, -5.0, 0.0)
    frame = _mk(msg, positions, [0, 1, 2])
    assert deliver(frame, [frame], {0, 1, 2}, RADIO) == [1]


def test_unicast_to_sleeping_addressee_fails():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0)}
    msg = Message(MessageKind.PROBE_REPLY, 0, 1, -5.0, 0.0)
    frame = _mk(msg, positions, [0])
    assert deliver(frame, [frame], {0}, RADIO) == []


def test_below_sensitivity_frames_do_not_interfere():
    # an inaudible distant frame must not destroy a local reception
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (95.0, 0.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1, 2])
    f2 = _mk(_broadcast(2, 0.001, power=-10.0), positions, [0, 1, 2])
    in_flight = [f1, f2]
    assert deliver(f1, in_flight, {0, 1}, RADIO) == [1]


def test_half_duplex_sender_blocks_reception():
    # node 1 transmits during node 0's frame: 1 cannot receive 0's frame
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (100.0, 100.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1])
    f2 = _mk(_broadcast(1, 0.002), positions, [0, 1])
    assert deliver(f1, [f1, f2], {0, 1}, RADIO) == []


def test_overhearers_excludes_sender_and_addressee():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 5.0), 3: (90.0, 90.0)}
    msg = Message(MessageKind.PROBE_REPLY, 0, 1, -5.0, 0.0)
    frame = _mk(msg, positions, [0, 1, 2, 3])
    assert overhearers(frame, [frame], [0, 1, 2, 3], RADIO) == [2]


def test_loss_free_three_node_line_without_collisions():
    # zero shadowing, in-range chain: every isolated frame is delivered
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)}
    for sender, expected in ((0, [1, 2]), (1, [0, 2]), (2, [0, 1])):
        frame = _mk(_broadcast(sender, 0.0), positions, [0, 1, 2])
        assert deliver(frame, [frame], {0, 1, 2}, RADIO) == expected


# -- oracle: delivery against a brute-force scan of every node ----------------

@st.composite
def air_scenes(draw):
    """A small field with 1-3 frames on the air, some overlapping in time,
    plus the awake sets at each frame's start and at resolution time."""
    n = draw(st.integers(2, 10))
    coord = st.floats(0.0, 30.0)
    xs = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    # drawn as complements: hypothesis favours small sets, and most nodes
    # alive and awake keep the receptions and collisions frequent
    node_sets = st.sets(st.integers(0, n - 1)).map(
        lambda left_out: set(range(n)) - left_out)
    alive = np.isin(np.arange(n), list(draw(node_sets)))
    frames, awake_at = [], []
    for _ in range(draw(st.integers(1, 3))):
        sender = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(MessageKind))
        addressee = None
        if kind in UNICAST_KINDS:
            addressee = draw(st.integers(0, n - 1).filter(lambda a: a != sender))
        power = draw(st.sampled_from(RADIO.power_levels))
        start = draw(st.sampled_from([0.0, 0.001, 0.002, 0.004, 0.006]))
        shadow = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n,
                                        max_size=n)))
        awake = draw(node_sets)
        msg = Message(kind, sender, addressee, power, start)
        frames.append(make_frame(msg, xs, ys, alive, awake, RADIO, shadow))
        awake_at.append(awake)
    return n, frames, awake_at, draw(node_sets), draw(node_sets)


def _reference_deliver(n, frame, in_flight, awake_start, awake_now):
    msg = frame.msg
    got = []
    for nid in range(n):
        if nid == msg.sender or nid not in awake_start or nid not in awake_now:
            continue
        if msg.addressee is not None and nid != msg.addressee:
            continue
        if _receivable(frame, nid, in_flight, RADIO):
            got.append(nid)
    return got


def _reference_overhearers(n, frame, in_flight, awake_start, listeners):
    msg = frame.msg
    got = []
    for nid in range(n):
        if nid in (msg.sender, msg.addressee) or nid not in listeners:
            continue
        if nid in awake_start and _receivable(frame, nid, in_flight, RADIO):
            got.append(nid)
    return got


@settings(max_examples=300, deadline=None)
@given(air_scenes())
def test_delivery_matches_brute_force_scan(scene):
    n, frames, awake_at, awake_now, listeners = scene
    for frame, awake_start in zip(frames, awake_at):
        assert deliver(frame, frames, awake_now, RADIO) == \
            _reference_deliver(n, frame, frames, awake_start, awake_now)
        assert overhearers(frame, frames, listeners, RADIO) == \
            _reference_overhearers(n, frame, frames, awake_start, listeners)
