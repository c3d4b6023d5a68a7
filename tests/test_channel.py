import math
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from sentinet.channel import (SHADOW_CLIP, Frame, LinkRows, MessageKind,
                              RadioConfig, compute_lqi, deliver, loss_cap,
                              make_frame, overhearers, path_loss_db,
                              weak_link_floor)
from sentinet.engine import Engine

RADIO = RadioConfig()
# Replies are unicast, everything else is broadcast.
UNICAST_KINDS = frozenset({MessageKind.PROBE_REPLY, MessageKind.CONN_REPLY})


def rx_power_dbm(radio, tx_power, distance, shadowing_db=0.0):
    """Received power under log-distance path loss plus a shadowing term,
    one link at a time: the tests' reference for ``path_loss_db``."""
    d = max(distance, 0.01)
    loss = radio.reference_loss_db + 10.0 * radio.path_loss_exponent * math.log10(d)
    return tx_power - (loss + shadowing_db)


def test_radio_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(power_levels=(-5.0, -10.0))
    with pytest.raises(ValueError):
        RadioConfig(sensitivity_dbm=-120.0, noise_floor_dbm=-100.0)
    with pytest.raises(ValueError):
        RadioConfig(lqi_snr_min_db=20.0, lqi_snr_max_db=20.0)
    with pytest.raises(ValueError):
        RadioConfig(path_loss_exponent=0.0)


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


@given(st.floats(0.0, 1000.0), st.sampled_from(RADIO.power_levels))
def test_path_loss_db_matches_the_scalar_reference(d, tx):
    got = tx - path_loss_db(RADIO, d)
    assert got == pytest.approx(rx_power_dbm(RADIO, tx, d), rel=1e-12)


@given(st.floats(0.01, 1000.0), st.floats(0.011, 1000.0))
def test_rx_power_strictly_decreasing_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    near, far = rx_power_dbm(RADIO, -5.0, lo), rx_power_dbm(RADIO, -5.0, hi)
    assert near >= far
    # distances an ulp or so apart can round to the same loss; any real
    # gap in distance shows in the power
    if hi > lo * (1 + 1e-9):
        assert near > far


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


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(noise=st.floats(-120.0, -60.0), snr_min=st.floats(-10.0, 10.0),
       span=st.floats(0.1, 40.0), threshold=st.integers(-3, 13),
       offsets=st.lists(st.floats(-30.0, 30.0), max_size=5))
# radios whose analytic boundary rounds below the floor and above it
@example(noise=-120.0, snr_min=-10.0, span=0.5, threshold=2, offsets=[])
@example(noise=-79.0, snr_min=10.0, span=39.0, threshold=10, offsets=[])
def test_weak_link_floor_matches_lqi(noise, snr_min, span, threshold, offsets):
    # the floor oracle: a power is below the floor exactly when its LQI is
    # below the threshold, checked at the floor, an ulp either side and
    # powers around it (around the boundary, for an infinite floor)
    radio = RadioConfig(noise_floor_dbm=noise, sensitivity_dbm=noise,
                        lqi_snr_min_db=snr_min, lqi_snr_max_db=snr_min + span,
                        lqi_threshold=threshold)
    floor = weak_link_floor(radio)
    if threshold <= 0:
        assert floor == -math.inf
    elif threshold > 10:
        assert floor == math.inf
    else:
        assert math.isfinite(floor)
    centre = floor if math.isfinite(floor) else noise + snr_min + span / 2
    powers = [centre, math.nextafter(centre, -math.inf),
              math.nextafter(centre, math.inf), noise - 500.0, noise + 500.0]
    powers += [centre + d for d in offsets]
    for rx in powers:
        assert (rx < floor) == (compute_lqi(radio, rx) < threshold), rx


@settings(max_examples=200, deadline=None)
@given(tx=st.floats(-40.0, 20.0),
       bound=st.floats(-130.0, -40.0) | st.sampled_from([-math.inf, math.inf]),
       smin=st.floats(-40.0, 0.0))
@example(tx=-5.0, bound=-math.inf, smin=0.0)
@example(tx=-5.0, bound=math.inf, smin=0.0)
def test_loss_cap_cuts_below_the_bound(tx, bound, smin):
    # past the cap even a draw of smin dB arrives below the bound; nothing
    # arrives below -inf, so no loss is past that cap, and every loss is
    # past a finite cap for +inf
    cap = loss_cap(tx, bound, smin)
    if bound == -math.inf:
        assert cap == math.inf
    else:
        assert math.isfinite(cap)
        assert (tx - cap) - smin < bound


# -- frame delivery ----------------------------------------------------------


import numpy as np


# what a transmission is: (kind, sender, addressee, tx power, start), the
# leading arguments of make_frame
def _broadcast(sender, t, power=-5.0):
    return (MessageKind.PROBE, sender, None, power, t)


def frame_alone(sent, links, awake, radio, shadow, on_air=()):
    """The frame ``sent`` makes when its block holds it alone: ``shadow``
    is its per-receiver shadowing, indexed by node id, and the block holds
    each receiver's draw at its position in the sender's row."""
    _, sender, _, tx, _ = sent
    ids, _ = links.row(sender)
    [rx_map] = links.maps(sender, tx, shadow[ids][np.newaxis])
    return make_frame(*sent, rx_map, awake, radio, on_air=on_air)


def _mk(sent, positions, awake, on_air=()):
    n = max(positions) + 1
    xs = np.array([positions.get(i, (1e6, 1e6))[0] for i in range(n)])
    ys = np.array([positions.get(i, (1e6, 1e6))[1] for i in range(n)])
    return frame_alone(sent, LinkRows(xs, ys, RADIO), awake, RADIO, np.zeros(n),
                       on_air=on_air)


def test_single_receiver_delivery():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0)}
    frame = _mk(_broadcast(0, 0.0), positions, [0, 1])
    assert deliver(frame, {0, 1}) == [1]


def test_overlapping_frames_destroy_each_other():
    positions = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (15.0, 0.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1, 2])
    f2 = _mk(_broadcast(1, 0.002), positions, [0, 1, 2], on_air=[f1])
    assert deliver(f1, {0, 1, 2}) == []
    assert deliver(f2, {0, 1, 2}) == []


def test_back_to_back_frames_do_not_collide():
    # f1 ends as f2 starts; it is still on the air, its delivery pending
    positions = {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (15.0, 0.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1, 2])
    f2 = _mk(_broadcast(1, RADIO.tx_duration_s), positions, [0, 1, 2],
             on_air=[f1])
    assert f1.end == f2.start
    assert f1.jammed == f2.jammed == set()
    assert deliver(f1, {0, 1, 2}) == [2]
    assert deliver(f2, {0, 1, 2}) == [2]


def test_collisions_do_not_chain():
    # A overlaps B and B overlaps C, but A and C do not overlap; node 1
    # hears A and C but not B's far sender, so it receives both
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0),
                 3: (10.0, 100.0)}
    a = _mk(_broadcast(0, 0.0), positions, [1])
    b = _mk(_broadcast(3, 0.003), positions, [1], on_air=[a])
    c = _mk(_broadcast(2, 0.005), positions, [1], on_air=[b])
    assert 1 in a.rx_dbm and 1 in c.rx_dbm and 1 not in b.rx_dbm
    assert a.jammed and b.jammed and c.jammed
    assert deliver(a, {1}) == [1]
    assert deliver(c, {1}) == [1]


def test_sleeping_nodes_receive_nothing():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (6.0, 0.0)}
    frame = _mk(_broadcast(0, 0.0), positions, [0])  # 1 and 2 asleep
    assert deliver(frame, {0}) == []


def test_out_of_range_receiver_misses():
    positions = {0: (0.0, 0.0), 1: (80.0, 0.0)}  # far below sensitivity
    frame = _mk(_broadcast(0, 0.0, power=-10.0), positions, [0, 1])
    assert deliver(frame, {0, 1}) == []


def test_unicast_reaches_only_addressee():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 5.0)}
    sent = (MessageKind.PROBE_REPLY, 0, 1, -5.0, 0.0)
    frame = _mk(sent, positions, [0, 1, 2])
    assert deliver(frame, {0, 1, 2}) == [1]


def test_unicast_to_sleeping_addressee_fails():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0)}
    sent = (MessageKind.PROBE_REPLY, 0, 1, -5.0, 0.0)
    frame = _mk(sent, positions, [0])
    assert deliver(frame, {0}) == []


def test_below_sensitivity_frames_do_not_interfere():
    # an inaudible distant frame must not destroy a local reception
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (95.0, 0.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1, 2])
    _mk(_broadcast(2, 0.001, power=-10.0), positions, [0, 1, 2], on_air=[f1])
    assert deliver(f1, {0, 1}) == [1]


def test_half_duplex_sender_blocks_reception():
    # node 1 transmits during node 0's frame: 1 cannot receive 0's frame
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (100.0, 100.0)}
    f1 = _mk(_broadcast(0, 0.0), positions, [0, 1])
    _mk(_broadcast(1, 0.002), positions, [0, 1], on_air=[f1])
    assert deliver(f1, {0, 1}) == []


def test_overhearers_excludes_sender_and_addressee():
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (5.0, 5.0), 3: (90.0, 90.0)}
    sent = (MessageKind.PROBE_REPLY, 0, 1, -5.0, 0.0)
    frame = _mk(sent, positions, [0, 1, 2, 3])
    assert overhearers(frame, [0, 1, 2, 3]) == [2]


def test_loss_free_three_node_line_without_collisions():
    # zero shadowing, in-range chain: every isolated frame is delivered
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (20.0, 0.0)}
    for sender, expected in ((0, [1, 2]), (1, [0, 2]), (2, [0, 1])):
        frame = _mk(_broadcast(sender, 0.0), positions, [0, 1, 2])
        assert deliver(frame, {0, 1, 2}) == expected


# -- oracle: delivery against a brute-force scan of every node ----------------

@st.composite
def air_scenes(draw):
    """A small field with 1-3 frames, some overlapping in time, plus the
    awake sets at each frame's start and at resolution time, and each
    frame's listeners, drawn from the nodes awake at its start as
    ``overhearers`` requires. The frames are made in start order, ties in
    drawn order, each with the frames made before it on the air."""
    n = draw(st.integers(2, 10))
    coord = st.floats(0.0, 30.0)
    xs = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    # drawn as complements: hypothesis favours small sets, and most nodes
    # awake keep the receptions and collisions frequent
    node_sets = st.sets(st.integers(0, n - 1)).map(
        lambda left_out: set(range(n)) - left_out)
    links = LinkRows(xs, ys, RADIO)
    drawn = []
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
        listeners = awake - draw(st.sets(st.integers(0, n - 1)))
        drawn.append(((kind, sender, addressee, power, start), shadow,
                      awake, listeners))
    drawn.sort(key=lambda item: item[0][4])
    frames = []
    for sent, shadow, awake, _ in drawn:
        frames.append(frame_alone(sent, links, awake, RADIO, shadow,
                                  on_air=list(frames)))
    awake_at = [awake for _, _, awake, _ in drawn]
    listeners_at = [listeners for *_, listeners in drawn]
    return n, frames, awake_at, draw(node_sets), listeners_at


def _reference_receives(frame, nid, frames):
    """The reception rule with its own overlap, sender and sensitivity
    checks, so it leans neither on the power maps holding only audible
    receivers nor on the jam sets."""
    def heard(f):  # nid hears f, or is busy sending it
        rx = f.rx_dbm.get(nid)
        return nid == f.sender or (rx is not None
                                   and rx >= RADIO.sensitivity_dbm)
    if nid == frame.sender or not heard(frame):
        return False
    return not any(other is not frame and frame.start < other.end
                   and other.start < frame.end and heard(other)
                   for other in frames)


def _reference_deliver(n, frame, frames, awake_start, awake_now):
    got = []
    for nid in range(n):
        if nid == frame.sender or nid not in awake_start or nid not in awake_now:
            continue
        if frame.addressee is not None and nid != frame.addressee:
            continue
        if _reference_receives(frame, nid, frames):
            got.append(nid)
    return got


def _reference_overhearers(n, frame, frames, awake_start, listeners):
    got = []
    for nid in range(n):
        if nid in (frame.sender, frame.addressee) or nid not in listeners:
            continue
        if nid in awake_start and _reference_receives(frame, nid, frames):
            got.append(nid)
    return got


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(air_scenes())
def test_delivery_matches_brute_force_scan(scene):
    n, frames, awake_at, awake_now, listeners_at = scene
    for frame, awake_start, listeners in zip(frames, awake_at, listeners_at):
        assert deliver(frame, awake_now) == \
            _reference_deliver(n, frame, frames, awake_start, awake_now)
        assert overhearers(frame, listeners) == \
            _reference_overhearers(n, frame, frames, awake_start, listeners)


# -- oracle: frames over link rows against the full field ---------------------


def reference_frame(sent, xs, ys, awake_ids, radio, shadow=None):
    """The frame computed at every node, its shadowing clipped at
    ±SHADOW_CLIP sigma, then cut to the audible ones; a broadcast frame
    keeps those awake, a unicast one whether its addressee is among them."""
    kind, sender, addressee, tx, start = sent
    d = np.hypot(xs - xs[sender], ys - ys[sender])
    rx = tx - path_loss_db(radio, d)
    if shadow is not None:
        clip = SHADOW_CLIP * radio.shadowing_sigma_db
        rx = rx - np.clip(shadow, -clip, clip)
    audible = rx >= radio.sensitivity_dbm
    audible[sender] = False
    idx = np.flatnonzero(audible)
    rx_map = dict(zip(idx.tolist(), rx[idx].tolist()))
    heard = rx_map.keys() & set(awake_ids)
    if addressee is None:
        return Frame(kind, sender, addressee, tx, start,
                     start + radio.tx_duration_s, rx_dbm=rx_map,
                     awake_at_start=heard)
    return Frame(kind, sender, addressee, tx, start, start + radio.tx_duration_s,
                 rx_dbm=rx_map, addressee_awake=addressee in heard)


def assert_same_frame(got, want):
    # float bits and key order, not just equal values
    assert [(k, v.hex()) for k, v in got.rx_dbm.items()] == \
        [(k, v.hex()) for k, v in want.rx_dbm.items()]
    assert set(got.awake_at_start) == set(want.awake_at_start)
    assert got.addressee_awake is want.addressee_awake
    assert (got.kind, got.sender, got.addressee, got.tx_power_dbm) == \
        (want.kind, want.sender, want.addressee, want.tx_power_dbm)
    assert (got.start, got.end) == (want.start, want.end)


@st.composite
def frame_sequences(draw):
    """A field, one set of link rows, and frames of every kind sent over it
    in turn; some draws are planted far out in either tail, past the clip."""
    sigma = draw(st.sampled_from([0.0, 4.0]))
    radio = RadioConfig(shadowing_sigma_db=sigma)
    n = draw(st.integers(2, 40))
    coord = st.floats(0.0, 200.0)
    xs = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    if draw(st.booleans()):  # co-located nodes hit the 1 cm clamp
        xs[-1], ys[-1] = xs[0], ys[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for _ in range(draw(st.integers(1, 6))):
        sender = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(MessageKind))
        addressee = None
        if kind in UNICAST_KINDS:
            addressee = draw(st.integers(0, n - 1).filter(lambda a: a != sender))
        power = draw(st.sampled_from(radio.power_levels))
        shadow = None
        if sigma > 0.0:
            shadow = rng.normal(0.0, sigma, size=n)
            planted = draw(st.sets(st.integers(0, n - 1), max_size=3))
            for nid in planted:
                shadow[nid] = draw(st.sampled_from([-1.0, 1.0])
                                   ) * draw(st.floats(3.0, 8.0)) * sigma
        awake = draw(st.sets(st.integers(0, n - 1)))
        frames.append(((kind, sender, addressee, power, 0.0), shadow, awake))
    return radio, xs, ys, frames


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(frame_sequences())
def test_frames_over_link_rows_match_the_full_field(scene):
    radio, xs, ys, frames = scene
    links = LinkRows(xs, ys, radio)
    calm = np.zeros(xs.size)
    for sent, shadow, awake in frames:
        got = frame_alone(sent, links, awake, radio,
                          calm if shadow is None else shadow)
        assert_same_frame(got, reference_frame(sent, xs, ys, awake, radio, shadow))


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_draws_past_the_clip_map_as_draws_at_it(data):
    # shadowing past ±SHADOW_CLIP sigma gives the same maps, bit for bit, as
    # draws at the clip, and both equal the full field with the same draws;
    # a sender's row is built once, and no draw, however far out, rebuilds it
    radio = RadioConfig(shadowing_sigma_db=4.0)
    clip = SHADOW_CLIP * radio.shadowing_sigma_db
    n = data.draw(st.integers(2, 30))
    coord = st.floats(0.0, 200.0)
    xs = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
    ys = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
    links = LinkRows(xs, ys, radio)
    builds, build = [], links._build

    def counted(sender):
        builds.append(sender)
        return build(sender)

    links._build = counted
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for sender in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=4, unique=True)):
        for tx in radio.power_levels:  # a sender's power only rises
            k = data.draw(st.integers(1, 6))
            # the draws by node id, laid out at each receiver's row position
            field = rng.normal(0.0, radio.shadowing_sigma_db, size=(k, n))
            cells = st.tuples(st.integers(0, k - 1), st.integers(0, n - 1))
            for row, nid in data.draw(st.sets(cells, min_size=1, max_size=6)):
                field[row, nid] = data.draw(st.sampled_from([-1.0, 1.0])) * (
                    clip + data.draw(st.floats(0.0, 200.0)))
            block = field[:, links.row(sender)[0]]
            past = links.maps(sender, tx, block)
            at = links.maps(sender, tx, np.clip(block, -clip, clip))
            again = links.maps(sender, tx, block)
            for got in (at, again):
                assert [[(nid, v.hex()) for nid, v in m.items()] for m in got] \
                    == [[(nid, v.hex()) for nid, v in m.items()] for m in past]
            sent = (MessageKind.PROBE, sender, None, tx, 0.0)
            for rx_map, shadow in zip(past, field):
                assert_same_frame(make_frame(*sent, rx_map, set(), radio),
                                  reference_frame(sent, xs, ys, set(), radio,
                                                  shadow))
        assert builds.count(sender) == 1


@st.composite
def block_sequences(draw):
    """A field, one set of link rows, and blocks of K frames from drawn
    senders, made in turn: each block's shadowing is drawn at once, some
    draws planted far out in either tail, past the clip, and a block may
    see its sender's power rise at one of its frames. A sender's power
    never falls, from block to block either. Under a 25 dB sigma, blocks
    may hold silent frames, whose every draw is planted so far above the
    mean that, clipped at 4 sigma, nobody hears them: the first, a middle,
    the last, every frame, or any set of them."""
    sigma = draw(st.sampled_from([0.0, 4.0, 25.0]))
    radio = RadioConfig(shadowing_sigma_db=sigma)
    n = draw(st.integers(2, 40))
    coord = st.floats(0.0, 200.0)
    xs = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    ys = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    levels = {}  # each sender's power level after its last block
    for _ in range(draw(st.integers(1, 4))):
        sender = draw(st.integers(0, n - 1))
        level = draw(st.integers(levels.get(sender, 0),
                                 len(radio.power_levels) - 1))
        block = np.zeros((k, n))
        if sigma > 0.0:
            block = rng.normal(0.0, sigma, size=(k, n))
            cells = st.tuples(st.integers(0, k - 1), st.integers(0, n - 1))
            for row, nid in draw(st.sets(cells, max_size=4)):
                block[row, nid] = draw(st.sampled_from([-1.0, 1.0])
                                       ) * draw(st.floats(3.0, 8.0)) * sigma
        silent = ()
        if sigma * SHADOW_CLIP >= 100.0:
            silent = draw(st.sampled_from([(), (0,), (k // 2,), (k - 1,),
                                           tuple(range(k))])
                          | st.sets(st.integers(0, k - 1)))
            # clipped to 100 dB, such a draw leaves every receiver below
            # sensitivity, even at 1 cm and the highest power level
            block[sorted(silent)] = draw(st.floats(25.0, 50.0)) * sigma
        rise = None  # the frame at which the sender's power rises
        if level + 1 < len(radio.power_levels):
            rise = draw(st.none() | st.integers(0, k - 1))
        levels[sender] = level + (rise is not None)
        awake = draw(st.sets(st.integers(0, n - 1)))
        blocks.append((sender, level, block, rise, awake, silent))
    return radio, xs, ys, blocks


class BlockSource:
    """Stands in for the engine's shadow substreams: ``source(sender)`` hands
    out that sender's stream, counted in ``asked``. Each ``normal`` draw of a
    stream hands out the next queued (sender, block), a block of draws by
    node id, with each receiver's draws at its position in ``row(sender)``;
    it checks that the stream's sender is the one the block was made for,
    and the draw's shape."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.queue = []
        self.row = None  # LinkRows.row of the rows it draws for
        self.asked = Counter()  # streams handed out, by sender

    def __call__(self, sender):
        self.asked[sender] += 1
        return SimpleNamespace(normal=partial(self.normal, sender))

    def normal(self, drawer, loc, scale, size):
        sender, block = self.queue.pop(0)
        ids, _ = self.row(sender)
        assert (drawer, loc, scale, size) == \
            (sender, 0.0, self.sigma, (len(block), len(ids)))
        return block[:, ids]


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(block_sequences())
def test_power_map_blocks_match_frame_by_frame(scene):
    # the maps next_map hands out, made a block at a time and remade from
    # the rest of the block when the power rises, equal frames made one by
    # one over the whole field; without shadowing nothing is drawn, and a
    # sender's frames at one power share one map; a silent frame's map is
    # empty wherever it sits in its block
    radio, xs, ys, blocks = scene
    shadowed = radio.shadowing_sigma_db > 0.0
    source = BlockSource(radio.shadowing_sigma_db)
    links = LinkRows(xs, ys, radio, source)
    source.row = links.row
    links._block_frames = len(blocks[0][2])
    last = {}  # sender -> (power, map) of its last frame
    for sender, level, block, rise, awake, silent in blocks:
        if shadowed:
            source.queue.append((sender, block))
        tx = radio.power_levels[level]
        for j, shadow in enumerate(block):
            if j == rise:
                tx = radio.power_levels[level + 1]
            rx_map = links.next_map(sender, tx)
            assert (j not in silent) or rx_map == {}
            if not shadowed and last.get(sender, (None,))[0] == tx:
                assert rx_map is last[sender][1]
            last[sender] = (tx, rx_map)
            sent = (MessageKind.PROBE, sender, None, tx, 0.0)
            assert_same_frame(make_frame(*sent, rx_map, awake, radio),
                              reference_frame(sent, xs, ys, awake, radio, shadow))
        assert not source.queue  # the block was drawn, and when it was due
    # each sender's stream is asked for once, by its first block, and kept
    want = {sender for sender, *_ in blocks} if shadowed else set()
    assert source.asked == Counter(dict.fromkeys(want, 1))


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_maps_do_not_depend_on_the_block_size(data):
    # the maps next_map hands out, drawn from the engine's shadow streams,
    # are the same bytes whether a block holds 1, 2, 7 or 512 // N frames,
    # power rises mid-block included: a frame's draws sit at its receivers'
    # row positions whichever block holds them, and a rise remakes the
    # block's frames left from the same draws
    radio = RadioConfig(shadowing_sigma_db=data.draw(st.sampled_from([4.0, 25.0])))
    n = data.draw(st.integers(2, 40))
    coord = st.floats(0.0, 200.0)
    xs = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
    ys = np.array(data.draw(st.lists(coord, min_size=n, max_size=n)))
    senders = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                 unique=True))
    top = len(radio.power_levels) - 1
    levels = dict.fromkeys(senders, 0)
    sends = []  # (sender, power): each sender's power never falls
    for sender, rise in data.draw(st.lists(
            st.tuples(st.sampled_from(senders), st.booleans()),
            min_size=1, max_size=40)):
        levels[sender] = min(levels[sender] + rise, top)
        sends.append((sender, radio.power_levels[levels[sender]]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sizes = sorted({1, 2, 7, 512 // n})
    handed = {}
    for k in sizes:
        links = LinkRows(xs, ys, radio,
                         partial(Engine(seed=seed).rng, stream="shadow"))
        links._block_frames = k
        handed[k] = [[(nid, v.hex()) for nid, v in links.next_map(*sent).items()]
                     for sent in sends]
    assert all(handed[k] == handed[1] for k in sizes)


def _row_radio(top, sigma, threshold):
    return RadioConfig(power_levels=(top - 5.0, top), shadowing_sigma_db=sigma,
                       lqi_threshold=threshold)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
                min_size=1, max_size=20),
       st.builds(_row_radio, st.floats(-40.0, 0.0), st.sampled_from([0.0, 4.0]),
                 st.sampled_from([0, 2, 7])),
       st.lists(st.tuples(st.floats(0.97, 1.03), st.floats(0.0, 2.0 * math.pi)),
                max_size=10),
       st.booleans())
def test_link_row_holds_every_other_node_within_its_cap(points, radio, rim, twin):
    # one cap for every row, from the top power level: the wider of the
    # frames' cut (sensitivity under a -4 sigma draw) and the guard graph's
    # (the weak-link floor, which at threshold 0 links every pair and is
    # left out); rim nodes sit within a few percent of the distance at
    # which the path loss from node 0 reaches it, where the build's
    # distance filter cuts; a twin shares node 0's position
    top = radio.power_levels[-1]
    cap = loss_cap(top, radio.sensitivity_dbm,
                   -SHADOW_CLIP * radio.shadowing_sigma_db)
    if radio.lqi_threshold > 0:
        cap = max(cap, loss_cap(top, weak_link_floor(radio)))
    x0, y0 = points[0]
    d_cap = 10.0 ** ((cap - radio.reference_loss_db)
                     / (10.0 * radio.path_loss_exponent))
    points = points + [(x0 + f * d_cap * math.cos(a), y0 + f * d_cap * math.sin(a))
                       for f, a in rim] + [(x0, y0)] * twin
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    full = path_loss_db(radio, np.hypot(xs - xs[0], ys - ys[0]))
    links = LinkRows(xs, ys, radio)
    assert links.cap == cap
    # the row keeps exactly the nodes the full field puts within the cap,
    # built once
    ids, loss = links.row(0)
    assert ids.tolist() == [j for j in range(1, len(points)) if full[j] <= cap]
    assert loss.tolist() == full[ids].tolist()
    assert links.row(0) is links.row(0)
