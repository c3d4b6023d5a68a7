import math

import pytest
from hypothesis import given, settings, strategies as st

from sentinet.channel import (SHADOW_CLIP, LinkRows, RadioConfig, compute_lqi,
                              loss_cap, path_loss_db, weak_link_floor)
from sentinet.config import RunConfig
from sentinet.sim import Simulation
from sentinet import metrics
from sentinet.metrics import (CSV_HEADER, CoverageGrid, GuardGraph,
                              coverage_fraction, format_row,
                              guard_components, meta_line,
                              read_metrics_csv, sentinel_components,
                              write_json, write_metrics_csv)

import numpy as np

RADIO = RadioConfig()


def guards(*points):
    """x, y and tx power arrays for guards given as (x, y[, power])."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    powers = [p[2] if len(p) > 2 else -10.0 for p in points]
    return np.array(xs, dtype=float), np.array(ys, dtype=float), powers


def cover(points, sensing_range, step, field=100.0):
    xs, ys, _ = guards(*points)
    return coverage_fraction(xs, ys, field, field, sensing_range, step)


def components(*points):
    return sentinel_components(*guards(*points), RADIO)


def brute_coverage(points, sensing_range, step, field=100.0):
    """Independent oracle: plain python loops over the same grid."""
    nx = max(1, math.ceil(field / step))
    ny = max(1, math.ceil(field / step))
    r2 = sensing_range * sensing_range
    covered = 0
    for i in range(nx):
        for j in range(ny):
            cx = (i + 0.5) * step
            cy = (j + 0.5) * step
            if any((cx - ax) ** 2 + (cy - ay) ** 2 <= r2 for ax, ay in points):
                covered += 1
    return covered / (nx * ny)


def test_no_guards_no_coverage():
    assert cover([], 15.0, 1.0) == 0.0


def test_single_central_guard_matches_disc_area():
    cov = cover([(50.0, 50.0)], 15.0, 1.0)
    assert cov == brute_coverage([(50.0, 50.0)], 15.0, 1.0)
    # 1 m grid discretization sits within ~2% of the continuous disc area
    assert cov == pytest.approx(math.pi * 15.0 ** 2 / 1e4, rel=0.02)


def test_saturated_coverage():
    assert cover([(50.0, 50.0)], 150.0, 1.0) == 1.0


def test_coverage_monotone_in_range_and_guards():
    one = [(20.0, 20.0)]
    two = [(20.0, 20.0), (70.0, 60.0)]
    assert cover(two, 15.0, 2.0) >= cover(one, 15.0, 2.0)
    assert cover(one, 20.0, 2.0) >= cover(one, 15.0, 2.0)


def test_coverage_rejects_bad_grid():
    with pytest.raises(ValueError):
        cover([], 15.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
                min_size=0, max_size=6),
       st.floats(2.0, 30.0))
def test_coverage_equals_brute_force(points, sensing):
    assert (cover(points, sensing, 1.0, field=50.0)
            == brute_coverage(points, sensing, 1.0, field=50.0))


def brute_counts(points, sensing_range, step, field):
    """Guards within range of each cell, in the grid's cell order."""
    n = max(1, math.ceil(field / step))
    r2 = sensing_range * sensing_range
    return [sum((cx - ax) ** 2 + (cy - ay) ** 2 <= r2 for ax, ay in points)
            for cx in ((i + 0.5) * step for i in range(n))
            for cy in ((j + 0.5) * step for j in range(n))]


def test_cell_exactly_at_sensing_range_is_covered():
    # 3-4-5: the cell centered at (10.5, 10.5) lies exactly 5 m away
    grid = CoverageGrid(20.0, 20.0, 5.0, 1.0)
    grid.add(13.5, 14.5)
    assert grid.counts[10, 10] == 1
    assert grid.counts.ravel().tolist() == brute_counts([(13.5, 14.5)], 5.0, 1.0, 20.0)


# quarter-metre positions put cell centers exactly at 3-4-5 and 5-12-13
# distances from a guard, and guards on the field's corners and edges;
# arbitrary floats cover the rest
coords = st.one_of(st.integers(0, 80).map(lambda k: k * 0.25),
                   st.sampled_from([0.0, 20.0]),
                   st.floats(0.0, 20.0))


@settings(max_examples=80, deadline=None)
@given(step=st.sampled_from([1.0, 2.5]),
       sensing=st.one_of(st.sampled_from([5.0, 13.0, 30.0]),
                         st.floats(0.5, 40.0)),
       ops=st.lists(st.one_of(st.tuples(st.just("add"), coords, coords),
                              st.tuples(st.just("remove"), st.integers(0, 99))),
                    max_size=12))
def test_coverage_grid_tracks_guard_set(step, sensing, ops):
    grid = CoverageGrid(20.0, 20.0, sensing, step)
    present = []
    for op in ops:
        if op[0] == "add":
            present.append(op[1:])
            grid.add(*op[1:])
        elif present:
            grid.remove(*present.pop(op[1] % len(present)))
        want = brute_counts(present, sensing, step, 20.0)
        assert grid.counts.ravel().tolist() == want
        assert grid.covered == np.count_nonzero(grid.counts)
        assert grid.fraction() == brute_coverage(present, sensing, step, 20.0)


# -- connectivity -------------------------------------------------------------


def test_adjacent_pair_is_one_component():
    assert components((10.0, 10.0), (11.0, 10.0)) == {"component_count": 1,
                                                       "isolated_count": 0}


def test_no_guards_no_components():
    assert components() == {"component_count": 0, "isolated_count": 0}


def test_chain_connects_transitively():
    # consecutive pairs in range, ends not directly linked
    chain = guards((10.0, 50.0), (17.0, 50.0), (24.0, 50.0))
    assert guard_components(*chain, RADIO) == [[0, 1, 2]]


def test_low_power_pair_beyond_threshold_radius_is_isolated():
    # 12 m apart: fine at -5 dBm, too weak for LQI 7 at -10 dBm
    assert components((40.0, 50.0, -10.0),
                      (52.0, 50.0, -10.0))["isolated_count"] == 2
    assert components((40.0, 50.0, -5.0), (52.0, 50.0, -5.0)) == {
        "component_count": 1, "isolated_count": 0}


def test_edge_requires_both_directions():
    assert components((40.0, 50.0, -5.0),
                      (52.0, 50.0, -10.0))["isolated_count"] == 2


@pytest.mark.oracle
def test_pair_exactly_at_the_weak_link_floor_is_linked():
    # 10 m apart with a 53 dB reference loss, the path loss is 53 + 24 = 77
    # dB exactly, so the weaker guard's -10 dBm arrives at -87 dBm, the
    # floor itself: LQI 7 meets the threshold and the pair is linked
    radio = RadioConfig(reference_loss_db=53.0)
    xs, ys, powers = guards((0.0, 0.0, -10.0), (10.0, 0.0, -5.0))
    assert min(powers) - path_loss_db(radio, np.array([10.0]))[0] \
        == weak_link_floor(radio) == -87.0
    assert compute_lqi(radio, -87.0) == radio.lqi_threshold
    assert guard_components(xs, ys, powers, radio) == [[0, 1]]
    # a micrometre further out the weaker direction falls below the floor
    far = np.array([0.0, 10.000001])
    assert guard_components(far, ys, powers, radio) == [[0], [1]]


def lqi_array(radio, rx_dbm):
    """``compute_lqi`` over an array of received powers."""
    span = radio.lqi_snr_max_db - radio.lqi_snr_min_db
    frac = np.clip((rx_dbm - radio.noise_floor_dbm - radio.lqi_snr_min_db) / span,
                   0.0, 1.0)
    return np.floor(10.0 * frac + 0.5).astype(int)


def reference_adjacency(xs, ys, tx_dbm, radio):
    """Symmetric link matrix of the guards: i and j are linked when each
    hears the other at LQI >= threshold (zero shadowing)."""
    x, y, tx = np.asarray(xs), np.asarray(ys), np.asarray(tx_dbm)
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    # lqi[i, j]: quality of i's transmission measured at j
    lqi = lqi_array(radio, tx[:, None] - path_loss_db(radio, d))
    adj = (lqi >= radio.lqi_threshold) & (lqi.T >= radio.lqi_threshold)
    np.fill_diagonal(adj, False)
    return adj


def components_from_adjacency(adj):
    """Connected components (index lists) by breadth-first search."""
    n = adj.shape[0]
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in np.flatnonzero(adj[i]):
                    j = int(j)
                    if not seen[j]:
                        seen[j] = True
                        comp.append(j)
                        nxt.append(j)
            frontier = nxt
        comps.append(sorted(comp))
    return comps


def test_components_from_adjacency_handles_empty_and_full():
    assert components_from_adjacency(np.zeros((0, 0), dtype=bool)) == []
    full = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(full, False)
    assert components_from_adjacency(full) == [[0, 1, 2, 3]]


def test_escalation_never_splits_components():
    points = [(40.0, 50.0), (52.0, 50.0), (45.0, 58.0)]
    before = components(*[(x, y, -10.0) for x, y in points])["component_count"]
    after = components(*[(x, y, -5.0) for x, y in points])["component_count"]
    assert after <= before


# -- files --------------------------------------------------------------------


def sample_rows():
    return [{"time_s": float(t), "n_sleep": 9 - t, "n_probe": 0,
             "n_active": 1 + t, "n_dead": 0, "coverage": 0.07 * t,
             "components": 1, "isolated": 0, "msgs_probe": t,
             "msgs_probe_reply": t, "msgs_conn": 0, "msgs_conn_reply": 0,
             "energy_total_j": 0.5 * t, "energy_mean_j": 0.05 * t}
            for t in range(3)]


def test_csv_layout_and_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    meta = meta_line(42, "abcd", "philox")
    write_metrics_csv(path, sample_rows(), meta)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=42 config=abcd rng=philox"
    assert lines[1] == CSV_HEADER
    assert len(lines) == 5
    back = read_metrics_csv(path)
    assert back == sample_rows()


def test_csv_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    meta = meta_line(1, "x", "philox")
    write_metrics_csv(a, sample_rows(), meta)
    write_metrics_csv(b, sample_rows(), meta)
    assert a.read_bytes() == b.read_bytes()


def test_format_row_field_order_matches_header():
    row = format_row(sample_rows()[0])
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_format_row_writes_numpy_floats_as_python_floats():
    row = {**sample_rows()[1], "coverage": np.float64(0.07),
           "energy_total_j": np.float64(1e-17), "components": np.int64(2)}
    fields = format_row(row).split(",")
    assert fields[5] == repr(0.07) == "0.07"
    assert fields[12] == repr(1e-17) and fields[6] == "2"
    assert fields[0] == "1.0" and fields[1] == "8"


def test_interrupted_writes_leave_no_file(tmp_path, monkeypatch):
    rows = sample_rows()
    calls = []

    def failing_format_row(row):
        calls.append(row)
        if len(calls) == 2:
            raise RuntimeError("interrupted mid-write")
        return format_row(row)

    monkeypatch.setattr(metrics, "format_row", failing_format_row)
    with pytest.raises(RuntimeError):
        write_metrics_csv(tmp_path / "metrics.csv", rows, meta_line(1, "x", "philox"))
    with pytest.raises(TypeError):  # json gives up at the second key
        write_json(tmp_path / "summary.json", {"a": 1, "b": object()})
    assert list(tmp_path.iterdir()) == []


def test_rewrite_replaces_the_whole_file(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"long": "x" * 100})
    write_json(path, {"a": 1})
    assert path.read_text() == '{\n "a": 1\n}\n'
    assert list(tmp_path.iterdir()) == [path]


# -- oracle: union-find over link rows against the dense matrix ---------------

# thresholds <= 0 link every pair; without shadowing, a sensitivity above
# the LQI boundary (-87 dBm at threshold 7) cuts frames' rows short of the
# guard graph's needs, so the guard links decide the rows' cap
RADIOS = [RADIO, RadioConfig(lqi_threshold=0), RadioConfig(lqi_threshold=-3),
          RadioConfig(lqi_threshold=10), RadioConfig(lqi_threshold=11),
          RadioConfig(sensitivity_dbm=-80.0, shadowing_sigma_db=0.0),
          RadioConfig(power_levels=(-10.0, -5.0, 0.0), lqi_threshold=3)]


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(radio=st.sampled_from(RADIOS),
       points=st.lists(st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0),
                                 st.integers(0, 2)), max_size=30),
       rim=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 2),
                              st.floats(0.99, 1.01), st.floats(0.0, 2.0 * math.pi)),
                    max_size=8),
       data=st.data())
def test_guard_components_match_dense_bfs(radio, points, rim, data):
    # rim guards sit within 1% of the distance at which a partner's LQI at
    # their power crosses the threshold
    span = radio.lqi_snr_max_db - radio.lqi_snr_min_db
    boundary = (radio.noise_floor_dbm + radio.lqi_snr_min_db
                + span * (radio.lqi_threshold - 0.5) / 10.0)
    for partner, level, f, angle in rim[:len(points)]:
        x, y, _ = points[partner % len(points)]
        tx = radio.power_levels[level % len(radio.power_levels)]
        d = f * 10.0 ** ((tx - boundary - radio.reference_loss_db)
                         / (10.0 * radio.path_loss_exponent))
        points = points + [(x + d * math.cos(angle), y + d * math.sin(angle), level)]
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    # mixed powers make one-way links, which do not count
    powers = [radio.power_levels[p[2] % len(radio.power_levels)] for p in points]
    want = components_from_adjacency(reference_adjacency(xs, ys, powers, radio))
    assert guard_components(xs, ys, powers, radio) == want
    # the same guards inside a larger field, over rows built before the
    # call and kept between calls
    extra = data.draw(st.integers(0, 10))
    all_x = np.concatenate([xs, np.linspace(0.0, 60.0, extra)])
    all_y = np.concatenate([ys, np.linspace(60.0, 0.0, extra)])
    order = np.array(data.draw(st.permutations(range(len(all_x)))), dtype=int)
    node_x, node_y = np.empty_like(all_x), np.empty_like(all_y)
    node_x[order], node_y[order] = all_x, all_y
    links = LinkRows(node_x, node_y, radio)
    for nid in range(len(all_x)):
        links.row(nid)
    ids = order[:len(points)]
    by_id = np.argsort(ids)
    got = guard_components(node_x, node_y, [powers[i] for i in by_id], radio,
                           ids=sorted(ids.tolist()), links=links)
    relabeled = sorted(sorted(int(by_id[i]) for i in comp) for comp in got)
    assert relabeled == sorted(want)


@settings(max_examples=60, deadline=None)
@given(sigma=st.sampled_from([0.0, 0.25]), threshold=st.sampled_from([1, 2, 7]),
       seed=st.integers(0, 2**16), data=st.data())
def test_guard_graph_over_the_simulation_rows_matches_pairwise_lqi(
        sigma, threshold, seed, data):
    # the rows a run's frames built, at the one cap of the top power level,
    # serve the guard graph too; at thresholds 1 and 2 the weak-link floor
    # lies below sensitivity, further than a small sigma's clipped draw
    # reaches, so the guard links decide the cap
    cfg = RunConfig.from_flat({"nodes": "40", "field": "100x100",
                               "duration": "40", "seed": str(seed),
                               "shadowing_sigma": str(sigma),
                               "lqi_threshold": str(threshold),
                               "grid_step": "10", "metric_interval": "10"})
    radio = cfg.radio
    sim = Simulation(cfg)
    sim.run()
    links, xs, ys = sim._links, sim._xs, sim._ys
    top = radio.power_levels[-1]
    frame_cap = loss_cap(top, radio.sensitivity_dbm,
                         -SHADOW_CLIP * radio.shadowing_sigma_db)
    guard_cap = loss_cap(top, weak_link_floor(radio))
    assert links.cap == max(frame_cap, guard_cap)
    assert (guard_cap > frame_cap) == (threshold <= 2)
    # the run's guards at their powers, then every node at drawn powers
    guard_ids = sorted(sim._guard_ids)
    drawn = data.draw(st.lists(st.sampled_from(radio.power_levels),
                               min_size=len(xs), max_size=len(xs)))
    for ids, powers in ((guard_ids, [sim.nodes[g].tx_power for g in guard_ids]),
                        (list(range(len(xs))), drawn)):
        want = components_from_adjacency(
            reference_adjacency(xs[ids], ys[ids], powers, radio))
        got = guard_components(xs, ys, powers, radio, ids=ids, links=links)
        assert sorted(got) == sorted(want)


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(threshold=st.sampled_from([0, 1, 2, 7]), sigma=st.sampled_from([0.0, 4.0]),
       points=st.lists(st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)),
                       min_size=1, max_size=25),
       steps=st.lists(st.lists(st.tuples(st.sampled_from(["join", "rise", "die"]),
                                         st.integers(0, 1000)),
                               min_size=1, max_size=4),
                      max_size=15))
def test_guard_graph_follows_joins_rises_and_deaths(threshold, sigma, points,
                                                     steps):
    # a step is what happens between two samples: guards join at the base
    # power, raise it a level, or die for good; after each step the kept
    # counts equal the dense recount over the live guards
    radio = RadioConfig(lqi_threshold=threshold, shadowing_sigma_db=sigma)
    levels = radio.power_levels
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    graph = GuardGraph(LinkRows(xs, ys, radio), weak_link_floor(radio))
    reserve, live = list(range(len(points))), {}  # live: id -> power
    for step in steps:
        for op, k in step:
            if op == "join" and reserve:
                guard = reserve.pop(k % len(reserve))
                live[guard] = levels[0]
                graph.add(guard, levels[0])
            elif op == "rise":
                below = sorted(g for g, p in live.items() if p != levels[-1])
                if below:
                    guard = below[k % len(below)]
                    live[guard] = levels[levels.index(live[guard]) + 1]
                    graph.rise(guard, live[guard])
            elif op == "die" and live:
                guard = sorted(live)[k % len(live)]
                del live[guard]
                graph.remove(guard)
        ids = sorted(live)
        want = components_from_adjacency(reference_adjacency(
            xs[ids], ys[ids], [live[g] for g in ids], radio))
        assert graph.counts() == (len(want), sum(len(c) == 1 for c in want))
        assert graph.groups() == [[ids[i] for i in comp] for comp in want]
