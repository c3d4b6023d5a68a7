"""Observability: coverage fraction, guard connectivity, CSV/JSON outputs.

The metrics take the guards' positions (and, for connectivity, their
transmit powers) as arrays, so a caller passes just the guards it keeps.
The connectivity graph deliberately uses deterministic (zero-shadowing)
received power at the nodes' current transmit levels so the metric is
stable run to run; the stochastic per-frame LQI stays a protocol-runtime
signal only. Its links are read from the channel's per-sender link rows,
each guard's row cut where its power falls below the weak-link floor, the
same LQI decision the link control makes, and joined by union-find; a
simulation passes the rows its frames already built.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .channel import LinkRows, RadioConfig, loss_cap, weak_link_floor

CSV_HEADER = ("time_s,n_sleep,n_probe,n_active,n_dead,coverage,components,"
              "isolated,msgs_probe,msgs_probe_reply,msgs_conn,msgs_conn_reply,"
              "energy_total_j,energy_mean_j")
_COLUMNS = CSV_HEADER.split(",")


def _grid_centers(extent: float, step: float) -> np.ndarray:
    n = max(1, math.ceil(extent / step))
    return (np.arange(n, dtype=float) + 0.5) * step


class CoverageGrid:
    """Grid cell centers over the field, each with the number of guards
    within sensing range of it.

    A guard's cells are found once when it is added and once when it is
    removed, within its bounding box, so the covered fraction is one count
    over the cells.
    """

    def __init__(self, field_width: float, field_height: float,
                 sensing_range: float, grid_step: float):
        if grid_step <= 0.0:
            raise ValueError("grid_step must be positive")
        # a column and a row of centers: the distance test broadcasts them
        self._cx = _grid_centers(field_width, grid_step)[:, None]
        self._cy = _grid_centers(field_height, grid_step)[None, :]
        self._r2 = sensing_range * sensing_range
        self.counts = np.zeros((self._cx.size, self._cy.size), dtype=np.int32)

    def _reach(self, x: float, y: float) -> tuple[tuple[slice, slice], np.ndarray]:
        """The bounding box of the cells within range of (x, y), and which
        cells of that box are."""
        dx2 = (self._cx - x) ** 2
        dy2 = (self._cy - y) ** 2
        # a cell whose dx2 alone is past r2 is out of range: adding dy2 >= 0
        # cannot round the sum back down
        rows = np.flatnonzero(dx2 <= self._r2)
        cols = np.flatnonzero(dy2 <= self._r2)
        if not (rows.size and cols.size):
            return (slice(0, 0), slice(0, 0)), np.zeros((0, 0), dtype=bool)
        box_x = slice(rows[0], rows[-1] + 1)
        box_y = slice(cols[0], cols[-1] + 1)
        return (box_x, box_y), dx2[box_x] + dy2[:, box_y] <= self._r2

    def add(self, x: float, y: float) -> None:
        box, reach = self._reach(x, y)
        self.counts[box] += reach

    def remove(self, x: float, y: float) -> None:
        box, reach = self._reach(x, y)
        self.counts[box] -= reach

    def fraction(self) -> float:
        """Fraction of cell centers within sensing range of some guard."""
        return int(np.count_nonzero(self.counts)) / self.counts.size


def coverage_fraction(xs, ys, field_width: float, field_height: float,
                      sensing_range: float, grid_step: float) -> float:
    """Fraction of grid cell centers within sensing range of a guard at
    (``xs[i]``, ``ys[i]``)."""
    grid = CoverageGrid(field_width, field_height, sensing_range, grid_step)
    for x, y in zip(xs, ys):
        grid.add(x, y)
    return grid.fraction()


def guard_components(xs, ys, tx_dbm, radio: RadioConfig, ids=None,
                     links: LinkRows | None = None) -> list[list[int]]:
    """Connected components of the guard graph, as lists of indices into
    the guard arrays.

    Guards are linked when each hears the other at LQI >= threshold (zero
    shadowing). ``xs``/``ys`` are node positions and the guards are the
    nodes ``ids`` (ascending; by default every node), with powers
    ``tx_dbm`` among the radio's levels. ``links``, link rows over the same
    positions and radio, lets the rows outlive the call; by default rows are
    built for it.
    """
    n_guards = len(tx_dbm)
    if not n_guards:
        return []
    floor = weak_link_floor(radio)
    if floor == -math.inf:  # any LQI qualifies, at any distance
        return [list(range(n_guards))]
    if ids is None:
        ids = range(n_guards)
    if links is None:
        links = LinkRows(xs, ys, radio)
    powers = [float(p) for p in tx_dbm]
    # a row reaches the guard links of the top power level, so each guard's
    # row is cut at its own power's cap
    caps = {p: loss_cap(p, floor) for p in set(powers)}
    near_ids, near_loss = [], []
    for g, p in zip(ids, powers):
        row_ids, row_loss = links.row(g)
        near = row_loss <= caps[p]
        near_ids.append(row_ids[near])
        near_loss.append(row_loss[near])
    slot = np.full(len(xs), -1)  # each node's index among the guards
    slot[list(ids)] = np.arange(n_guards)
    # (guard, other guard, loss) over the rows; each pair once, from its
    # lower index, whose row holds it whenever the pair can be linked
    src = np.repeat(np.arange(n_guards), [a.size for a in near_ids])
    dst = slot[np.concatenate(near_ids)]
    loss = np.concatenate(near_loss)
    pair = dst > src
    src, dst, loss = src[pair], dst[pair], loss[pair]
    # LQI falls with the power, so the weaker direction decides the link
    tx = np.array(powers)
    linked = np.minimum(tx[src], tx[dst]) - loss >= floor
    parent = list(range(n_guards))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(src[linked].tolist(), dst[linked].tolist()):
        a, b = root(a), root(b)
        parent[max(a, b)] = min(a, b)
    comps: dict[int, list[int]] = {}
    for a in range(n_guards):
        comps.setdefault(root(a), []).append(a)
    return list(comps.values())


def sentinel_components(xs, ys, tx_dbm, radio: RadioConfig, ids=None,
                        links: LinkRows | None = None) -> dict[str, int]:
    """Component and isolated-guard counts of ``guard_components``."""
    comps = guard_components(xs, ys, tx_dbm, radio, ids, links)
    return {"component_count": len(comps),
            "isolated_count": sum(1 for c in comps if len(c) == 1)}


# -- output files -----------------------------------------------------------


def meta_line(seed: int, config_hash: str, rng_name: str) -> str:
    return f"# seed={seed} config={config_hash} rng={rng_name}"


def format_row(row: dict) -> str:
    """A metrics row in ``CSV_HEADER``'s column order: floats (``np.float64``
    included) as ``repr(float(v))``, counts as ``str(v)``."""
    return ",".join([repr(float(v)) if isinstance(v, float) else str(v)
                     for v in map(row.__getitem__, _COLUMNS)])


@contextlib.contextmanager
def atomic_write(path):
    """A text file that replaces ``path`` when the block ends and is removed
    if the block raises, so ``path`` never holds a partial document."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_metrics_csv(path, rows, meta: str) -> None:
    with atomic_write(path) as fh:
        fh.write(meta + "\n")
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def read_metrics_csv(path) -> list[dict]:
    """Parse a metrics file back into row dicts (meta/header skipped)."""
    rows = []
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    keys = lines[0].split(",")
    for line in lines[1:]:
        parts = line.split(",")
        row = {}
        for key, part in zip(keys, parts):
            row[key] = int(part) if part.lstrip("-").isdigit() else float(part)
        rows.append(row)
    return rows


def write_json(path, document: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def write_config_echo(path, config, meta: str) -> None:
    with atomic_write(path) as fh:
        fh.write(meta + "\n")
        for key, value in config.to_flat().items():
            fh.write(f"{key}={value}\n")
