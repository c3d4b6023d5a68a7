"""Observability: coverage fraction, guard connectivity, CSV/JSON outputs.

A simulation keeps both metrics current as guards change: ``CoverageGrid``
counts the guards over each cell and the cells some guard covers, and
``GuardGraph`` keeps the guard graph's components by union-find as guards
join, raise their power and die, so a sample reads two counters.
``coverage_fraction`` and ``guard_components`` compute the same from the
guards' positions (and, for connectivity, their transmit powers) as arrays.
The connectivity graph deliberately uses deterministic (zero-shadowing)
received power at the nodes' current transmit levels so the metric is
stable run to run; the stochastic per-frame LQI stays a protocol-runtime
signal only. Its links are read from the channel's per-sender link rows
and judged against the weak-link floor, the same LQI decision the link
control makes; a simulation passes the rows its frames already built.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .channel import LinkRows, RadioConfig, weak_link_floor

CSV_HEADER = ("time_s,n_sleep,n_probe,n_active,n_dead,coverage,components,"
              "isolated,msgs_probe,msgs_probe_reply,msgs_conn,msgs_conn_reply,"
              "energy_total_j,energy_mean_j")
_COLUMNS = CSV_HEADER.split(",")


def _grid_centers(extent: float, step: float) -> np.ndarray:
    n = max(1, math.ceil(extent / step))
    return (np.arange(n, dtype=float) + 0.5) * step


class CoverageGrid:
    """Grid cell centers over the field, each with the number of guards
    within sensing range of it, and how many cells some guard covers.

    A guard's cells are found once when it is added and once when it is
    removed, within its bounding box, and the covered count changes by
    what changed there, so the covered fraction is one division.
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
        self.covered = 0  # cells with a nonzero count

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
        self._update(x, y, np.add)

    def remove(self, x: float, y: float) -> None:
        self._update(x, y, np.subtract)

    def _update(self, x: float, y: float, op) -> None:
        box, reach = self._reach(x, y)
        cells = self.counts[box]  # a view: the update lands in counts
        before = np.count_nonzero(cells)
        op(cells, reach, out=cells)
        self.covered += int(np.count_nonzero(cells) - before)

    def fraction(self) -> float:
        """Fraction of cell centers within sensing range of some guard."""
        return self.covered / self.counts.size


def coverage_fraction(xs, ys, field_width: float, field_height: float,
                      sensing_range: float, grid_step: float) -> float:
    """Fraction of grid cell centers within sensing range of a guard at
    (``xs[i]``, ``ys[i]``)."""
    grid = CoverageGrid(field_width, field_height, sensing_range, grid_step)
    for x, y in zip(xs, ys):
        grid.add(x, y)
    return grid.fraction()


class GuardGraph:
    """The guard graph's component and isolated-guard counts, kept as guards
    join, raise their power and die.

    A union-find over node ids (Tarjan, "Efficiency of a good but not
    linear set union algorithm", JACM 1975) that counts its components and
    its singletons. Two guards are linked when each hears the other at the
    weak-link ``floor`` or above with zero shadowing: ``min(p_g, p_h) - loss
    >= floor``, the loss read from ``links``, whose rows reach every pair
    that can be linked at the top power level. The rule itself cuts a row
    at a guard's own power, so no cap is searched for. A floor of -inf
    links every pair.

    Between deaths guards only join and powers only rise, so links are only
    added: ``add`` scans the joining guard's row against the current guards,
    and ``rise`` scans the guard's row again at its new power. ``remove``
    marks the graph stale, and the next ``counts`` rebuilds it from the
    surviving guards through ``add``.
    """

    def __init__(self, links: LinkRows, floor: float):
        self._links, self._floor = links, floor
        n = len(links)
        self._power = np.full(n, -math.inf)  # -inf: not a joined guard
        self._parent = list(range(n))
        self._size = [1] * n
        self._anchor = None  # with a floor of -inf, the guard all join
        self._stale = False
        self._components = self._isolated = 0

    def add(self, guard: int, power: float) -> None:
        """``guard`` joins at ``power`` dBm, linked to the current guards."""
        self._power[guard] = power
        if self._stale:  # the rebuild joins it
            return
        self._parent[guard] = guard
        self._size[guard] = 1
        self._components += 1
        self._isolated += 1
        self._scan(guard)

    def rise(self, guard: int, power: float) -> None:
        """``guard``'s power rose to ``power`` dBm."""
        self._power[guard] = power
        if not self._stale:
            self._scan(guard)

    def remove(self, guard: int) -> None:
        """``guard`` died: its links go at the next rebuild."""
        self._power[guard] = -math.inf
        self._stale = True

    def counts(self) -> tuple[int, int]:
        """How many components there are, and how many of them hold one
        guard."""
        if self._stale:
            guards = np.flatnonzero(self._power != -math.inf)
            powers = self._power[guards].tolist()
            self._power[guards] = -math.inf
            self._stale = False
            self._components = self._isolated = 0
            for guard, power in zip(guards.tolist(), powers):
                self.add(guard, power)
        return self._components, self._isolated

    def groups(self) -> list[list[int]]:
        """The components as ascending id lists, by their least id."""
        self.counts()
        groups: dict[int, list[int]] = {}
        for guard in np.flatnonzero(self._power != -math.inf).tolist():
            groups.setdefault(self._root(guard), []).append(guard)
        return list(groups.values())

    def _scan(self, guard: int) -> None:
        if self._floor == -math.inf:  # any LQI qualifies, at any distance
            anchor = self._anchor
            if anchor is None or self._power[anchor] == -math.inf:
                self._anchor = guard
            else:
                self._union(guard, anchor)
            return
        ids, loss = self._links.row(guard)
        # LQI falls with the power, so the weaker direction decides the
        # link; a node that is not a guard has power -inf
        power = self._power
        for other in ids[np.minimum(power[ids], power[guard]) - loss
                         >= self._floor].tolist():
            self._union(guard, other)

    def _root(self, a: int) -> int:
        parent = self._parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def _union(self, a: int, b: int) -> None:
        a, b = self._root(a), self._root(b)
        if a == b:
            return
        size = self._size
        if size[a] < size[b]:
            a, b = b, a
        self._isolated -= (size[a] == 1) + (size[b] == 1)
        self._parent[b] = a
        size[a] += size[b]
        self._components -= 1


def guard_components(xs, ys, tx_dbm, radio: RadioConfig, ids=None,
                     links: LinkRows | None = None) -> list[list[int]]:
    """Connected components of the guard graph, as lists of indices into
    the guard arrays, each ascending, ordered by their least index.

    Guards are linked when each hears the other at LQI >= threshold (zero
    shadowing), by ``GuardGraph``'s rule. ``xs``/``ys`` are node positions
    and the guards are the nodes ``ids`` (ascending; by default every node),
    with powers ``tx_dbm`` among the radio's levels. ``links``, link rows
    over the same positions and radio, lets the rows outlive the call; by
    default rows are built for it.
    """
    if ids is None:
        ids = range(len(tx_dbm))
    if links is None:
        links = LinkRows(xs, ys, radio)
    graph = GuardGraph(links, weak_link_floor(radio))
    for guard, power in zip(ids, tx_dbm):
        graph.add(guard, float(power))
    slot = {guard: k for k, guard in enumerate(ids)}
    return [[slot[guard] for guard in group] for group in graph.groups()]


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
