"""Observability: coverage fraction, guard connectivity, CSV/JSON outputs.

The metrics take the guards' positions (and, for connectivity, their
transmit powers) as arrays, so a caller passes just the guards it keeps.
The connectivity graph deliberately uses deterministic (zero-shadowing)
received power at the nodes' current transmit levels so the metric is
stable run to run; the stochastic per-frame LQI stays a protocol-runtime
signal only.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .channel import RadioConfig, lqi_array, rx_power_array

CSV_HEADER = ("time_s,n_sleep,n_probe,n_active,n_dead,coverage,components,"
              "isolated,msgs_probe,msgs_probe_reply,msgs_conn,msgs_conn_reply,"
              "energy_total_j,energy_mean_j")


def _grid_centers(extent: float, step: float) -> np.ndarray:
    n = max(1, math.ceil(extent / step))
    return (np.arange(n, dtype=float) + 0.5) * step


class CoverageGrid:
    """Grid cell centers over the field, each with the number of guards
    within sensing range of it.

    A guard's cells are found once when it is added and once when it is
    removed, so the covered fraction is one count over the cells.
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

    def _reach(self, x: float, y: float) -> np.ndarray:
        return (self._cx - x) ** 2 + (self._cy - y) ** 2 <= self._r2

    def add(self, x: float, y: float) -> None:
        self.counts += self._reach(x, y)

    def remove(self, x: float, y: float) -> None:
        self.counts -= self._reach(x, y)

    def fraction(self) -> float:
        """Fraction of cell centers within sensing range of some guard."""
        return np.count_nonzero(self.counts) / self.counts.size


def coverage_fraction(xs, ys, field_width: float, field_height: float,
                      sensing_range: float, grid_step: float) -> float:
    """Fraction of grid cell centers within sensing range of a guard at
    (``xs[i]``, ``ys[i]``)."""
    grid = CoverageGrid(field_width, field_height, sensing_range, grid_step)
    for x, y in zip(xs, ys):
        grid.add(x, y)
    return grid.fraction()


def guard_adjacency(xs, ys, tx_dbm, radio: RadioConfig) -> np.ndarray:
    """Symmetric link matrix of the guards: i and j are linked when each
    hears the other at LQI >= threshold (zero shadowing)."""
    x, y, tx = np.asarray(xs), np.asarray(ys), np.asarray(tx_dbm)
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    # lqi[i, j]: quality of i's transmission measured at j
    lqi = lqi_array(radio, rx_power_array(radio, tx[:, None], d))
    adj = (lqi >= radio.lqi_threshold) & (lqi.T >= radio.lqi_threshold)
    np.fill_diagonal(adj, False)
    return adj


def components_from_adjacency(adj: np.ndarray) -> list[list[int]]:
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


def guard_components(xs, ys, tx_dbm, radio: RadioConfig) -> list[list[int]]:
    """Connected components of the guard graph, as lists of indices into
    the guard arrays."""
    return components_from_adjacency(guard_adjacency(xs, ys, tx_dbm, radio))


def sentinel_components(xs, ys, tx_dbm, radio: RadioConfig) -> dict[str, int]:
    comps = guard_components(xs, ys, tx_dbm, radio)
    return {"component_count": len(comps),
            "isolated_count": sum(1 for c in comps if len(c) == 1)}


# -- output files -----------------------------------------------------------


def meta_line(seed: int, config_hash: str, rng_name: str) -> str:
    return f"# seed={seed} config={config_hash} rng={rng_name}"


def format_row(row: dict) -> str:
    return ",".join([
        _fmt(row["time_s"]), str(row["n_sleep"]), str(row["n_probe"]),
        str(row["n_active"]), str(row["n_dead"]), _fmt(row["coverage"]),
        str(row["components"]), str(row["isolated"]), str(row["msgs_probe"]),
        str(row["msgs_probe_reply"]), str(row["msgs_conn"]),
        str(row["msgs_conn_reply"]), _fmt(row["energy_total_j"]),
        _fmt(row["energy_mean_j"]),
    ])


def _fmt(x: float) -> str:
    return repr(float(x))


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
