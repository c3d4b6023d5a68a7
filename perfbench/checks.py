"""Output checks and behaviour fingerprints for one simulation's output
directory.

The checks read the files as a user would, with their own parsing, and
use the package only to re-resolve ``config.txt`` (``RunConfig.from_flat``)
and hash it, which is the reproducibility promise being checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

CENSUS = ("n_sleep", "n_probe", "n_active", "n_dead")
MSGS = ("msgs_probe", "msgs_probe_reply", "msgs_conn", "msgs_conn_reply")
FILES = ("metrics.csv", "snapshot.json", "summary.json", "config.txt")


def _meta(line: str) -> dict:
    """``# seed=1 config=abcd rng=philox`` -> {"seed": "1", ...}"""
    if not line.startswith("#"):
        raise ValueError(f"missing meta line, got {line!r}")
    return dict(part.split("=", 1) for part in line[1:].split())


def read_config_txt(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    flat = dict(line.split("=", 1) for line in lines[1:] if line)
    return _meta(lines[0]), flat


def read_metrics_csv(path: str) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = _meta(lines[0])
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"row has {len(parts)} fields, header {len(header)}")
        rows.append({k: (int(v) if k in CENSUS + MSGS else float(v))
                     for k, v in zip(header, parts)})
    return meta, rows


def check_run_dir(path: str, run_config_cls, healing: bool) -> list[str]:
    """Problems found in one simulation's outputs; empty when it passes."""
    missing = [f for f in FILES + (("healing.json",) if healing else ())
               if not os.path.isfile(os.path.join(path, f))]
    if missing:
        return [f"missing {', '.join(missing)}"]
    problems = []
    meta, flat = read_config_txt(os.path.join(path, "config.txt"))
    config = run_config_cls.from_flat(flat)
    if config.config_hash() != meta["config"]:
        problems.append("config.txt does not re-parse to its config hash")
    csv_meta, rows = read_metrics_csv(os.path.join(path, "metrics.csv"))
    if csv_meta != meta:
        problems.append("metrics.csv meta line differs from config.txt")
    if not rows:
        return problems + ["metrics.csv has no rows"]
    nodes = config.node_count
    for i, row in enumerate(rows):
        if sum(row[k] for k in CENSUS) != nodes:
            problems.append(f"row {i}: census does not sum to {nodes}")
        if not 0.0 <= row["coverage"] <= 1.0:
            problems.append(f"row {i}: coverage {row['coverage']} outside [0, 1]")
        if i and any(row[k] < rows[i - 1][k] for k in MSGS):
            problems.append(f"row {i}: a msgs_* column decreased")
    with open(os.path.join(path, "summary.json")) as fh:
        summary = json.load(fh)
    totals, final = summary["totals"], rows[-1]
    if summary["meta"]["config"] != meta["config"]:
        problems.append("summary.json config hash differs from config.txt")
    expected = {
        "coverage_final": final["coverage"],
        "components_final": final["components"],
        "isolated_final": final["isolated"],
        **{f"messages.{k[5:]}": final[k] for k in MSGS},
        **{f"census.{k[2:].upper()}": final[k] for k in CENSUS},
    }
    for key, want in expected.items():
        node = totals
        for part in key.split("."):
            node = node[part]
        if node != want:
            problems.append(f"summary {key}={node} but final row has {want}")
    if not math.isclose(totals["energy"]["total_j"], final["energy_total_j"],
                        rel_tol=1e-12):
        problems.append("summary energy total differs from the final row")
    if healing:
        with open(os.path.join(path, "healing.json")) as fh:
            report = json.load(fh)
        if not report["failures"]:
            problems.append("healing.json lists no failure")
        for entry in report["failures"]:
            if entry["recovered_at"] is None:
                problems.append(f"no recovery after the kill at {entry['time']}")
    return problems


def fingerprint(path: str) -> dict:
    """sha256 of the behaviour-carrying outputs, with the host-time field
    of summary.json removed, plus events and frames by kind."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    with open(os.path.join(path, "summary.json")) as fh:
        summary = json.load(fh)
    summary.pop("runtime_wall_s", None)
    out = {}
    for name in ("metrics.csv", "snapshot.json"):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = sha(fh.read())
    out["summary.json"] = sha(json.dumps(summary, sort_keys=True).encode())
    out["events"] = summary["totals"]["events"]
    out["frames"] = summary["totals"]["messages"]
    return out


def digest(fingerprints: list[dict]) -> str:
    """One hash over a pass's per-simulation fingerprints, in order."""
    text = json.dumps(fingerprints, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
