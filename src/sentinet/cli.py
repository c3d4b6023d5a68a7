"""Experiment runner: single runs, parameter sweeps, and fault injection.

Configuration resolves in layers: built-in defaults, then a flat key=value
config file (--config), then explicit flags; SENTINET_SEED overrides the
seed when set. The flags set a subset of the config keys (``FLAG_KEYS``)
and hand their text to the same parser as the file. A sweep resolves every
point's configuration before its first run, and its repetitions run with
the resolved seed + rep. Every output directory receives the fully resolved
configuration, so any result can be reproduced from its own echo.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import HAZARD_FEEDBACK_MODES, LinkControlMode, RunConfig
from .engine import RNG_NAME
from .metrics import atomic_write, meta_line
from .sim import run_simulation, write_outputs

AGGREGATE_HEADER = "axis_value,rep,energy_total_j,energy_mean_j,components,coverage_final"

class CliError(Exception):
    pass


# Config keys settable by flag: --link-control sets link_control, and so on.
FLAG_KEYS = ("nodes", "field", "duration", "seed", "beta", "lambda",
             "link_control", "lqi_threshold", "tx_levels", "sensing_range",
             "grid_step", "tw", "tc_min", "tc_max", "shadowing_sigma",
             "metric_interval", "hazard_feedback")
_FLAG_OPTIONS = {
    "field": {"metavar": "WxH"},
    "link_control": {"choices": [m.value for m in LinkControlMode]},
    "tx_levels": {"metavar": "DBM,DBM,...",
                  "help": "ascending levels; use --tx-levels=-10,-5 "
                          "(leading dash needs the = form)"},
    "hazard_feedback": {"choices": HAZARD_FEEDBACK_MODES},
}


def _common_flags(parser: argparse.ArgumentParser) -> None:
    """Config flags, whose dest is their key, and the output options."""
    for key in FLAG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"),
                            **_FLAG_OPTIONS.get(key, {}))
    parser.add_argument("--config", metavar="FILE")
    parser.add_argument("--out", required=True, metavar="DIR")
    parser.add_argument("--force", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentinet",
        description="Self-healing sensor-network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one simulation")
    _common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run one axis point per value x repetitions")
    _common_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True,
                         choices=["beta", "nodes", "link_control"])
    sweep_p.add_argument("--values", required=True, metavar="V1,V2,...")
    sweep_p.add_argument("--reps", type=int, default=1)

    inject_p = sub.add_parser("inject", help="run with fault injection")
    _common_flags(inject_p)
    inject_p.add_argument("--kill", action="append", default=[], metavar="SPEC",
                          help="sentinels-at=T[:count=K] or node=ID:at=T")
    inject_p.add_argument("--healing-epsilon", type=float, default=0.05)
    return parser


def parse_config_file(path: str) -> dict[str, str]:
    flat: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        flat[key.strip()] = value.strip()
    return flat


def resolve_config(args: argparse.Namespace,
                   overrides: dict[str, str] | None = None) -> RunConfig:
    from_file = parse_config_file(args.config) if args.config else {}
    later = {key: getattr(args, key) for key in FLAG_KEYS
             if getattr(args, key) is not None}
    env_seed = os.environ.get("SENTINET_SEED")
    if env_seed is not None:
        later["seed"] = env_seed
    if overrides:
        later.update(overrides)
    try:
        return RunConfig.from_flat({**from_file, **later})
    except (ValueError, KeyError) as exc:
        # the file is to blame only if the values it still sets fail alone
        kept = {k: v for k, v in from_file.items() if k not in later}
        try:
            RunConfig.from_flat(kept)
        except (ValueError, KeyError) as own:
            raise CliError(f"{args.config}: {own}") from exc
        raise CliError(f"configuration: {exc}") from exc


def prepare_out_dir(path: str, force: bool) -> None:
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise CliError(f"output directory {path!r} is not empty (use --force)")
    os.makedirs(path, exist_ok=True)


def parse_kill_spec(spec: str) -> dict:
    fields = {}
    for part in spec.split(":"):
        key, sep, value = part.partition("=")
        if not sep:
            raise CliError(f"bad --kill spec {spec!r}: expected key=value parts")
        fields[key.strip()] = value.strip()
    try:
        if "sentinels-at" in fields:
            count = int(fields["count"]) if "count" in fields else None
            parsed = {"kind": "sentinels", "time": float(fields["sentinels-at"]),
                      "count": count}
        elif "node" in fields:
            parsed = {"kind": "node", "node": int(fields["node"]),
                      "time": float(fields["at"])}
        else:
            raise CliError(f"bad --kill spec {spec!r}: need sentinels-at=T or node=ID:at=T")
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad --kill spec {spec!r}: {exc}") from exc
    time = parsed["time"]
    if not (math.isfinite(time) and time >= 0.0) or (parsed.get("count") or 0) < 0:
        raise CliError(f"bad --kill spec {spec!r}: need a finite time >= 0 "
                       "and a count >= 0")
    return parsed


def _cmd_run(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    prepare_out_dir(args.out, args.force)
    result = run_simulation(config)
    paths = write_outputs(result, args.out)
    print(f"run complete: {paths['metrics']}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise CliError("--values must list at least one value")
    if len(set(values)) < len(values):  # each value has one output directory
        raise CliError(f"--values lists a value twice: {args.values}")
    base = resolve_config(args)
    try:  # every point, so a bad value is rejected before anything runs
        points = [(value, rep, resolve_config(
                      args, {args.axis: value, "seed": str(base.seed + rep)}))
                  for value in values for rep in range(args.reps)]
    except CliError as exc:
        raise CliError(f"bad --values for axis {args.axis}: {exc}") from exc
    prepare_out_dir(args.out, args.force)
    aggregate = []
    for value, rep, config in points:
        sub = os.path.join(args.out, f"{args.axis}_{value}_rep{rep}")
        prepare_out_dir(sub, args.force)
        result = run_simulation(config)
        write_outputs(result, sub)
        totals = result.summary["totals"]
        aggregate.append((value, rep, totals["energy"]["total_j"],
                          totals["energy"]["mean_per_node_j"],
                          totals["components_final"],
                          totals["coverage_final"]))
    agg_path = os.path.join(args.out, "aggregate.csv")
    with atomic_write(agg_path) as fh:
        fh.write(meta_line(base.seed, base.config_hash(), RNG_NAME) + "\n")
        fh.write(AGGREGATE_HEADER + "\n")
        for value, rep, total, mean, comps, cov in aggregate:
            fh.write(f"{value},{rep},{total!r},{mean!r},{comps},{cov!r}\n")
    print(f"sweep complete: {agg_path}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    # everything is checked before the output directory exists
    epsilon = args.healing_epsilon
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise CliError(f"--healing-epsilon must be a finite number >= 0, got {epsilon}")
    specs = [parse_kill_spec(s) for s in args.kill]
    for spec in specs:
        if spec["kind"] == "node" and not 0 <= spec["node"] < config.node_count:
            raise CliError(f"unknown node id {spec['node']}")
    node_failures = []
    sentinel_failures = []
    for spec in specs:
        if spec["time"] > config.duration:
            print(f"warning: kill at t={spec['time']} is beyond the "
                  f"{config.duration}s horizon; skipped", file=sys.stderr)
            continue
        if spec["kind"] == "node":
            node_failures.append((spec["node"], spec["time"]))
        else:
            sentinel_failures.append((spec["time"], spec["count"]))
    prepare_out_dir(args.out, args.force)
    try:
        result = run_simulation(config, failures=node_failures,
                                sentinel_failures=sentinel_failures)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    paths = write_outputs(result, args.out, healing_epsilon=args.healing_epsilon)
    print(f"inject complete: {paths['healing']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "inject": _cmd_inject}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
