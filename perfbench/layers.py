"""Per-layer metrics: which package functions are traced, how their spans and
counters become metrics, and which end-to-end metric each layer should move.

Every function is wrapped from the outside, at the module attribute its
caller looks up at call time (``sim`` calls ``chan.make_frame``,
``protocol.on_sleep_expired`` and so on), so nothing under ``src/`` changes.
"""

from __future__ import annotations

import os

LAYERS = ("engine", "sim", "channel", "protocol", "weibull", "link_control",
          "energy", "metrics", "config", "cli")

EVENT_KINDS = ("sleep_expired", "wait_expired", "conn_timer_expired",
               "tx_start", "msg_delivery", "node_failure", "metric_sample")

# Functions reported as <layer>.<function>.calls and .s
TIMED = {
    "engine": ("uniform",),
    "sim": ("snapshot",),
    "channel": ("make_frame", "deliver", "overhearers"),
    "protocol": ("on_sleep_expired", "on_wait_expired", "on_probe_received",
                 "on_probe_reply_received", "mark_dead"),
    "weibull": ("sample_sleep_time", "update_probe_rate"),
    "link_control": ("on_link_evidence", "on_conn_timer_expired",
                     "on_conn_received"),
    "energy": ("accrue", "add_tx", "summarize"),
    "metrics": ("coverage_fraction", "sentinel_components"),
    "config": ("from_flat", "config_hash"),
}

# Derived metrics per layer: name -> (unit, better)
DERIVED = {
    "engine": {"engine.events": ("count", "lower"),
               "engine.scheduled": ("count", "lower"),
               "engine.cancelled": ("count", "lower"),
               "engine.useful_ratio": ("ratio", "higher"),
               "engine.queue_s": ("s", "lower")},
    "sim": {"sim.write_outputs.s": ("s", "lower"),
            "sim.init.s": ("s", "lower")},
    "channel": {"channel.audible_per_frame": ("count", "lower"),
                "channel.in_flight_mean": ("count", "lower"),
                "channel.receptions": ("count", "lower"),
                "channel.overheard": ("count", "lower"),
                "channel.receptions_per_frame": ("count", "lower")},
    "protocol": {"protocol.promotions": ("count", "lower"),
                 "protocol.returns_to_sleep": ("count", "lower"),
                 "protocol.answer_ratio": ("ratio", "higher")},
    "link_control": {"link_control.escalations": ("count", "lower"),
                     "link_control.escalation_ratio": ("ratio", "lower")},
    "metrics": {"metrics.cache_hit_ratio": ("ratio", "higher"),
                "metrics.write.s": ("s", "lower"),
                "metrics.bytes_written": ("bytes", "lower")},
    "cli": {"cli.main.self_s": ("s", "lower")},
}

TRACE_METRICS = {"trace.wall_s": ("s", "lower"),
                 "trace.overhead_s": ("s", "lower")}

# Which end-to-end metric each layer should move, and on which workload.
MOVES = {
    "engine": [("events_per_s", "hazard_global")],
    "sim": [("wall_s", "density800")],
    "channel": [("wall_s", "density800"), ("events_per_s", "density800"),
                ("peak_rss_mb", "density800")],
    "protocol": [("wall_s", "heal_inject"), ("wall_s", "hazard_global")],
    "weibull": [("wall_s", "hazard_global")],
    "link_control": [("wall_s", "hazard_global"), ("wall_s", "density800")],
    "energy": [("wall_s", "heal_inject")],
    "metrics": [("wall_s", "heal_inject"), ("wall_s", "table1_sweep")],
    "config": [("wall_s", "table1_sweep")],
    "cli": [("wall_s", "table1_sweep")],
    "trace": [],
}


def metric_table() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, layer), in report order."""
    table = []
    for layer in LAYERS:
        if layer == "sim":
            for kind in EVENT_KINDS:
                for stat, unit in (("calls", "count"), ("s", "s"),
                                   ("self_s", "s")):
                    table.append((f"sim.dispatch.{kind}.{stat}", unit,
                                  "lower", layer))
        for fn in TIMED.get(layer, ()):
            table.append((f"{layer}.{fn}.calls", "count", "lower", layer))
            table.append((f"{layer}.{fn}.s", "s", "lower", layer))
        for name, (unit, better) in DERIVED.get(layer, {}).items():
            table.append((name, unit, better, layer))
    table += [(f"share.{layer}", "ratio", "lower", layer) for layer in LAYERS]
    table += [(name, unit, better, "trace")
              for name, (unit, better) in TRACE_METRICS.items()]
    return table


def instrument(tracer, patcher, pkg) -> None:
    """Wrap the package's functions; ``patcher.restore()`` undoes it all.

    ``pkg`` maps module names to the imported ``sentinet`` modules.
    """
    t, counts = tracer, tracer.counts
    engine, sim, channel = pkg["engine"], pkg["sim"], pkg["channel"]
    protocol, link_control = pkg["protocol"], pkg["link_control"]
    metrics, config, cli = pkg["metrics"], pkg["config"], pkg["cli"]

    def span(owner, attr, name, fn=None):
        patcher.set(owner, attr, t.wrap(name, fn or getattr(owner, attr)))

    # engine: queue work is run_until's self time; scheduling is counted
    Engine = engine.Engine
    span(Engine, "uniform", "engine.uniform")
    span(Engine, "run_until", "engine.run_until")
    schedule, cancel = Engine.schedule, Engine.cancel

    def counted_schedule(self, *args, **kwargs):
        counts["engine.scheduled"] += 1
        return schedule(self, *args, **kwargs)

    def counted_cancel(self, event):
        done = cancel(self, event)
        counts["engine.cancelled"] += done
        return done

    patcher.set(Engine, "schedule", counted_schedule)
    patcher.set(Engine, "cancel", counted_cancel)

    # sim: one span per dispatched event kind, via the engine's handler
    Simulation = sim.Simulation
    by_kind = {kind: t.wrap(f"sim.dispatch.{kind.value}",
                            lambda handler, ev: handler(ev))
               for kind in engine.EventKind}
    init = Simulation.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handler = self.engine.handler
        self.engine.handler = lambda ev: by_kind[ev.kind](handler, ev)

    span(Simulation, "__init__", "sim.init", traced_init)
    span(Simulation, "run", "sim.run")
    span(Simulation, "snapshot", "sim.snapshot")
    span(cli, "write_outputs", "sim.write_outputs")

    # channel, with the per-frame work it was given and produced
    make_frame, deliver = channel.make_frame, channel.deliver
    overhearers = channel.overhearers

    def counted_make_frame(*args, **kwargs):
        frame = make_frame(*args, **kwargs)
        counts["channel.audible"] += len(frame.rx_dbm)
        return frame

    def counted_deliver(frame, in_flight, *args, **kwargs):
        received = deliver(frame, in_flight, *args, **kwargs)
        counts["channel.in_flight"] += len(in_flight)
        counts["channel.receptions"] += len(received)
        return received

    def counted_overhearers(*args, **kwargs):
        heard = overhearers(*args, **kwargs)
        counts["channel.overheard"] += len(heard)
        return heard

    span(channel, "make_frame", "channel.make_frame", counted_make_frame)
    span(channel, "deliver", "channel.deliver", counted_deliver)
    span(channel, "overhearers", "channel.overhearers", counted_overhearers)

    # protocol handlers, and the transitions they make
    for fn in TIMED["protocol"]:
        span(protocol, fn, f"protocol.{fn}")
    set_status, status = protocol.set_status, protocol.NodeStatus

    def counted_set_status(node, new, ctx):
        old = node.status
        set_status(node, new, ctx)
        if old is status.PROBE:
            counts["protocol.promotions"] += new is status.ACTIVE
            counts["protocol.returns_to_sleep"] += new is status.SLEEP

    patcher.set(protocol, "set_status", counted_set_status)

    # weibull, at the names protocol bound when it imported them
    for fn in TIMED["weibull"]:
        span(protocol, fn, f"weibull.{fn}")

    # link control, and how often evidence raised a guard's power
    for fn in TIMED["link_control"]:
        span(link_control, fn, f"link_control.{fn}")
    escalate = link_control.escalate_power

    def counted_escalate(node, radio):
        raised = escalate(node, radio)
        counts["link_control.escalations"] += raised
        return raised

    patcher.set(link_control, "escalate_power", counted_escalate)

    for fn in TIMED["energy"]:
        span(pkg["energy"], fn, f"energy.{fn}")

    # metrics: computations and the output writers sim.write_outputs calls
    for fn in TIMED["metrics"]:
        span(metrics, fn, f"metrics.{fn}")
    for fn in ("write_metrics_csv", "write_json", "write_config_echo"):
        def sized(path, *args, _write=getattr(metrics, fn)):
            _write(path, *args)
            counts["metrics.bytes_written"] += os.path.getsize(path)
        span(metrics, fn, "metrics.write", sized)

    RunConfig = config.RunConfig
    from_flat = vars(RunConfig)["from_flat"].__func__
    patcher.set(RunConfig, "from_flat",
                classmethod(t.wrap("config.from_flat", from_flat)))
    span(RunConfig, "config_hash", "config.config_hash")
    span(cli, "main", "cli.main")


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """All per-layer metric values of one traced pass, by name."""
    totals, counts = tracer.totals(), tracer.counts
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name, stat):
        return totals.get(name, zero)[stat]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for kind in EVENT_KINDS:
        for stat in ("calls", "s", "self_s"):
            values[f"sim.dispatch.{kind}.{stat}"] = get(f"sim.dispatch.{kind}", stat)
    for layer, fns in TIMED.items():
        for fn in fns:
            values[f"{layer}.{fn}.calls"] = get(f"{layer}.{fn}", "calls")
            values[f"{layer}.{fn}.s"] = get(f"{layer}.{fn}", "s")
    events = sum(get(f"sim.dispatch.{k}", "calls") for k in EVENT_KINDS)
    frames = get("channel.make_frame", "calls")
    resolved = get("channel.deliver", "calls")
    promotions = counts["protocol.promotions"]
    returns = counts["protocol.returns_to_sleep"]
    values.update({
        "engine.events": events,
        "engine.scheduled": counts["engine.scheduled"],
        "engine.cancelled": counts["engine.cancelled"],
        "engine.useful_ratio": ratio(events, counts["engine.scheduled"]),
        "engine.queue_s": get("engine.run_until", "self_s"),
        "sim.write_outputs.s": get("sim.write_outputs", "s"),
        "sim.init.s": get("sim.init", "s"),
        "channel.audible_per_frame": ratio(counts["channel.audible"], frames),
        "channel.in_flight_mean": ratio(counts["channel.in_flight"], resolved),
        "channel.receptions": counts["channel.receptions"],
        "channel.overheard": counts["channel.overheard"],
        "channel.receptions_per_frame": ratio(counts["channel.receptions"],
                                              resolved),
        "protocol.promotions": promotions,
        "protocol.returns_to_sleep": returns,
        "protocol.answer_ratio": ratio(returns, returns + promotions),
        "link_control.escalations": counts["link_control.escalations"],
        "link_control.escalation_ratio": ratio(
            counts["link_control.escalations"],
            get("link_control.on_link_evidence", "calls")),
        "metrics.cache_hit_ratio": 1.0 - ratio(
            get("metrics.coverage_fraction", "calls"),
            get("sim.dispatch.metric_sample", "calls")),
        "metrics.write.s": get("metrics.write", "s"),
        "metrics.bytes_written": counts["metrics.bytes_written"],
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    busy = get("cli.main", "s")
    for layer in LAYERS:
        own = sum(v["self_s"] for n, v in totals.items()
                  if n.split(".", 1)[0] == layer)
        values[f"share.{layer}"] = ratio(own, busy)
    return values
