"""The pinned benchmark scenarios.

Each workload is a fixed shape (a flat sentinet configuration without its
seed) plus the CLI command that runs it. The benchmark's ``--seed`` picks the
configuration seeds, so the same seed always gives the same inputs; the
program receives only the generated ``config.txt`` and the command line.

A *pass* is one execution of the whole workload: ``calls`` invocations of
``sentinet.cli.main``, each with its own configuration seed, each running
one simulation per entry of ``sims`` (a sweep runs several).
"""

from __future__ import annotations

from dataclasses import dataclass

SWEEP_VALUES = ("off", "standalone", "piggybacked")
SWEEP_REPS = 3
SEED_STRIDE = 1000  # configuration seeds of --seed s are s*1000 + 0, 1, 2, ...

# Table 1 of the paper: 50 nodes on 100 x 100 m, lambda=0.05, beta=2,
# sigma=4 dB (the package defaults for everything not named here).
TABLE1 = {"nodes": "50", "field": "100x100", "lambda": "0.05", "beta": "2",
          "shadowing_sigma": "4"}


@dataclass(frozen=True)
class Sim:
    """One simulation inside a pass: the call that runs it, where its outputs
    land, and how it differs from its call's configuration (a sweep point)."""

    call: int
    subdir: str = ""
    seed_offset: int = 0
    link_control: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str
    config: dict
    command: tuple
    calls: int = 1
    kill_at: float | None = None  # every guard is killed at this time

    @property
    def sims(self) -> list[Sim]:
        if self.command[0] != "sweep":
            return [Sim(call=c) for c in range(self.calls)]
        return [Sim(call=0, subdir=f"link_control_{value}_rep{rep}",
                    seed_offset=rep, link_control=value)
                for value in SWEEP_VALUES for rep in range(SWEEP_REPS)]

    def call_config(self, seed: int, call: int) -> dict:
        """The flat configuration handed to the program for one call."""
        flat = dict(self.config)
        flat["seed"] = str(seed * SEED_STRIDE + call)
        return flat

    def sim_config(self, seed: int, sim: Sim) -> dict:
        """The flat configuration one simulation resolves to."""
        flat = self.call_config(seed, sim.call)
        flat["seed"] = str(int(flat["seed"]) + sim.seed_offset)
        if sim.link_control is not None:
            flat["link_control"] = sim.link_control
        return flat

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [*self.command, "--config", config_path, "--out", out_dir]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="table1_sweep",
        why=("Table-1 shape, 3 link modes x 3 reps x 200 s: cheap channel at "
             "N=50, heavy 10k-cell grid and 1 s sampling; the only workload "
             "through cli/config/output writing many times"),
        shape=("sentinet sweep --axis link_control --values "
               "off,standalone,piggybacked --reps 3; 50 nodes on 100x100 m, "
               "1 m grid, 1 s sampling, lambda=0.05, beta=2, sigma=4 dB, "
               "200 s simulated per run (9 runs)"),
        config={**TABLE1, "grid_step": "1", "metric_interval": "1",
                "duration": "200"},
        command=("sweep", "--axis", "link_control",
                 "--values", ",".join(SWEEP_VALUES), "--reps", str(SWEEP_REPS)),
    ),
    Workload(
        name="density800",
        why=("800 nodes on 400x400 m, piggybacked, 100 s: per-frame radio cost "
             "grows with N, so the channel dominates; the high-N counterpart "
             "of table1_sweep at the same density"),
        shape=("sentinet run; 800 nodes on 400x400 m (0.005 nodes/m^2), "
               "10 m grid, 10 s sampling, piggybacked, lambda=0.05, beta=2, "
               "sigma=4 dB, 100 s simulated (1 run)"),
        config={**TABLE1, "nodes": "800", "field": "400x400",
                "link_control": "piggybacked", "grid_step": "10",
                "metric_interval": "10", "duration": "100"},
        command=("run",),
    ),
    Workload(
        name="heal_inject",
        why=("criterion-5 shape, all guards killed at 200 s, 4 runs x 400 s: "
             "200-node sampling every 1 s and guard churn after the kill; the "
             "only workload with failure injection"),
        shape=("sentinet inject --kill sentinels-at=200; 200 nodes on "
               "100x100 m, lambda=0.02, beta=2, sigma=0, 18 m sensing range, "
               "2 m grid, 1 s sampling, 400 s simulated (4 runs)"),
        config={**TABLE1, "nodes": "200", "lambda": "0.02",
                "shadowing_sigma": "0", "sensing_range": "18",
                "grid_step": "2", "metric_interval": "1", "duration": "400"},
        command=("inject", "--kill", "sentinels-at=200"),
        calls=4,
        kill_at=200.0,
    ),
    Workload(
        name="hazard_global",
        why=("Table-1 shape with hazard_feedback=global, 12 runs x 150 s: probe "
             "rate grows with age, so event-queue and link_control work take "
             "the largest share; the only workload that updates the probe rate"),
        shape=("sentinet run; Table-1 shape with hazard_feedback=global, 5 m "
               "grid, 10 s sampling, 150 s simulated (12 runs)"),
        config={**TABLE1, "hazard_feedback": "global", "grid_step": "5",
                "metric_interval": "10", "duration": "150"},
        command=("run",),
        calls=12,
    ),
]}
