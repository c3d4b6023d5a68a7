import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sentinet
from sentinet.cli import (FLAG_KEYS, CliError, build_parser, main,
                          parse_kill_spec, resolve_config)
from sentinet.channel import RadioConfig
from sentinet.config import (HAZARD_FEEDBACK_MODES, KEYS, LinkControlMode,
                             RunConfig)
from sentinet.energy import EnergyConfig
from sentinet.metrics import CSV_HEADER, read_metrics_csv
from sentinet.sim import run_simulation, write_outputs
from sentinet.weibull import WeibullParams

FAST = ["--nodes", "8", "--duration", "30", "--field", "60x60",
        "--grid-step", "5", "--seed", "9"]


def run_cli(*args):
    return main(list(args))


def test_run_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--out", str(out)) == 0
    for name in ("metrics.csv", "snapshot.json", "summary.json", "config.txt"):
        assert (out / name).exists(), name
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=9 config=")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + 31  # meta + header + rows for t = 0..30


def test_run_rejects_zero_nodes(tmp_path, capsys):
    code = run_cli("run", "--nodes", "0", "--duration", "10",
                   "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_refuses_nonempty_out_dir(tmp_path, capsys):
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--out", str(out)) == 0
    assert run_cli("run", *FAST, "--out", str(out)) == 2
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command", ["run", "sweep", "inject"])
def test_out_naming_a_file_is_rejected(tmp_path, capsys, command, under):
    # --out naming a file, or a path under one, is an error, not a traceback
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    args = [command, *FAST, "--out", str(out)]
    if command == "sweep":
        args += ["--axis", "beta", "--values", "2"]
    assert run_cli(*args) == 2
    assert capsys.readouterr().err.startswith(f"error: output directory {str(out)!r}: ")
    assert afile.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_force_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--out", str(out)) == 0
    first = {n: (out / n).read_bytes()
             for n in ("metrics.csv", "snapshot.json", "config.txt")}
    assert run_cli("run", *FAST, "--out", str(out), "--force") == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_config_echo_reproduces_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", *FAST, "--out", str(a)) == 0
    assert run_cli("run", "--config", str(a / "config.txt"), "--out", str(b)) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "snapshot.json").read_bytes() == (b / "snapshot.json").read_bytes()


INTS = st.integers

# RunConfigs built in Python with ints, numpy's too, where the fields,
# nested configs and tuple items included, default to floats
INT_FLOAT_CONFIGS = st.builds(
    RunConfig,
    node_count=INTS(2, 8), seed=INTS(0, 50), field_width=INTS(20, 60),
    field_height=INTS(20, 60), duration=INTS(2, 6).map(np.int64),
    metric_interval=INTS(1, 3) | INTS(1, 3).map(np.int64),
    grid_step=INTS(5, 10), sensing_range=INTS(10, 20),
    t_c_range=st.tuples(INTS(1, 2), INTS(2, 4)),
    weibull=st.builds(WeibullParams, INTS(1, 3), INTS(1, 3)),
    radio=st.builds(RadioConfig, power_levels=st.just((-10, -5)),
                    shadowing_sigma_db=INTS(0, 4)),
    energy=st.builds(EnergyConfig, active_draw_w=INTS(0, 1),
                     tx_draw_w=st.just(((-10, 1), (-5, 2)))))


def _run_bytes(out):
    """The bytes of a run's outputs, its wall time left out."""
    blobs = {n: (out / n).read_bytes() for n in ("metrics.csv", "snapshot.json")}
    blobs["summary.json"] = [ln for ln in (out / "summary.json").read_bytes()
                             .splitlines() if b'"runtime_wall_s": ' not in ln]
    return blobs


@settings(max_examples=30, deadline=None)
@given(config=INT_FLOAT_CONFIGS)
def test_config_built_with_ints_reruns_from_its_echo(tmp_path_factory, config):
    # the echo writes every float field as a float, so the run it describes
    # must be the one the Python-built config made, on the same clock
    a = tmp_path_factory.mktemp("built")
    b = tmp_path_factory.mktemp("rerun")
    write_outputs(run_simulation(config), a)
    assert run_cli("run", "--config", str(a / "config.txt"), "--out", str(b)) == 0
    assert _run_bytes(a) == _run_bytes(b)
    assert (a / "config.txt").read_bytes() == (b / "config.txt").read_bytes()


def test_flags_override_config_file(tmp_path):
    a = tmp_path / "a"
    assert run_cli("run", *FAST, "--out", str(a)) == 0
    b = tmp_path / "b"
    assert run_cli("run", "--config", str(a / "config.txt"), "--seed", "77",
                   "--out", str(b)) == 0
    summary = json.loads((b / "summary.json").read_text())
    assert summary["seed"] == 77


def test_every_config_flag_reaches_the_summary(tmp_path, monkeypatch):
    monkeypatch.delenv("SENTINET_SEED", raising=False)
    # every tx_draw level must be a power level, and -10 dBm is not one here
    draws = tmp_path / "draws.cfg"
    draws.write_text("tx_draw=-5:0.046\n")
    want = {"nodes": "6", "field": "50.0x40.0", "duration": "5.0",
            "seed": "11", "beta": "1.5", "lambda": "0.07",
            "link_control": "standalone", "lqi_threshold": "6",
            "tx_levels": "-5.0", "sensing_range": "12.0", "grid_step": "5.0",
            "tw": "0.2", "tc_min": "3.0", "tc_max": "8.0",
            "shadowing_sigma": "2.0", "metric_interval": "2.5",
            "hazard_feedback": "cycle"}
    argv = [f"--{key.replace('_', '-')}={value}" for key, value in want.items()]
    out = tmp_path / "r1"
    assert run_cli("run", "--config", str(draws), *argv, "--out", str(out)) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    defaults = RunConfig().to_flat()
    assert len(want) == 17
    for key, value in want.items():
        assert config[key] == value != defaults[key], key


def test_link_control_both_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("link_control=both\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert "'both'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli("run", *FAST, "--link-control", "both", "--out", str(tmp_path / "y"))


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("SENTINET_SEED", "123")
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 123


def test_env_seed_is_the_base_of_sweep_rep_seeds(tmp_path, monkeypatch):
    monkeypatch.setenv("SENTINET_SEED", "5")
    out = tmp_path / "sw"
    assert run_cli("sweep", *FAST, "--out", str(out),
                   "--axis", "beta", "--values", "2", "--reps", "3") == 0
    seeds = [json.loads((out / f"beta_2_rep{rep}" / "summary.json")
                        .read_text())["seed"] for rep in range(3)]
    assert seeds == [5, 6, 7]
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=5 ")
    rows = [line.split(",", 2)[2] for line in lines[2:]]
    assert len(rows) == 3 and len(set(rows)) == 3


@pytest.mark.parametrize("command,source", [
    ("run", "flag"), ("run", "config"), ("run", "env"), ("sweep", "env")])
def test_negative_seed_rejected_before_output(tmp_path, monkeypatch, capsys,
                                              command, source):
    out = tmp_path / "d"
    args = [command, *FAST[:-2], "--out", str(out)]
    if command == "sweep":
        args += ["--axis", "beta", "--values", "2"]
    if source == "flag":
        args.append("--seed=-1")
    elif source == "config":
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("seed=-1\n")
        args += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("SENTINET_SEED", "-2")
    assert run_cli(*args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,why", [
    ("--shadowing-sigma=-4", "shadowing_sigma_db must be >= 0"),
    ("--tw=0.005", "tw=0.005 must exceed two frames of tx_duration=0.004"),
    # one reply slot: every guard hearing a probe would reply at once
    ("--tw=0.01", "tw=0.01 must exceed two frames of tx_duration=0.004 by two "
                  "reply slots of 0.0042: at least 0.0164"),
])
def test_out_of_range_values_rejected_before_output(tmp_path, capsys, flag,
                                                    why):
    out = tmp_path / "d"
    assert run_cli("run", *FAST, flag, "--out", str(out)) == 2
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=5\nwhat is this\n")
    code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert f"{bad}:2" in capsys.readouterr().err


def test_config_file_not_utf8_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes("nodes=5\nfield=60×60\n".encode("latin-1"))
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=5\nwarp_factor=9\n")
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 2
    assert "warp_factor" in capsys.readouterr().err


def test_power_level_with_two_draws_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=5\ntx_draw=-10:0.04,-10:0.05,-5:0.046\n")
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
    assert "tx_draw lists -10.0 dBm twice" in capsys.readouterr().err
    assert not out.exists()


def test_draw_for_an_unlisted_power_level_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=5\ntx_draw=-10:0.04,-5:0.046,0:0.09\n")
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
    assert "tx_draw lists 0.0 dBm, which tx_levels=-10.0,-5.0 does not list" \
        in capsys.readouterr().err
    assert not out.exists()


def test_tx_levels_flag_alone_names_the_draws_to_give(tmp_path, capsys):
    # the default tx_draw lists -10 dBm, and no flag sets tx_draw: the error
    # says to give it in a config file
    out = tmp_path / "x"
    assert run_cli("run", "--tx-levels=-5", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "tx_draw lists -10.0 dBm, which tx_levels=-5.0 does not list" in err
    assert "tx_draw=" in err and "--config" in err
    assert not out.exists()


def test_top_power_at_the_sensitivity_runs_to_the_end(tmp_path):
    # without shadowing the link-row cut falls at a path loss of 0 dB, where
    # a search that steps one ulp at a time never ends
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("nodes=5\nduration=10.0\nsensitivity=-5.0\nshadowing_sigma=0.0\n")
    out = tmp_path / "edge"
    src = os.path.dirname(os.path.dirname(sentinet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "sentinet.cli", "run", "--config",
                           str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "summary.json").read_text())["config"]["sensitivity"] == "-5.0"


def test_sweep_layout_and_aggregate(tmp_path):
    out = tmp_path / "sw"
    code = run_cli("sweep", *FAST, "--out", str(out),
                   "--axis", "beta", "--values", "1,2", "--reps", "2")
    assert code == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["beta_1_rep0", "beta_1_rep1", "beta_2_rep0", "beta_2_rep1"]
    for d in dirs:
        assert (out / d / "metrics.csv").exists()
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[1] == ("axis_value,rep,energy_total_j,energy_mean_j,"
                        "components,coverage_final")
    assert len(lines) == 2 + 4
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 6
        for text in fields:
            float(text)  # a number, not a repr such as np.float64(...)


def test_sweep_seed_derivation_per_rep(tmp_path):
    out = tmp_path / "sw"
    assert run_cli("sweep", *FAST, "--out", str(out),
                   "--axis", "nodes", "--values", "6", "--reps", "2") == 0
    s0 = json.loads((out / "nodes_6_rep0" / "summary.json").read_text())
    s1 = json.loads((out / "nodes_6_rep1" / "summary.json").read_text())
    assert s0["seed"] == 9 and s1["seed"] == 10


def test_sweep_rejects_bad_values(tmp_path, capsys):
    assert run_cli("sweep", *FAST, "--out", str(tmp_path / "x"),
                   "--axis", "link_control", "--values", "sometimes") == 2


def test_sweep_checks_every_value_before_running(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("sweep", "--nodes", "8", "--duration", "5", "--field",
                   "60x60", "--grid-step", "5", "--axis", "nodes",
                   "--values", "8,0", "--out", str(out)) == 2
    assert "node_count" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    # a value listed twice would run twice into one directory
    assert run_cli("sweep", "--nodes", "8", "--duration", "5", "--field",
                   "60x60", "--grid-step", "5", "--axis", "beta",
                   "--values", "1,2,1", "--out", str(out)) == 2
    assert "twice" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_config_file_is_named_only_for_its_own_values(tmp_path, capsys):
    ok = tmp_path / "ok.cfg"
    ok.write_text("nodes=8\n")
    assert run_cli("run", "--config", str(ok), "--duration", "0",
                   "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "duration" in err and str(ok) not in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=8\nduration=0\n")
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "y")) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "duration" in err
    # a flag that overrides the file's bad value clears the file
    assert run_cli("run", "--config", str(bad), "--duration", "1",
                   "--nodes", "0", "--out", str(tmp_path / "z")) == 2
    err = capsys.readouterr().err
    assert "node_count" in err and str(bad) not in err


def test_config_file_setting_a_key_twice_is_rejected(tmp_path, capsys):
    # the later line used to win silently
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("nodes=50\n# a comment\nseed=3\n nodes = 5\n")
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--duration", "1",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:4: nodes is set twice, on lines 1 and 4" in err
    assert not out.exists()


@pytest.mark.parametrize("key,flag,line", [
    ("field", "--field=100", None),
    ("field", "--field=10x10x10", None),
    ("tx_draw", None, "tx_draw=-10"),
])
def test_malformed_values_name_their_key(tmp_path, capsys, key, flag, line):
    argv = ["run", *FAST, "--out", str(tmp_path / "x")]
    if flag:
        argv.append(flag)
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 2
    assert f"{key}=" in capsys.readouterr().err


# number texts in the forms a flag or a config file may hold them
NUMBER_TEXT = st.one_of(
    st.integers(-5, 3000).map(str),
    st.integers(0, 99).map(lambda i: f"{i:03d}"),
    st.floats(-1e4, 1e4).map(repr),
    st.tuples(st.integers(-9, 9), st.integers(-3, 3)).map(
        lambda mant_exp: "%de%d" % mant_exp),
    st.sampled_from(["1e3", "08", "-0", "1_0", "inf", "", "x"]),
)
FLAG_TEXT = {
    "field": st.tuples(NUMBER_TEXT, NUMBER_TEXT).map("x".join) | NUMBER_TEXT,
    "tx_levels": st.lists(NUMBER_TEXT, min_size=1, max_size=3).map(",".join),
    "link_control": st.sampled_from([m.value for m in LinkControlMode]),
    "hazard_feedback": st.sampled_from(HAZARD_FEEDBACK_MODES),
}


def _resolved(*argv):
    try:
        return resolve_config(build_parser().parse_args(["run", *argv,
                                                         "--out", "unused"]))
    except CliError:
        return "rejected"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flag_and_config_line_resolve_alike(tmp_path_factory, data):
    # a flag hands its text to the config file's parser, so the same text
    # resolves (or is rejected) alike either way
    assert len(FLAG_KEYS) == 17 and set(FLAG_KEYS) <= set(KEYS)
    key = data.draw(st.sampled_from(FLAG_KEYS))
    text = data.draw(FLAG_TEXT.get(key, NUMBER_TEXT))
    cfg = tmp_path_factory.getbasetemp() / "flag_or_line.cfg"
    cfg.write_text(f"{key}={text}\n")
    flag = f"--{key.replace('_', '-')}={text}"
    assert _resolved(flag) == _resolved("--config", str(cfg))


def test_inject_writes_healing_report(tmp_path):
    out = tmp_path / "inj"
    code = run_cli("inject", *FAST, "--out", str(out),
                   "--kill", "sentinels-at=20:count=1")
    assert code == 0
    report = json.loads((out / "healing.json").read_text())
    assert report["epsilon"] == 0.05
    [failure] = report["failures"]
    assert failure["time"] == 20.0
    assert "pre_coverage" in failure and "recovered_at" in failure


def test_inject_kill_beyond_horizon_warns(tmp_path, capsys):
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out),
                   "--kill", "sentinels-at=999:count=1") == 0
    assert "beyond" in capsys.readouterr().err
    report = json.loads((out / "healing.json").read_text())
    assert report["failures"] == []


def test_inject_single_node_kill(tmp_path):
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out),
                   "--kill", "node=3:at=10") == 0
    snapshot = json.loads((out / "snapshot.json").read_text())
    statuses = {n["id"]: n["status"] for n in snapshot["nodes"]}
    assert statuses[3] == "DEAD"


def test_inject_unknown_node_errors(tmp_path, capsys):
    out = tmp_path / "x"
    for node in (999, 8, -1):  # FAST has nodes 0..7
        assert run_cli("inject", *FAST, "--out", str(out),
                       "--kill", f"node={node}:at=10") == 2
        assert f"unknown node id {node}" in capsys.readouterr().err
        assert not out.exists()  # rejected before the output directory


@pytest.mark.parametrize("spec,parsed", [
    ("sentinels-at=500:count=2", {"kind": "sentinels", "time": 500.0, "count": 2}),
    ("sentinels-at=10", {"kind": "sentinels", "time": 10.0, "count": None}),
    ("node=3:at=77.5", {"kind": "node", "node": 3, "time": 77.5}),
])
def test_kill_spec_grammar(spec, parsed):
    assert parse_kill_spec(spec) == parsed


def test_kill_spec_rejects_nonsense():
    from sentinet.cli import CliError
    for bad in ("everyone", "node=3", "sentinels-at=x", "at=5"):
        with pytest.raises(CliError):
            parse_kill_spec(bad)


@pytest.mark.parametrize("spec,why", [
    ("sentinels-at=5:cnt=3", "unknown key cnt"),
    ("node=3:at=5:when=9", "unknown key when"),
    ("node=3:at=5:node=4", "node is given twice"),
    ("node=3:count=2", "count does not go with node="),
    ("sentinels-at=5:at=9", "at does not go with sentinels-at="),
])
def test_inject_rejects_unknown_kill_keys(spec, why, tmp_path, capsys):
    # a typo used to be dropped: sentinels-at=5:cnt=3 killed every guard
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out), "--kill", spec) == 2
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_inject_rejects_a_kill_mixing_node_and_sentinels(tmp_path, capsys):
    # node=3:at=5:sentinels-at=9 used to become a sentinel kill
    out = tmp_path / "inj"
    for spec in ("node=3:at=5:sentinels-at=9", "sentinels-at=9:node=3"):
        assert run_cli("inject", *FAST, "--out", str(out), "--kill", spec) == 2
        assert "are separate kills" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("spec", ["sentinels-at=nan", "sentinels-at=inf:count=1",
                                  "sentinels-at=-inf", "node=3:at=nan",
                                  "node=3:at=inf"])
def test_kill_spec_rejects_non_finite_time(spec):
    from sentinet.cli import CliError
    with pytest.raises(CliError, match="finite"):
        parse_kill_spec(spec)


@pytest.mark.parametrize("spec", ["node=1:at=-5", "sentinels-at=-0.5",
                                  "sentinels-at=-1:count=2"])
def test_kill_spec_rejects_negative_time(spec, tmp_path, capsys):
    with pytest.raises(CliError, match="time >= 0"):
        parse_kill_spec(spec)
    assert parse_kill_spec("node=1:at=0")["time"] == 0.0
    # rejected before anything runs or is written
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out), "--kill", spec) == 2
    assert "bad --kill spec" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "-0.01"])
def test_inject_rejects_bad_healing_epsilon(epsilon, tmp_path, capsys):
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out),
                   f"--healing-epsilon={epsilon}",
                   "--kill", "sentinels-at=20:count=1") == 2
    assert "--healing-epsilon must be" in capsys.readouterr().err
    assert not out.exists()


def test_inject_accepts_zero_healing_epsilon(tmp_path):
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out), "--healing-epsilon", "0",
                   "--kill", "sentinels-at=20:count=1") == 0
    assert json.loads((out / "healing.json").read_text())["epsilon"] == 0.0


def test_kill_spec_rejects_negative_count(tmp_path, capsys):
    from sentinet.cli import CliError
    with pytest.raises(CliError, match="count"):
        parse_kill_spec("sentinels-at=50:count=-1")
    assert parse_kill_spec("sentinels-at=50:count=0")["count"] == 0
    # rejected before anything runs or is written
    out = tmp_path / "inj"
    assert run_cli("inject", *FAST, "--out", str(out),
                   "--kill", "sentinels-at=nan") == 2
    assert "bad --kill spec" in capsys.readouterr().err
    assert not out.exists()


def test_tx_levels_flag_equals_form(tmp_path):
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--tx-levels=-10,-5", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["tx_levels"] == "-10.0,-5.0"


def test_tx_levels_without_energy_draw_rejected(tmp_path, capsys):
    # every configured level needs a transmit draw in the energy model
    assert run_cli("run", *FAST, "--tx-levels=-10,-7,-5",
                   "--out", str(tmp_path / "x")) == 2
    assert "tx draw" in capsys.readouterr().err


def test_sweep_points_match_standalone_runs(tmp_path):
    # a sweep point must be bit-identical to the same config run alone
    sw, single = tmp_path / "sw", tmp_path / "single"
    assert run_cli("sweep", *FAST, "--out", str(sw),
                   "--axis", "beta", "--values", "1,2", "--reps", "1") == 0
    assert run_cli("run", *FAST, "--beta", "2", "--out", str(single)) == 0
    assert ((sw / "beta_2_rep0" / "metrics.csv").read_bytes()
            == (single / "metrics.csv").read_bytes())


def test_snapshot_schema(tmp_path):
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--out", str(out)) == 0
    snapshot = json.loads((out / "snapshot.json").read_text())
    assert snapshot["time"] == 30.0
    assert len(snapshot["nodes"]) == 8
    node = snapshot["nodes"][0]
    assert set(node) == {"id", "x", "y", "status", "tx_dbm", "energy_j"}
    assert snapshot["meta"]["rng"] == "philox3"


def test_summary_schema(tmp_path):
    out = tmp_path / "r1"
    assert run_cli("run", *FAST, "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {"meta", "seed", "config", "totals", "runtime_wall_s"} <= set(summary)
    assert summary["totals"]["energy"]["total_j"] > 0.0
