import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import groupsample.analysis as analysis
import groupsample.cli as cli
from groupsample import ConstantEstimates, Grid, GridFunction, HeisenbergModel, SpectralProjector
from groupsample.cli import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    version_hash,
    run_experiment,
    main,
)


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_basic(tmp_path):
    path = _write(
        tmp_path,
        "# comment\nexperiment = partition\nseed = 3\nr = 1.5  # inline\n",
    )
    cfg = parse_config(path)
    assert cfg.experiment == "partition"
    assert cfg.seed == 3
    assert cfg.r == 1.5


def test_parse_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "experiment = shannon\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(path)


def test_parse_config_rejects_negative_radius(tmp_path):
    path = _write(tmp_path, "experiment = shannon\nr = -2\n")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(path)


def test_infinite_radius_rejected(tmp_path):
    # an infinite gap would run as an empty lattice and write Infinity, which
    # is not JSON, into report.json
    for key in ("r", "s", "omega"):
        path = _write(tmp_path, f"experiment = shannon\n{key} = inf\n")
        with pytest.raises(ConfigError, match="must be positive and finite"):
            parse_config(path)
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = shannon\noutdir = {out}\n")
    assert main(["sweep", path, "--param", "r", "--values", "inf"]) == 2
    assert not out.exists()


def test_parse_config_rejects_unknown_experiment(tmp_path):
    path = _write(tmp_path, "experiment = nope\n")
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config(path)


def test_parse_config_requires_experiment(tmp_path):
    path = _write(tmp_path, "seed = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_overrides(tmp_path):
    path = _write(tmp_path, "experiment = partition\nseed = 1\n")
    cfg = parse_config(path, overrides=["seed=9", "r = 2.0"])
    assert cfg.seed == 9
    assert cfg.r == 2.0


def test_version_hash_stable():
    assert version_hash() == version_hash()
    assert len(version_hash()) == 16


def test_run_negative_radius_no_partial_output(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = shannon\nr = -1\noutdir = {out}\n")
    assert main(["run", path]) == 2
    assert not out.exists()


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["sweep", "nothing.cfg", "--param", "bad", "--values", "1"])
    assert e.value.code == 2


def test_missing_config_exit_code():
    assert main(["run", "/nonexistent/exp.cfg"]) == 2


def test_run_quasilattice_outputs(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = quasilattice\nmodel = rn:2\noutdir = {out}\n")
    assert main(["run", path]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "quasilattice"
    assert report["config"]["model"] == "rn:2"
    assert report["version"] == version_hash()
    assert "wall_time_s" in report and "cache" in report
    names = [c["name"] for c in report["checks"]]
    assert names.count("exact-tiling") == 1
    assert all(c["verdict"] in ("pass", "fail", "hypothesis-not-met") for c in report["checks"])
    assert (out / "table.csv").exists()
    assert (out / "points.csv").exists()


def test_run_twice_byte_identical_csv(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = _write(tmp_path, f"experiment = quasilattice\nmodel = rn:2\noutdir = {out1}\n", "a.cfg")
    p2 = _write(tmp_path, f"experiment = quasilattice\nmodel = rn:2\noutdir = {out2}\n", "b.cfg")
    assert main(["run", p1]) == 0
    assert main(["run", p2]) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
    assert (out1 / "points.csv").read_bytes() == (out2 / "points.csv").read_bytes()


def test_verify_subcommand(tmp_path):
    pts = np.arange(0.0, 10.0, 1.0)[:, None]
    csv = tmp_path / "pts.csv"
    np.savetxt(csv, pts, delimiter=",", header="x0", comments="")
    out = tmp_path / "out"
    rc = main(["verify", str(csv), "--model", "r1", "--sep", "0.4", "--dense", "0.6",
               "--outdir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert {c["name"] for c in report["checks"]} == {"separated", "dense"}
    by_name = {c["name"]: c for c in report["checks"]}
    # how each certificate was checked
    assert by_name["separated"]["overlap_test"] == "exact"
    assert by_name["dense"]["checked_on"] == "grid nodes"
    # a failing certificate flips the exit code
    rc = main(["verify", str(csv), "--model", "r1", "--dense", "0.3",
               "--outdir", str(out)])
    assert rc == 1


def test_verify_rejects_csv_without_points(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("x0\n")
    out = tmp_path / "out"
    assert main(["verify", str(csv), "--sep", "0.4", "--outdir", str(out)]) == 2
    # the CLI's own message only, with no numpy warning before it
    assert capsys.readouterr().err == f"error: {csv} holds no points\n"
    assert not out.exists()


@pytest.mark.parametrize("option,radius", [("--sep", "nan"), ("--dense", "inf"), ("--sep", "-1")])
def test_verify_rejects_radius_not_positive_and_finite(tmp_path, capsys, option, radius):
    # a NaN separation radius used to certify every pair as disjoint, and
    # an infinite density radius every node as covered
    csv = tmp_path / "pts.csv"
    np.savetxt(csv, [[0.0], [0.1], [0.2], [5.0]], delimiter=",", header="x0", comments="")
    out = tmp_path / "out"
    assert main(["verify", str(csv), option, radius, "--outdir", str(out)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_requires_a_check(tmp_path):
    pts = np.arange(0.0, 4.0, 1.0)[:, None]
    csv = tmp_path / "pts.csv"
    np.savetxt(csv, pts, delimiter=",", header="x0", comments="")
    assert main(["verify", str(csv), "--outdir", str(tmp_path / "o")]) == 2


def test_sweep_shannon_tightness_trend(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = shannon\noutdir = {out}\n")
    rc = main(["sweep", path, "--param", "r", "--values", "2.0", "1.0", "0.5"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sweep"]["param"] == "r"
    names = [c["name"] for c in report["checks"]]
    assert "tightness-nonincreasing" in names
    rows = (out / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + one per value


def test_sweep_beurling_samples_whole_box(tmp_path):
    # the scan samples the whole box, as in the experiment: an unsampled
    # border fakes a near-null vector and collapses the lower bound
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = beurling-scan\noutdir = {out}\n")
    rc = main(["sweep", path, "--param", "r", "--values", "0.318", "0.445"])
    assert rc == 0
    header, *rows = (out / "table.csv").read_text().strip().splitlines()
    assert header == "r,a,b,tightness"
    assert len(rows) == 2
    assert all(float(row.split(",")[1]) > 1.0 for row in rows)


@pytest.mark.parametrize("experiment,param", [("shannon", "omega"), ("beurling-scan", "grid"),
                                              ("quasilattice", "r")])
def test_sweep_rejects_parameter_not_read(tmp_path, experiment, param):
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = {experiment}\noutdir = {out}\n")
    assert main(["sweep", path, "--param", param, "--values", "9", "17"]) == 2
    assert not out.exists()


def test_sweep_rejects_non_integer_grid_before_any_row(tmp_path, monkeypatch):
    # a grid value is a node count: 9.5 must not run as 9 labelled 9.5; and
    # every value is checked as a config value before the first row runs
    runner, models, (_, trends) = cli._EXPERIMENTS["shannon"]
    calls = []
    monkeypatch.setitem(cli._EXPERIMENTS, "shannon",
                        (runner, models, (lambda c: calls.append(c) or {}, trends)))
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = shannon\noutdir = {out}\n")
    for param, values in (("grid", ["17", "9.5"]), ("grid", ["17", "17.0"]),
                          ("r", ["2.0", "1.0", "inf"])):
        assert main(["sweep", path, "--param", param, "--values", *values]) == 2, values
        assert calls == []
        assert not out.exists()


@pytest.mark.parametrize("experiment,overrides,param,values,message", [
    ("heisenberg", ["-o", "resolution=9"], "r", ["0.5", "1.5"], "need 0 < r < 1"),
    ("beurling-scan", [], "omega", ["1", "3000"],
     "omega too large for the scan grid: need omega < 256 pi^2 (about 2527), got 3000"),
], ids=["heisenberg-r", "beurling-scan-omega"])
def test_sweep_value_breaking_a_rule_stops_before_any_row(tmp_path, monkeypatch, capsys,
                                                          experiment, overrides, param, values,
                                                          message):
    # validate() checks the experiments' rules on every swept value, so a bad
    # last value stops the sweep before its first row: no eigensolve, no cache
    cache = tmp_path / "cache"
    monkeypatch.setenv("GROUPSAMPLE_CACHE", str(cache))
    runner, models, (row, trends) = cli._EXPERIMENTS[experiment]
    rows, solves = [], []
    monkeypatch.setitem(cli._EXPERIMENTS, experiment,
                        (runner, models, (lambda c: rows.append(c) or row(c), trends)))
    real = cli.sublaplacian_spectrum
    monkeypatch.setattr(cli, "sublaplacian_spectrum",
                        lambda *a, **k: solves.append(a) or real(*a, **k))
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = {experiment}\noutdir = {out}\n")
    assert main(["sweep", path, "--param", param, "--values", *values, *overrides]) == 2
    assert message in capsys.readouterr().err
    assert (rows, solves) == ([], [])
    assert not cache.exists() and not out.exists()
    # run rejects the same value with the same message
    assert main(["run", path, "-o", f"{param}={values[-1]}", *overrides]) == 2
    assert message in capsys.readouterr().err
    assert (rows, solves) == ([], [])
    assert not cache.exists() and not out.exists()


def test_sweep_report_is_strict_json(tmp_path):
    # README's sweep: at gap 2 the lower bound is 0, so the tightness is
    # infinite; report.json spells it as table.csv does
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = shannon\noutdir = {out}\n")
    assert main(["sweep", path, "--param", "r", "--values", "2.0", "1.0", "0.5", "0.25"]) == 0

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    (check,) = report["checks"]
    assert check["tightness_by_decreasing_r"][0] == "inf"
    assert report["sweep"]["values"] == [2.0, 1.0, 0.5, 0.25]
    assert (out / "table.csv").read_text().splitlines()[1].endswith(",inf")


@pytest.mark.parametrize("experiment,key", [
    ("shannon", "tol_bounds"), ("shannon", "tol_collapse"), ("shannon", "tol_recon"),
    ("shannon", "tol_bouns"), ("beurling-scan", "tol_positive"), ("heisenberg", "tol_angle"),
    ("heisenberg", "tol_covariance"), ("partition", "tol_bound"), ("oscillation", "tol_violation"),
    ("constants", "tol_comm"), ("constants", "tol_haar"), ("constants", "tol_spread"),
])
def test_former_tolerance_key_is_unknown(tmp_path, monkeypatch, capsys, experiment, key):
    # each check's bound is fixed in the code: the tol_* keys that used to
    # reset them (each on the experiment that read it, tol_covariance through
    # the heisenberg sweep's trend) and a misspelt one are unknown keys
    calls = []
    monkeypatch.setattr(cli, "sublaplacian_spectrum", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = {experiment}\noutdir = {out}\n")
    command = (["sweep", path, "--param", "omega", "--values", "1.0", "1.2"]
               if key == "tol_covariance" else ["run", path])
    assert main([*command, "-o", f"{key}=1"]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("config,named", [
    ("experiment = heisenberg\nmodel = r1\nresolution = 9\n", "not 'r1'"),
    ("experiment = constants\nmodel = r1\n", "not 'r1'"),
    ("experiment = shannon\nmodel = heis1\n", "not 'heis1'"),
    ("experiment = quasilattice\nr = 5\n", "does not read r"),
    ("experiment = quasilattice\nomega = 3\n", "does not read omega"),
    ("experiment = partition\nmodel = r1\nresolution = 9\n", "does not read resolution"),
    ("experiment = oscillation\nmodel = r1\nresolution = 9\n", "does not read resolution"),
    ("experiment = wavelet-frame\nomega = 2\n", "does not read omega"),
    ("experiment = beurling-scan\ns = 0.3\n", "does not read s"),
    # keys only the sweep reads
    ("experiment = shannon\nr = 1.5\n", "shannon on r1 does not read r"),
    ("experiment = shannon\nresolution = 4096\n", "does not read resolution"),
    ("experiment = beurling-scan\nr = 5\n", "beurling-scan on r1 does not read r"),
], ids=lambda v: v.replace(" = ", "=").replace("\n", " ").strip())
def test_unread_key_or_unrun_model_is_rejected(tmp_path, monkeypatch, capsys, config, named):
    # heisenberg model=r1 used to compute on H^1 and echo model r1; a key
    # the experiment does not read used to be echoed as if it had been, and
    # so did a key that only its sweep reads
    raw = dict(line.split(" = ") for line in config.splitlines())
    with pytest.raises(ConfigError, match=named):
        cli._config_from_dict(raw).validate()
    calls = []
    monkeypatch.setattr(cli, "sublaplacian_spectrum", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, f"{config}outdir = {out}\n")]) == 2
    assert named in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_every_registered_model_runs_with_every_key_it_reads():
    values = {"resolution": 9, "r": 0.5, "s": 0.25, "omega": 1.0}
    for experiment, (_, models, sweep) in cli._EXPERIMENTS.items():
        assert ExperimentConfig(experiment=experiment).validate().model_id == next(iter(models))
        for model, keys in models.items():
            cfg = ExperimentConfig(experiment=experiment, model=model, **{k: values[k] for k in keys})
            assert cfg.validate().model_id == model
            if sweep is not None:  # a sweep reads every parameter it varies
                params = ["resolution" if p == "grid" else p for p in sweep[1]]
                ExperimentConfig(experiment=experiment, model=model,
                                 **{k: values[k] for k in params})._validate(True)
    # the runners' per-model tables cover the registered models
    assert list(cli._PARTITION_MODELS) == list(cli._EXPERIMENTS["partition"][1])
    assert list(cli._QL_DEFAULTS) == list(cli._EXPERIMENTS["quasilattice"][1])
    # the acceptance suite names the default model of constants
    assert ExperimentConfig(experiment="constants", model="heis1").validate().model_id == "heis1"


def test_readme_experiment_table_matches_the_registry():
    # each row: experiment, models sharing one key set, the keys a run reads
    # with their defaults, and the parameters of the experiment's sweep
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| experiment | models (default first) | keys a run reads = default "
                        "| sweep parameters | trend check |")
    listed = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.strip("|").split("|")
        (experiment,), models, params = (re.findall(r"`([^`]+)`", cells[i]) for i in (0, 1, 3))
        defaults = {key: math.pi**2 if value.strip() == "pi^2" else float(value)
                    for key, value in re.findall(r"`(\w+)` = ([^,]+)", cells[2])}
        _, registered, sweep = cli._EXPERIMENTS[experiment]
        for model in models:
            assert sorted(defaults) == sorted(registered[model]), (experiment, model)
            for key, default in registered[model].items():
                assert math.isclose(defaults[key], default, rel_tol=1e-12), (experiment, model, key)
        assert params == (list(sweep[1]) if sweep else []), experiment
        listed.setdefault(experiment, []).extend(models)
    assert listed == {e: list(models) for e, (_, models, _) in cli._EXPERIMENTS.items()}


def test_line_experiments_match_reference(tmp_path):
    # the 7 line-workload experiments at seed 0, and the H1 oscillation
    # experiment of the h1-sampling workload (it reads no cache), through
    # the CLI's own runner and writer: verdicts and table.csv bytes as
    # recorded in the reference
    ref_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                            "reference.json")
    with open(ref_path) as fh:
        workloads = json.load(fh)["workloads"]
    reference = dict(workloads["line"]["0"])
    assert len(reference) == 7
    h1_label = "oscillation model=heis1 resolution=5"
    reference[h1_label] = workloads["h1-sampling"]["0"][h1_label]
    for i, (label, expected) in enumerate(sorted(reference.items())):
        experiment, *overrides = label.split()
        raw = {"experiment": experiment, "seed": "0", "outdir": str(tmp_path / str(i)),
               **dict(item.split("=", 1) for item in overrides)}
        cfg = cli._config_from_dict(raw).validate()
        out = run_experiment(cfg)
        cli._emit(cfg, *out)
        assert [[c["name"], c["verdict"]] for c in out[0]["checks"]] == expected["verdicts"], label
        digest = hashlib.sha256((tmp_path / str(i) / "table.csv").read_bytes()).hexdigest()
        assert digest == expected["digest"], label


def test_report_counts_every_cache_lookup(tmp_path, monkeypatch):
    # heisenberg reads two cache entries, the band projector and C_G; its
    # dilation check assembles two operators and reads no cache
    cache = tmp_path / "cache"
    monkeypatch.setenv("GROUPSAMPLE_CACHE", str(cache))
    cfg = ExperimentConfig(experiment="heisenberg", resolution=9,
                           outdir=str(tmp_path / "out")).validate()
    first = run_experiment(cfg)[0]["cache"]
    assert len(list(cache.iterdir())) == 2
    assert (first["misses"], first["hits"]) == (2, 0)
    again = run_experiment(cfg)[0]["cache"]
    assert (again["misses"], again["hits"]) == (0, 2)


def test_heisenberg_sweep_rows_skip_the_dilation_check(tmp_path, monkeypatch):
    # a sweep row reads only the ratios; the dilation check is the run's alone,
    # and no row solves a band on a dilated grid
    grids, dilations = [], []
    spectrum = analysis.sublaplacian_spectrum

    def spy(grid, *a, **k):
        grids.append(grid)
        return spectrum(grid, *a, **k)

    monkeypatch.setattr(cli, "sublaplacian_spectrum", spy)
    monkeypatch.setattr(analysis, "sublaplacian_spectrum", spy)
    monkeypatch.setattr(cli, "dilation_residual", lambda *a: dilations.append(a))
    path = _write(tmp_path, f"experiment = heisenberg\nresolution = 9\noutdir = {tmp_path / 'out'}\n")
    main(["sweep", path, "--param", "omega", "--values", "1.0", "1.2"])
    assert len(grids) == 2
    assert dilations == []
    assert all(np.array_equal(g.lo, [-7.0] * 3) and np.array_equal(g.hi, [7.0] * 3) for g in grids)


def test_heisenberg_exits_2_when_the_k_ball_holds_no_node(tmp_path, monkeypatch, capsys):
    # on the 3^3 grid no node lies within gauge 3 of the identity, so C_G
    # would be 0 and the lattice dilation would divide by it
    monkeypatch.setenv("GROUPSAMPLE_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = heisenberg\nresolution = 3\noutdir = {out}\n")
    assert main(["run", path]) == 2
    assert "holds no grid node" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model,overrides", [("heis1", "resolution = 9\nr = 0.3\n"),
                                             ("r1", "r = 0.05\n")], ids=["heis1", "r1"])
def test_partition_rejects_s_above_r_before_setup(tmp_path, monkeypatch, capsys, model, overrides):
    # the default s is 0.4 on heis1 and 0.08 on r1; the check comes before
    # the band projector's eigensolve
    calls = []
    monkeypatch.setattr(cli, "sublaplacian_spectrum", lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = partition\nmodel = {model}\n{overrides}outdir = {out}\n")
    assert main(["run", path]) == 2
    assert "needs s <= r" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


_SWEEP_OMEGA = ["sweep", "--param", "omega", "--values", "1.0", "1.2"]


@pytest.mark.parametrize("command,config,key", [
    # a negative seed used to reach numpy only after the eigensolve
    (["run"], "experiment = constants\nresolution = 9\nseed = -1\n", "seed"),
    (["run"], "experiment = heisenberg\nresolution = 9\nseed = -1\n", "seed"),
    (["run"], "experiment = partition\nmodel = heis1\nresolution = 9\nseed = -1\n", "seed"),
    (_SWEEP_OMEGA, "experiment = heisenberg\nresolution = 9\nseed = -1\n", "seed"),
    # the r1 lattice step 1.6 r + 0.3 s reaches the line box: no cell left
    (["run"], "experiment = partition\nmodel = r1\nr = 40\ns = 1\n", "r"),
    (["run"], "experiment = partition\nmodel = r1\nr = 40\ns = 1\n", "s"),
    # a few cells leave more than r of the line box uncovered on its right:
    # build_partition used to stop the run after the lattice was certified
    (["run"], "experiment = partition\nmodel = r1\nr = 15\ns = 0.08\n", "r"),
    (["run"], "experiment = partition\nmodel = r1\nr = 15\ns = 0.08\n", "s"),
    (["run"], "experiment = partition\nmodel = r1\nr = 12\ns = 0.08\n", "r"),
    (["run"], "experiment = partition\nmodel = r1\nr = 17\ns = 0.08\n", "r"),
    (["run"], "experiment = partition\nmodel = r1\nr = 39\ns = 1\n", "r"),
    # the rules before these
    (["run"], "experiment = bogus\n", "experiment"),
    (["run"], "experiment = oscillation\nmodel = r1\nr = -1\n", "r"),
    (["run"], "experiment = constants\nresolution = 2\n", "resolution"),
    (["run"], "experiment = constants\nmodel = r1\n", "model"),
    (["run"], "experiment = quasilattice\nomega = 3\n", "omega"),
    (["run"], "experiment = shannon\nbogus = 1\n", "bogus"),
    (["run"], "experiment = shannon\nseed = x\n", "seed"),
    (["run"], "experiment = partition\nmodel = heis1\nresolution = 9\nr = 0.3\n", "s"),
    (["run"], "experiment = heisenberg\nresolution = 9\nr = 1.5\n", "r"),
    (["run"], "experiment = beurling-scan\nomega = 3000\n", "omega"),
], ids=lambda v: v.replace(" = ", "=").replace("\n", " ").strip() if isinstance(v, str)
    else " ".join(v))
def test_bad_config_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, config, key):
    # exit 2 with an error line that names the key, no traceback, nothing
    # written to the cache or the output directory
    cache = tmp_path / "cache"
    monkeypatch.setenv("GROUPSAMPLE_CACHE", str(cache))
    out = tmp_path / "out"
    path = _write(tmp_path, f"{config}outdir = {out}\n")
    assert main([command[0], path, *command[1:]]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and re.search(rf"\b{key}\b", errors[0]), captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (cache.exists() and any(cache.iterdir()))
    assert not out.exists()


def test_verify_heis1_fails_vertical_pair_whose_balls_meet(tmp_path):
    # (0, 0, 0.24995) lies in both open 1-balls; the sampled overlap test
    # certified this pair, the gauge distance 1.41407 < 2s now fails it
    csv = tmp_path / "pts.csv"
    out = tmp_path / "out"
    for top, rc in ((0.4999, 1), (1.0, 0)):
        np.savetxt(csv, [[0.0, 0.0, 0.0], [0.0, 0.0, top]], delimiter=",", header="x0,x1,x2",
                   comments="")
        assert main(["verify", str(csv), "--model", "heis1", "--sep", "1", "--outdir", str(out)]) == rc
        (check,) = json.loads((out / "report.json").read_text())["checks"]
        assert check["overlap_test"] == "sufficient"


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="shannon", resolution=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="shannon", model="nope").validate()
    cfg = ExperimentConfig(experiment="oscillation", model="r1").validate()
    echo = cfg.echo()
    assert echo["experiment"] == "oscillation"
    assert "resolution" not in echo  # unset keys stay out of the echo


def test_run_experiment_reports_every_check_once(tmp_path):
    cfg = ExperimentConfig(experiment="beurling-scan", outdir=str(tmp_path)).validate()
    report, header, rows, ps = run_experiment(cfg)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert len(rows) == 5


def test_constants_cache_write_is_atomic(tmp_path, monkeypatch):
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    proj = SpectralProjector(grid, 1.0, np.zeros(1), np.ones((1,) + grid.shape))
    est = ConstantEstimates(
        c_ku=1.0, b=3.0, bernstein_norms={(1, 0, 0): 1.0}, ball_volume_1=1.0, c_g=2.5,
        b_verified=False,
    )
    monkeypatch.setattr(analysis, "estimate_constants", lambda proj: est)
    counts0 = dict(analysis.CACHE_COUNTS)

    def broken_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("no space left on device")

    with monkeypatch.context() as m, pytest.raises(OSError):
        m.setattr(analysis.np, "savez", broken_savez)
        analysis.oscillation_constant(proj, str(tmp_path))
    assert list(tmp_path.iterdir()) == []

    data = analysis.oscillation_constant(proj, str(tmp_path))
    assert data == (2.5, False)
    assert [type(v) for v in data] == [float, bool]
    assert len(list(tmp_path.iterdir())) == 1
    assert analysis.oscillation_constant(proj, str(tmp_path)) == data
    assert (analysis.CACHE_COUNTS["misses"] - counts0["misses"],
            analysis.CACHE_COUNTS["hits"] - counts0["hits"]) == (2, 1)


def test_sweep_omega_keeps_one_constants_entry_per_omega(tmp_path, monkeypatch):
    # omegas that agree to 6 significant digits are two bands, so two C_G
    # entries: the second value reads none of the first value's entries, and
    # each value misses on its band projector and its C_G
    cache = tmp_path / "cache"
    monkeypatch.setenv("GROUPSAMPLE_CACHE", str(cache))
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = heisenberg\nresolution = 9\noutdir = {out}\n")
    assert main(["sweep", path, "--param", "omega", "--values", "1.0", "1.0000001"]) != 2
    report = json.loads((out / "report.json").read_text())
    assert report["cache"] == {"hits": 0, "misses": 4}
    assert len([p for p in cache.iterdir() if p.name.startswith("constants-")]) == 2


def test_import_loads_no_scipy_signal_or_spatial():
    # import-time cost: neither subpackage is needed to import the library
    code = (
        "import sys, groupsample; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.spatial') if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_layer_exports_match_definitions():
    # every __all__ entry of a layer exists, and every name the package
    # imports from a layer is in that layer's __all__
    import ast
    import importlib

    import groupsample

    with open(groupsample.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(a.name for a in node.names)
    layers = ("groups", "grids", "pointsets", "analysis", "kernels", "frames")
    assert set(imported) <= set(layers)
    for layer in layers:
        mod = importlib.import_module(f"groupsample.{layer}")
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], layer
        assert [n for n in imported.get(layer, ()) if n not in mod.__all__] == [], layer
    # every exported name is re-exported by the package or named elsewhere:
    # in another module, a test or a benchmark file
    pkg = os.path.dirname(groupsample.__file__)

    def words(folder, skip=()):
        found = set()
        for name in os.listdir(folder):
            if name.endswith(".py") and name not in skip:
                with open(os.path.join(folder, name)) as fh:
                    found |= set(re.findall(r"\w+", fh.read()))
        return found

    here = os.path.dirname(os.path.abspath(__file__))
    outside = words(here) | words(os.path.join(here, "..", "perfbench"))
    unused = []
    for layer in layers:
        mod = importlib.import_module(f"groupsample.{layer}")
        named = outside | words(pkg, skip=(f"{layer}.py", "__init__.py"))
        unused += [f"{layer}.{n}" for n in mod.__all__ if n not in imported.get(layer, ()) and n not in named]
    assert unused == []
    # one module owns each private name: none imports an underscore name
    # from another
    private = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").startswith("groupsample")
                    ):
                        private += [f"{name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_layers_import_only_earlier_layers():
    # the layer order groups -> grids -> pointsets -> kernels -> analysis ->
    # frames -> cli: every import in a layer module, those inside functions
    # included, names only layers before it
    import ast

    import groupsample

    order = ("groups", "grids", "pointsets", "kernels", "analysis", "frames", "cli")
    pkg = os.path.dirname(groupsample.__file__)
    wrong = []
    for i, layer in enumerate(order):
        with open(os.path.join(pkg, f"{layer}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ("groupsample." if node.level else "") + (node.module or "")
                mods = [base] if node.module else [f"groupsample.{a.name}" for a in node.names]
            else:
                continue
            for mod in mods:
                top, _, target = mod.partition(".")
                if top == "groupsample" and target.split(".")[0] not in order[:i]:
                    wrong.append(f"{layer}: {mod}")
    assert wrong == []


def test_checks_carry_their_basis(tmp_path, wavelet, heisenberg, constants):
    # each verdict says what it rests on: an exact test, the grid nodes or a
    # sample, with the sample sizes
    def checks(experiment, model):
        cfg = ExperimentConfig(experiment=experiment, model=model, outdir=str(tmp_path)).validate()
        return {c["name"]: c for c in run_experiment(cfg)[0]["checks"]}

    runs = {experiment: checks(experiment, model) for experiment, model in (
        ("shannon", None), ("beurling-scan", None), ("partition", "r1"), ("oscillation", "r1"),
        ("quasilattice", "rn:2"))}
    # the session's default runs of the others
    for report in (wavelet, heisenberg, constants):
        runs[report["experiment"]] = {c["name"]: c for c in report["checks"]}
    # every check of every experiment
    assert [(e, n) for e, run in runs.items() for n, c in run.items() if "checked_on" not in c] == []
    # frame bounds: exact eigenvalues of the grid kernel's finite frame operator
    for experiment, names, n_modes in (
            ("shannon", ("shannon-critical-bounds", "oversampling-bounds", "undersampling-collapse"), 127),
            ("beurling-scan", ("beurling-positive-below-threshold",
                               "beurling-collapse-above-threshold"), 63)):
        for name in names:
            c = runs[experiment][name]
            assert (c["checked_on"], c["n_modes"]) == ("discrete space", n_modes), name
    rec = runs["shannon"]["shannon-reconstruction"]
    assert (rec["checked_on"], rec["n_functions"]) == ("sampled", 20)
    # 50 random elements, 3 reproducing vectors and 6 band-edge modes
    env = runs["shannon"]["envelope-ten-configs"]
    assert (env["checked_on"], env["family_size"]) == ("sampled", 59)
    part = runs["partition"]
    assert (part["certificates"]["checked_on"], part["certificates"]["overlap_test"]) == (
        "grid nodes", "exact")
    inv = part["partition-invariants"]
    # every W-ball holds a node and every cell owns one, in each of the 10 sets
    assert (inv["checked_on"], inv["n_points"], inv["min_w_balls_with_node"],
            inv["min_cells_with_node"]) == ("grid nodes", 151, 151, 151)
    assert part["quasi-interpolation-bound"]["checked_on"] == "sampled"
    osc = runs["oscillation"]["osc-conv-inequality"]
    # 14 node offsets inside B_0.5 at spacing 1/16, and 2 sphere points at 2
    # radii, of which the two at 0.5 r repeat the node offsets +-4/16
    assert (osc["checked_on"], osc["n_points"], osc["n_offsets"]) == ("sampled", 400, 16)
    tiling = runs["quasilattice"]["exact-tiling"]
    assert (tiling["checked_on"], tiling["n_nodes"]) == ("grid nodes", 33**2)
    wav = runs["wavelet-frame"]
    assert wav["hypothesis-scan"]["checked_on"] == "sampled"
    for name in ("lower-bound-positive", "tightness-monotone"):
        assert (wav[name]["checked_on"], wav[name]["n_probes"]) == ("probe subspace", 6), name
    heis = runs["heisenberg"]
    lower = heis["lower-ratio-vs-prediction"]
    assert (lower["checked_on"], lower["n_functions"]) == ("sampled", 8)
    assert heis["dilation-covariance-angle"]["checked_on"] == "discrete space"
    const = runs["constants"]
    assert {name: c["checked_on"] for name, c in const.items()} == {
        "band-dimension": "discrete space", "homogeneous-dimension": "exact",
        "bernstein-eigenbasis": "discrete space", "commutator-xy-t": "grid nodes",
        "haar-scaling": "sampled", "osc-scaling-bound": "sampled",
        "osc-scaling-linearity": "sampled"}
    assert const["bernstein-eigenbasis"]["n_modes"] == const["band-dimension"]["dim"]
    assert const["haar-scaling"]["n_points"] == 4_000_000
    for name in ("osc-scaling-bound", "osc-scaling-linearity"):
        assert const[name]["n_functions"] == 8, name


def _commutator_reference():
    """The full-grid commutator residual: every field applied to all 121^3
    nodes, then the interior masked."""
    ring = 12
    grid = Grid.regular(HeisenbergModel(), [-5.0] * 3, [5.0] * 3, (121,) * 3)
    f = GridFunction.from_callable(grid, lambda x, y, t: np.exp(-(x**2 + y**2 + t**2) / 8.0))
    apply = analysis.vector_field_apply
    xy = apply(0, apply(1, f))
    yx = apply(1, apply(0, f))
    tf = apply(2, f)
    comm = xy.values - yx.values - tf.values
    mask = np.zeros(grid.shape, dtype=bool)
    mask[ring:-ring, ring:-ring, ring:-ring] = True
    return float(np.abs(comm[mask]).max() / np.abs(tf.values[mask]).max())


def _haar_reference(model, t, seed):
    """The Haar scaling ratio from one draw of all its points."""
    rng = np.random.default_rng(seed)
    box = np.array([t, t, t * t / 4.0])
    g = model.norm(rng.uniform(-1.0, 1.0, size=(cli._HAAR_POINTS, 3)) * box)
    return np.count_nonzero(g <= t) / np.count_nonzero(g <= 1.0)


def test_sanity_checks_match_their_whole_grid_references(monkeypatch):
    # the slabs (one that leaves a remainder of the 97 interior rows, one
    # row, the default) and the blocks change no bit of either number
    ref = _commutator_reference()
    for slab in (5, 1, analysis._COMMUTATOR_SLAB):
        monkeypatch.setattr(analysis, "_COMMUTATOR_SLAB", slab)
        assert analysis.commutator_residual() == ref, slab
    for seed in (0, 3):
        assert cli.haar_scaling_ratio(HeisenbergModel(), 1.3, seed) == _haar_reference(
            HeisenbergModel(), 1.3, seed), seed


@pytest.mark.parametrize("call", [
    "groupsample.analysis.commutator_residual()",
    "groupsample.cli.haar_scaling_ratio(groupsample.HeisenbergModel(), 1.3, 0)"])
def test_sanity_checks_run_in_bounded_memory(call):
    # each grows the peak RSS of a fresh process by at most 60 MB over its
    # value after import (the whole-grid versions grew it by about 266 and
    # 184 MB)
    code = ("import resource, groupsample, groupsample.cli; "
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; "
            f"before = peak(); {call}; print(peak() - before)")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert float(out.stdout) <= 60.0


def test_heisenberg_reports_each_step(heisenberg):
    phases = heisenberg["phases"]
    assert [p["name"] for p in phases] == ["projector", "c_g", "lattice", "dilation-covariance"]
    assert all(p["wall_s"] >= 0.0 for p in phases)
    peaks = [p["peak_rss_mb"] for p in phases]
    assert peaks == sorted(peaks) and peaks[0] > 0.0


def test_constants_reports_each_step(constants):
    # wall seconds and the peak RSS so far after each step, in order
    phases = constants["phases"]
    assert [p["name"] for p in phases] == [
        "projector", "bernstein-eigenbasis", "commutator-xy-t", "haar-scaling", "c_g",
        "osc-scaling"]
    assert all(p["wall_s"] >= 0.0 for p in phases)
    peaks = [p["peak_rss_mb"] for p in phases]
    assert peaks == sorted(peaks) and peaks[0] > 0.0
