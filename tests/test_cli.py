"""Experiment driver: config validation, artifacts, determinism, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from openchaos import cli, diagnostics, pqc, rmt, spectral
from openchaos.diagnostics import (
    SeriesAccumulator,
    channel_diagnostics,
    columns_to_csv,
    ed_diagnostics,
    effective_depth,
    estimate_thouless,
    series_to_csv,
)
from openchaos.pqc import ParametricChannel
from openchaos.rmt import derive_seed, heisenberg_time, sample_goe, sample_kraus_set
from openchaos.spectral import EigensolverError

_SRC = str(Path(cli.__file__).resolve().parents[1])


def _subprocess_env():
    """This environment with the package's source directory first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def _write_config(path, **overrides):
    cfg = {
        "mode": "ed-sff", "dim": 6, "realizations": 3, "gamma": [0.2],
        "points": 12, "t_min": 0.1, "t_max": 10.0, "master_seed": 5,
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def _no_draws(monkeypatch):
    """Fail the test if the CLI draws a Hamiltonian or a Kraus set."""
    for name in ("sample_goe", "sample_kraus_set"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} was called"))


def _outside(name, value):
    """The config error of t_min or t_max outside [0, 1e65], or of any other nonzero scale outside [1e-30, 1e30]."""
    if name in ("t_min", "t_max"):
        return f"config error: {name}={value!r} lies outside [0, 1e+65], the range of every time\n"
    return f"config error: {name}={value!r} lies outside [1e-30, 1e+30], the range of every nonzero scale\n"


def _both_reject(path, capsys, *messages):
    """validate and run each exit 1 with every message on stderr, and nothing is written."""
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert all(m in err for m in messages), (messages, err)
    assert not (path.parent / "out").exists()


def test_validate_ok(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p)
    assert cli.main(["validate", str(p)]) == 0


def test_validate_rejects_bad_values(tmp_path, capsys, monkeypatch):
    _no_draws(monkeypatch)
    p = tmp_path / "c.json"
    cases = [
        (dict(dim=1, gamma=[-0.5], points=1), ("dim", "gamma", "points")),
        (dict(dim="32"), ("dim",)),
        (dict(dim=True), ("dim",)),
        (dict(realizations=2.5), ("realizations",)),
        (dict(gamma=[float("nan")]), ("gamma",)),
        (dict(gamma=["0.1"]), ("gamma",)),
        (dict(sigma=float("inf"), t_max="10"), ("sigma", "t_max")),
        (dict(mode="pqc-sff", tau=[float("nan")], epsilon=[None]), ("tau", "epsilon")),
        (dict(full_scale="yes"), ("full_scale",)),
        # an integer dim beyond int64
        (dict(mode="pqc-sff", dim=10**400, allow_large=True), ("dim",)),
        (dict(mode="phase-grid", dim=10**400, allow_large=True), ("dim",)),
        # a scale outside the range is listed with the other problems
        (dict(mode="spectrum", sigma=1e-320, points=1, tau=[1.0], epsilon=[1.5]),
         (_outside("sigma", 1e-320), "points", "epsilon")),
        (dict(mode="phase-grid", hbar=1e-310, realizations=0, tau=[1.0, 1e308], epsilon=[0.2]),
         ("realizations", _outside("hbar", 1e-310), _outside("tau", 1e308))),
        # pqc-sff reads t_max but not t_min
        (dict(mode="pqc-sff", tau=[0.01], epsilon=[0.2], t_max=0.0), ("t_max must be > 0, got 0.0",)),
        (dict(mode="pqc-sff", tau=[0.01], epsilon=[0.2], t_max=-1.0), ("t_max must be > 0, got -1.0",)),
    ]
    for overrides, names in cases:
        _write_config(p, **overrides)
        _both_reject(p, capsys, *names)


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: dict(cfg, mode="sff"), f"config error: mode must be one of {cli.MODES}, got 'sff'\n"),
    (lambda cfg: [cfg], "config error: config must be a JSON object\n"),
    (lambda cfg: {k: v for k, v in cfg.items() if k != "mode"},
     "config error: config is missing required key 'mode'\n"),
    (lambda cfg: dict(cfg, grid_kind="cubic"), "config error: grid_kind must be 'log' or 'linear', got 'cubic'\n"),
    (lambda cfg: dict(cfg, channel_form="product"),
     "config error: channel_form must be 'mixture' or 'interleaved', got 'product'\n"),
    (lambda cfg: dict(cfg, margin=-0.1), "config error: margin must be >= 0, got -0.1\n"),
    (lambda cfg: dict(cfg, t_min=0.0), "config error: t_min must be > 0 on a log grid, got 0.0\n"),
    # it replaced an explicit dim, realizations and allow_large, with d = 64 and 500 realizations here
    (lambda cfg: dict(cfg, full_scale=True),
     "config error: full_scale must be false: set dim, realizations and allow_large\n"),
], ids=["unknown-mode", "json-array", "no-mode", "grid-kind", "channel-form", "negative-margin", "log-t-min-zero",
        "full-scale"])
def test_each_config_rule_exits_1_with_its_message(tmp_path, capsys, edit, message):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(edit(_write_config(p))))
    _both_reject(p, capsys, message)


def test_validate_rejects_a_negative_t_min_on_a_linear_grid(tmp_path, capsys):
    # the run would fail only at the kernel's time check, with exit 2
    p = tmp_path / "c.json"
    _write_config(p, grid_kind="linear", t_min=-1.0)
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert "t_min" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    _write_config(p, grid_kind="linear", t_min=0.0)
    assert cli.main(["validate", str(p)]) == 0


def test_validate_rejects_an_ed_sff_grid_ending_before_t_min(tmp_path, capsys, monkeypatch):
    # t_max = null resolves to 4 t_H; at hbar = 1e-3 that is 0.0133 < t_min = 0.1, and at hbar = 1e-30 about
    # 1.3e-29; hbar = 5e-324 lies outside the range of a scale
    _no_draws(monkeypatch)
    p = tmp_path / "c.json"
    for hbar in (1e-3, 1e-30):
        _write_config(p, dim=4, hbar=hbar, realizations=2, points=5, t_max=None)
        _both_reject(p, capsys, "config error: resolved t_max=", "(4 t_H) must exceed t_min=0.1\n")
    _write_config(p, dim=4, hbar=5e-324, realizations=2, points=5, t_max=None)
    _both_reject(p, capsys, _outside("hbar", 5e-324))
    _write_config(p, dim=4, hbar=1e-3, realizations=2, points=5, t_max=None, t_min=1e-3)
    assert cli.main(["validate", str(p)]) == 0


@pytest.mark.parametrize("mode, scales", [
    pytest.param("ed-sff", dict(sigma=1e-320), id="ed-sff-1e-320-t_H=inf"),
    pytest.param("ed-sff", dict(sigma=3e-308), id="ed-sff-3e-308-resolved t_max=inf"),
    pytest.param("pqc-sff", dict(sigma=1e-320), id="pqc-sff-1e-320-t_H=inf"),
    pytest.param("depth-grid", dict(sigma=1e-320), id="depth-grid-1e-320-t_H=inf"),
    pytest.param("pqc-sff", dict(sigma=1e300, hbar=1e-300), id="pqc-sff-t_H=0"),
    pytest.param("depth-grid", dict(sigma=1e300, hbar=1e-300), id="depth-grid-t_H=0"),
    pytest.param("spectrum", dict(sigma=1e-320), id="spectrum-tau_c=inf"),
])
def test_validate_rejects_time_scales_that_overflow(tmp_path, capsys, monkeypatch, mode, scales):
    # t_H, 4 t_H or tau_c of these scales overflows or underflows; each scale lies outside the range, which
    # rejects it whether or not t_max is set, and before anything is drawn
    _no_draws(monkeypatch)
    p = tmp_path / "c.json"
    for t_max in (None, 3.0):
        _write_config(p, mode=mode, dim=4, realizations=2, points=5, t_max=t_max, tau=[0.5], epsilon=[0.3],
                      **scales)
        _both_reject(p, capsys, *(_outside(name, value) for name, value in scales.items()))


@pytest.mark.parametrize("config, outside", [
    # t_min defaults to 0.1, which pqc-sff never reads
    pytest.param(dict(mode="pqc-sff", dim=4, kraus_count=2, tau=[0.01], epsilon=[0.2], t_max=0.05), None,
                 id="pqc-sff-t_max-below-t_min"),
    pytest.param(dict(mode="depth-grid", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.0, 0.2], t_max=0.05), None, id="depth-grid-t_max"),
    pytest.param(dict(mode="spectrum", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.2], t_min=0), None, id="spectrum-t_min=0"),
    # csr reads neither t_H nor tau_c, but the range of a scale binds every mode
    pytest.param(dict(mode="csr", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.2], sigma=1e-320), ("sigma", 1e-320), id="csr-sigma=1e-320"),
    pytest.param(dict(mode="csr", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.2], sigma=sys.float_info.max), ("sigma", sys.float_info.max), id="csr-sigma=max"),
])
def test_time_grid_rules_bind_only_the_modes_that_read_them(tmp_path, capsys, monkeypatch, config, outside):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "out"))))
    if outside:
        _no_draws(monkeypatch)
        _both_reject(p, capsys, _outside(*outside))
    else:
        assert cli.main(["validate", str(p)]) == 0
        assert cli.main(["run", str(p)]) == 0


def test_validate_rejects_a_negative_master_seed(tmp_path, capsys):
    # the seed streams would fail only inside the run, with exit 2
    p = tmp_path / "c.json"
    _write_config(p, mode="pqc-sff", tau=[0.2], epsilon=[0.1], master_seed=-1)
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert "master_seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    _write_config(p, mode="pqc-sff", tau=[0.2], epsilon=[0.1], master_seed=0)
    assert cli.main(["validate", str(p)]) == 0


def test_validate_rejects_colliding_artifact_tags(tmp_path, capsys):
    # tags print 6 significant digits: these lists would write one file name twice
    p = tmp_path / "c.json"
    cases = [
        (dict(gamma=[0.1, 0.1000001]), "gamma0.1"),
        (dict(gamma=[0.2, 0.5, 0.2]), "gamma0.2"),
        (dict(mode="pqc-sff", tau=[0.5, 0.50000001], epsilon=[0.1]), "tau0.5"),
        (dict(mode="spectrum", tau=[1.0], epsilon=[0.3, 0.3]), "eps0.3"),
        # -0.0 and 0.0 are one grid point
        (dict(gamma=[0.0, -0.0]), "'gamma0'"),
        (dict(mode="pqc-sff", tau=[0.5], epsilon=[-0.0, 0.0]), "'eps0'"),
    ]
    for overrides, tag in cases:
        cfg = _write_config(p, **overrides)
        assert cli.main(["run", str(p)]) == 1, overrides
        assert tag in capsys.readouterr().err, overrides
        assert not (tmp_path / "out").exists()
        issues = cli.validate_config(cli.ExperimentConfig(**cfg))
        assert len(issues) == 1 and tag in issues[0], (overrides, issues)
    assert cli._tag(eps=-0.0) == "eps0"


@pytest.mark.parametrize("key", ["gamma", "tau", "epsilon"])
@pytest.mark.parametrize("value", [None, "0.1", True])
def test_a_grid_value_that_is_not_a_number_is_echoed_as_written(tmp_path, capsys, key, value):
    # a lone number is a one-point grid; anything else is named as the config holds it, not wrapped in a list
    p = tmp_path / "c.json"
    _write_config(p, **{key: value})
    _both_reject(p, capsys, f"config error: {key} must be a list of finite numbers, got {value!r}\n")


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    p = tmp_path / "c.json"
    cfg = _write_config(p)
    cfg["typo_key"] = 1
    p.write_text(json.dumps(cfg))
    assert cli.main(["validate", str(p)]) == 1
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{not json",
    pytest.param("[" * 200_000 + "]" * 200_000, id="nested-200000-deep"),
])
def test_validate_rejects_broken_json(tmp_path, capsys, text):
    p = tmp_path / "c.json"
    p.write_text(text)
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")


def test_large_dim_needs_explicit_flag(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p, dim=48)
    assert cli.main(["validate", str(p)]) == 1
    _write_config(p, dim=48, allow_large=True)
    assert cli.main(["validate", str(p)]) == 0


def test_run_writes_artifacts_and_manifest(tmp_path):
    p = tmp_path / "c.json"
    cfg = _write_config(p)
    assert cli.main(["run", str(p)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "ed-sff"
    assert manifest["config"]["master_seed"] == 5
    assert manifest["grid"][0]["status"] == "ok"
    assert len(manifest["artifacts"]) == 1
    art = manifest["artifacts"][0]
    data = (out / art["path"]).read_bytes()
    assert hashlib.sha256(data).hexdigest() == art["sha256"]
    assert art["bytes"] == len(data)
    lines = data.decode().strip().split("\n")
    assert lines[0].startswith("t,sff")
    assert len(lines) == 1 + cfg["points"]


_SMALL_RUNS = {
    "ed-sff": dict(),
    "ed-sff-hbar": dict(dim=8, realizations=2, gamma=[0.1, 1.0], points=50, t_max=None, hbar=0.5),
    "pqc-sff": dict(mode="pqc-sff", tau=[0.2], epsilon=[0.1], points=8, t_max=4.0),
    "pqc-sff-interleaved": dict(mode="pqc-sff", channel_form="interleaved", tau=[0.2],
                                epsilon=[0.1], points=8, t_max=4.0),
    "spectrum": dict(mode="spectrum", realizations=2, tau=[0.05, 1.0], epsilon=[0.2], kraus_count=2),
    "csr": dict(mode="csr", realizations=2, tau=[1.0], epsilon=[0.3], kraus_count=2),
    "phase-grid": dict(mode="phase-grid", realizations=1, tau=[0.05, 1.0], epsilon=[0.2, 0.7]),
    "depth-grid": dict(mode="depth-grid", realizations=3, tau=[0.5], epsilon=[0.0, 0.2],
                       kraus_count=2),
    "depth-grid-interleaved": dict(mode="depth-grid", channel_form="interleaved", realizations=3,
                                   tau=[0.5], epsilon=[0.0, 0.2], kraus_count=2),
    "spectrum-interleaved": dict(mode="spectrum", channel_form="interleaved", realizations=2,
                                 tau=[0.05, 1.0], epsilon=[0.2], kraus_count=2),
    # eps = 0 listed, but not first: the walk takes it first, the tables and the manifest keep the config's order
    "depth-grid-eps0-later": dict(mode="depth-grid", dim=4, realizations=2, tau=[0.5, 1.0], epsilon=[0.3, 0.0],
                                  kraus_count=2),
    # the range's smallest tau, where every eigenvalue at eps = 0 lies within 1e-29 of 1
    "csr-tau=1e-30": dict(mode="csr", dim=4, realizations=1, tau=[1e-30, 1.0], epsilon=[0.0, 0.2], kraus_count=2),
}


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS))
def test_run_is_deterministic_across_workers(tmp_path, name):
    p = tmp_path / "c.json"
    _write_config(p, **_SMALL_RUNS[name])
    assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "a")]) == 0
    spectral._memo.clear()  # so the forked workers solve again rather than reuse the serial run's spectra
    assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "b"), "--workers", "3"]) == 0
    artifacts = json.loads((tmp_path / "a" / "manifest.json").read_text())["artifacts"]
    assert artifacts
    for art in artifacts:
        fa = (tmp_path / "a" / art["path"]).read_bytes()
        fb = (tmp_path / "b" / art["path"]).read_bytes()
        assert fa == fb, art["path"]


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS))
def test_the_manifest_grid_is_the_config_grid(tmp_path, name):
    # each point's values live in its summary CSV; the manifest lists only the point and its status
    p = tmp_path / "c.json"
    cfg = _write_config(p, **_SMALL_RUNS[name])
    assert cli.main(["run", str(p)]) == 0
    grid = json.loads((tmp_path / "out" / "manifest.json").read_text())["grid"]
    if cfg["mode"] == "ed-sff":
        assert grid == [{"gamma": g, "status": "ok"} for g in cfg["gamma"]]
    else:
        assert grid == [{"tau": t, "epsilon": e, "status": "ok"} for t in cfg["tau"] for e in cfg["epsilon"]]


def test_a_run_plans_once(tmp_path, monkeypatch):
    plans = []
    plan = cli._plan
    monkeypatch.setattr(cli, "_plan", lambda cfg: plans.append(cfg) or plan(cfg))
    p = tmp_path / "c.json"
    _write_config(p, **_SMALL_RUNS["phase-grid"])
    assert cli.main(["run", str(p)]) == 0
    assert len(plans) == 1


def _count_eigensolves(monkeypatch, log):
    """Append one line to `log` per LAPACK eigensolve, in this process or a forked worker."""
    solve = np.linalg.eigvals

    def counting(a):
        with open(log, "a") as f:
            f.write("solve\n")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


def test_csr_after_spectrum_reuses_its_eigensolves(tmp_path, monkeypatch):
    solves = _count_eigensolves(monkeypatch, tmp_path / "solves.log")
    p = tmp_path / "c.json"
    for workers in ("1", "2"):
        spectral._memo.clear()
        _write_config(p, mode="spectrum", realizations=3, tau=[0.05, 1.0], epsilon=[0.2], kraus_count=2)
        before = solves()
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / f"spectrum{workers}"),
                         "--workers", workers]) == 0
        assert solves() - before == 6
        warm, cold = tmp_path / f"warm{workers}", tmp_path / f"cold{workers}"
        _write_config(p, mode="csr", realizations=3, tau=[1.0], epsilon=[0.2], kraus_count=2)
        before = solves()
        assert cli.main(["run", str(p), "--output-dir", str(warm), "--workers", workers]) == 0
        if workers == "1":
            assert solves() == before  # every tau = 1.0 spectrum was solved by `spectrum`
        before = solves()
        spectral._memo.clear()
        assert cli.main(["run", str(p), "--output-dir", str(cold), "--workers", workers]) == 0
        assert solves() - before == 3
        artifacts = json.loads((warm / "manifest.json").read_text())["artifacts"]
        assert len(artifacts) == 3
        for art in artifacts:
            assert (warm / art["path"]).read_bytes() == (cold / art["path"]).read_bytes(), art["path"]


def test_ed_sff_gamma_list_matches_one_gamma_runs(tmp_path):
    # one shared pass over the level pairs gives each gamma the bytes of its own run
    gammas = [0.01, 0.1, 1.0]
    p = tmp_path / "c.json"
    _write_config(p, gamma=gammas)
    assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "all")]) == 0
    for g in gammas:
        _write_config(p, gamma=[g])
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "one")]) == 0
        name = f"ed-sff_gamma{g:g}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


def test_runs_pass_hbar_to_the_dephasing_kernel(tmp_path):
    # the ed-sff series and the depth-grid isolated reference are the library's at hbar = 0.7
    hbar = 0.7
    p = tmp_path / "c.json"
    raw = _write_config(p, gamma=[0.1, 1.0], hbar=hbar)
    assert cli.main(["run", str(p)]) == 0
    cfg = cli.ExperimentConfig(**raw)
    times = np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    accs = [SeriesAccumulator() for _ in cfg.gamma]
    for idx in range(cfg.realizations):  # seed stream 0 draws the Hamiltonians
        h = sample_goe(cfg.dim, cfg.sigma, derive_seed(cfg.master_seed, 0, idx))
        for acc, s in zip(accs, ed_diagnostics(h, cfg.beta, cfg.gamma, times, hbar)):
            acc.add(s)
    for g, acc in zip(cfg.gamma, accs):
        assert (tmp_path / "out" / f"ed-sff_gamma{g:g}.csv").read_text() == series_to_csv(acc.finalize())

    raw = _write_config(p, mode="depth-grid", dim=6, realizations=3, tau=[0.5], epsilon=[0.0],
                        kraus_count=2, hbar=hbar, output_dir=str(tmp_path / "depth"))
    assert cli.main(["run", str(p)]) == 0
    cfg = cli.ExperimentConfig(**raw)
    t_h = heisenberg_time(cfg.dim, cfg.sigma, hbar)
    times = np.arange(math.ceil(t_h / 0.5) + 2) * 0.5
    acc = SeriesAccumulator()
    for idx in range(cfg.realizations):
        h = sample_goe(cfg.dim, cfg.sigma, derive_seed(cfg.master_seed, 0, idx))
        acc.add(ed_diagnostics(h, cfg.beta, [0.0], times, hbar)[0])
    iso = acc.finalize()
    t_th = estimate_thouless(iso, t_h)
    d_iso = effective_depth(iso, t_th, t_h, 0.5)
    header = ("tau", "epsilon", "depth", "isolated_depth", "relative_depth", "t_thouless", "t_heisenberg")
    expect = columns_to_csv(header, zip((0.5, 0.0, d_iso, d_iso, 1.0, t_th, t_h)))
    assert (tmp_path / "depth" / "depth_grid.csv").read_text() == expect


def test_run_shuts_its_worker_processes_down(tmp_path):
    before = threading.active_count()
    cfg = cli.ExperimentConfig(**dict(_SMALL_RUNS["pqc-sff"], output_dir=str(tmp_path / "out"), dim=6,
                                      realizations=3, master_seed=5))
    cli.run(cfg, workers=2)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_worker_failure_exits_2_and_leaves_no_child_process(tmp_path, monkeypatch, capsys):
    p = tmp_path / "c.json"
    _write_config(p, **dict(_SMALL_RUNS["spectrum"], realizations=3))
    parent, solve = os.getpid(), cli.eigenvalues

    def failing(superop, context=""):
        if context.endswith("realization=1"):
            raise EigensolverError(f"synthetic failure at {context}, forked: {os.getpid() != parent}")
        return solve(superop, context=context)

    monkeypatch.setattr(cli, "eigenvalues", failing)
    assert cli.main(["run", str(p), "--workers", "2"]) == 2
    message = "synthetic failure at tau=0.05, eps=0.2, realization=1, forked: True"
    assert message in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"] == [message]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["0", "-3", "abc"])
def test_run_rejects_a_worker_count_below_one_as_a_usage_error(tmp_path, capsys, workers):
    # 0 and -3 ran serially and exited 0
    p = tmp_path / "c.json"
    _write_config(p)
    with pytest.raises(SystemExit) as info:
        cli.main(["run", str(p), "--workers", workers])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: openchaos run") and f"argument --workers: must be an integer >= 1, got '{workers}'" in err
    assert not (tmp_path / "out").exists()


def test_forked_workers_with_default_blas_threads_match_one_worker(tmp_path):
    # A worker forked while BLAS threads exist must not hang: a deadlock runs into the timeout.
    p = tmp_path / "c.json"
    _write_config(p, **dict(_SMALL_RUNS["pqc-sff"], dim=16, realizations=4))
    env = {k: v for k, v in _subprocess_env().items() if not k.endswith("_NUM_THREADS")}
    for workers in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "openchaos.cli", "run", str(p), "--workers", workers,
             "--output-dir", str(tmp_path / workers)],
            env=env, timeout=120, check=True, capture_output=True,
        )
    artifacts = json.loads((tmp_path / "1" / "manifest.json").read_text())["artifacts"]
    assert artifacts
    for art in artifacts:
        assert (tmp_path / "1" / art["path"]).read_bytes() == (tmp_path / "2" / art["path"]).read_bytes()


def _blas_is_openblas() -> bool:
    return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()


_THREAD_RUNS = {
    "pqc-sff": dict(mode="pqc-sff", dim=24, realizations=2, tau=[0.5], epsilon=[0.3],
                    kraus_count=2, points=20, t_max=20.0),
    "depth-grid": dict(mode="depth-grid", dim=16, realizations=2, tau=[0.5], epsilon=[0.0, 0.3],
                       kraus_count=2),
    "ed-sff": dict(mode="ed-sff", dim=120, allow_large=True, realizations=2, gamma=[0.01, 1.0],
                   points=50, t_max=100.0),
    # 12720 level pairs: OpenBLAS splits a dot product of more than 10^4 across its threads
    "ed-sff-160": dict(mode="ed-sff", dim=160, allow_large=True, realizations=2, gamma=[0.01, 1.0],
                       points=100, t_max=100.0),
    # LAPACK's eigensolve of the 576 x 576 superoperator
    "spectrum": dict(mode="spectrum", dim=24, realizations=2, tau=[1.0], epsilon=[0.2], kraus_count=2),
}


@pytest.mark.skipif(not _blas_is_openblas(), reason="the thread-count guarantee is stated for OpenBLAS")
@pytest.mark.parametrize("name", sorted(_THREAD_RUNS))
def test_series_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, name):
    p = tmp_path / "c.json"
    _write_config(p, **_THREAD_RUNS[name])
    env = {k: v for k, v in _subprocess_env().items() if not k.endswith("_NUM_THREADS")}
    digests = []
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "openchaos.cli", "run", str(p), "--output-dir", str(tmp_path / threads)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), timeout=300, check=True, capture_output=True,
        )
        artifacts = json.loads((tmp_path / threads / "manifest.json").read_text())["artifacts"]
        digests.append([(art["path"], art["sha256"]) for art in artifacts])
    assert digests[0] and digests[0] == digests[1]


@pytest.mark.skipif(cli._openblas_threads() is None, reason="the thread count is held for OpenBLAS")
def test_a_run_holds_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    set_threads, get_threads = cli._openblas_threads()
    seen = []

    def runner(cfg, plan, workers):
        # a generator: it reads the thread count only while `_run` iterates it
        seen.append(get_threads())
        seen.extend(cli._ensemble_map(cfg, lambda idx: get_threads(), workers))  # forked workers inherit it
        if cfg.mode == "ed-sff":
            raise RuntimeError("synthetic failure")
        yield "threads.csv", "threads\n", "grid", cfg.mode

    before = get_threads()
    try:
        set_threads(2)
        count = get_threads()
        for mode in ("phase-grid", "ed-sff"):
            monkeypatch.setitem(cli._RUNNERS, mode, runner)
            cfg = cli.ExperimentConfig(mode=mode, dim=4, realizations=2, output_dir=str(tmp_path / mode))
            with pytest.raises(RuntimeError) if mode == "ed-sff" else contextlib.nullcontext():
                cli.run(cfg, workers=2)
            assert get_threads() == count
    finally:
        set_threads(before)
    assert seen == [1] * 6


def test_importing_the_cli_loads_no_scipy_special_spatial_or_process_pool(tmp_path):
    # numpy is the one runtime dependency: with every scipy import raising ImportError, the CLI imports
    # without a process pool and runs each of the six modes
    modes = ["ed-sff", "pqc-sff", "spectrum", "csr", "phase-grid", "depth-grid"]
    for mode in modes:
        _write_config(tmp_path / f"{mode}.json", **dict(_SMALL_RUNS[mode], output_dir=str(tmp_path / mode)))
    code = (
        "import sys; sys.modules['scipy'] = None; import openchaos.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]); "
        "print([openchaos.cli.main(['run', a]) for a in sys.argv[1:]])"
    )
    done = subprocess.run([sys.executable, "-c", code, *(str(tmp_path / f"{m}.json") for m in modes)],
                          env=_subprocess_env(), timeout=300, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[0] == "[]"
    assert done.stdout.splitlines()[-1] == str([0] * len(modes)), done.stderr


def test_run_leaves_only_manifest_and_artifacts(tmp_path):
    # writes go through a temporary file and a rename; none may be left behind
    p = tmp_path / "c.json"
    _write_config(p, **_SMALL_RUNS["spectrum"])
    assert cli.main(["run", str(p)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {a["path"] for a in manifest["artifacts"]}
    assert {f.name for f in out.iterdir()} == listed | {"manifest.json"}
    for art in manifest["artifacts"]:
        assert hashlib.sha256((out / art["path"]).read_bytes()).hexdigest() == art["sha256"]


def test_rerun_is_byte_identical(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p)
    assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "ed-sff_gamma0.2.csv").read_bytes()
    b = (tmp_path / "r2" / "ed-sff_gamma0.2.csv").read_bytes()
    assert a == b


def test_run_spectrum_grid(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p, mode="spectrum", dim=6, realizations=2, tau=[0.05], epsilon=[0.2],
                  kraus_count=2)
    assert cli.main(["run", str(p)]) == 0
    out = tmp_path / "out"
    summary = (out / "spectrum_summary.csv").read_text().strip().split("\n")
    assert summary[0].startswith("tau,epsilon,phase,containment")
    assert len(summary) == 2
    cloud = (out / "spectrum_tau0.05_eps0.2.csv").read_text().strip().split("\n")
    # 2 realizations x d^2 rows: bulk plus flagged fixed point
    assert len(cloud) == 1 + 2 * 36
    assert sum(1 for r in cloud[1:] if r.split(",")[2] == "1") == 2


@pytest.mark.parametrize("tau, eps, phase", [
    (0.1, 0.2, "crescent"), (1.0, 0.2, "annular"), (1.0, 0.9, "disk"), (0.01, 0.9, "shifted-disk"),
    (1e-30, 0.0, "crescent"),
])
def test_spectrum_run_matches_the_bulk_audit(tmp_path, monkeypatch, tau, eps, phase):
    p = tmp_path / "c.json"
    cfg = _write_config(p, mode="spectrum", dim=6, kraus_count=2, realizations=1,
                        tau=[tau], epsilon=[eps])
    assert cli.main(["run", str(p)]) == 0
    monkeypatch.setattr(spectral, "_memo", {})  # the one-channel audit solves its own matrix
    seed = cfg["master_seed"]
    ch = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=sample_goe(6, 1.0, derive_seed(seed, 0, 0)),
                           kraus=sample_kraus_set(6, 2, derive_seed(seed, 1, 0)))
    report_bulk, _ = spectral.split_bulk(spectral.eigenvalues(pqc.build_superoperator(ch)))
    report_phase, _, report_containment = spectral.audit_bulk(report_bulk, tau, eps, 2, 6, 1.0, 1.0, 0.02)
    out = tmp_path / "out"
    row = (out / "spectrum_summary.csv").read_text().split("\n")[1].split(",")
    assert row[2] == report_phase == phase
    assert float(row[3]) == report_containment
    if eps == 0.0:  # the unit circle: outer radius 1, no inner edge, centre 0, no shifted-disk radius
        assert row[5:9] == ["1.e+00", "nan", "0.e+00", "nan"]
    cloud = np.loadtxt(out / f"spectrum_{cli._tag(tau=tau, eps=eps)}.csv", delimiter=",", skiprows=1)
    bulk = cloud[cloud[:, 2] == 0]
    assert np.array_equal(bulk[:, 0] + 1j * bulk[:, 1], report_bulk)


def test_run_csr_has_depletion_column(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p, mode="csr", dim=6, realizations=2, tau=[1.0], epsilon=[0.3],
                  kraus_count=2)
    assert cli.main(["run", str(p)]) == 0
    rows = (tmp_path / "out" / "csr_summary.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert "depletion_zscore" in header
    assert len(rows[1].split(",")) == len(header)


def test_run_depth_grid_contains_isolated_reference(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p, mode="depth-grid", dim=6, realizations=4, tau=[0.5],
                  epsilon=[0.0, 0.2], kraus_count=2)
    assert cli.main(["run", str(p)]) == 0
    rows = (tmp_path / "out" / "depth_grid.csv").read_text().strip().split("\n")
    assert rows[0].split(",")[:5] == ["tau", "epsilon", "depth", "isolated_depth", "relative_depth"]
    eps0 = rows[1].split(",")
    assert float(eps0[1]) == 0.0
    assert float(eps0[4]) == pytest.approx(1.0, abs=1e-12)  # eps=0 normalizes itself
    eps2 = rows[2].split(",")
    assert float(eps2[4]) <= 1.0 + 1e-12


def test_depth_grid_honours_channel_form(tmp_path):
    # eps > 0 rows step the configured form; eps = 0 rows both come from the
    # isolated closed form, so they agree byte for byte
    p = tmp_path / "c.json"
    rows = {}
    for form in ("mixture", "interleaved"):
        _write_config(p, mode="depth-grid", channel_form=form, dim=8, realizations=3, tau=[0.3],
                      epsilon=[0.0, 0.3], kraus_count=3, output_dir=str(tmp_path / form))
        assert cli.main(["run", str(p)]) == 0
        rows[form] = (tmp_path / form / "depth_grid.csv").read_text().strip().split("\n")
    mixture, inter = rows["mixture"], rows["interleaved"]
    assert len(mixture) == len(inter) == 3
    assert mixture[:2] == inter[:2]
    assert mixture[2] != inter[2]
    assert float(mixture[2].split(",")[2]) != float(inter[2].split(",")[2])


def _library_depth_grid(cfg):
    """depth_grid.csv composed from the library: realizations summed in order, the gamma = 0 closed form as each
    tau's isolated reference, `channel_diagnostics` at each eps > 0, then `estimate_thouless` and `effective_depth`."""
    t_h = heisenberg_time(cfg.dim, cfg.sigma, cfg.hbar)
    iso = {tau: SeriesAccumulator() for tau in cfg.tau}
    acc = {(tau, eps): SeriesAccumulator() for tau in cfg.tau for eps in cfg.epsilon if eps != 0.0}
    for idx in range(cfg.realizations):
        h = sample_goe(cfg.dim, cfg.sigma, derive_seed(cfg.master_seed, 0, idx))
        ks = sample_kraus_set(cfg.dim, cfg.kraus_count, derive_seed(cfg.master_seed, 1, idx))
        for tau in cfg.tau:
            j_max = diagnostics._steps_to(t_h, tau, "t_H") + 1
            iso[tau].add(ed_diagnostics(h, cfg.beta, [0.0], np.arange(j_max + 1) * tau, cfg.hbar)[0])
            for eps in cfg.epsilon:
                if eps != 0.0:
                    ch = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=ks, hbar=cfg.hbar)
                    ch = pqc.interleaved(ch) if cfg.channel_form == "interleaved" else ch
                    acc[tau, eps].add(channel_diagnostics(ch, cfg.beta, j_max))
    table = []
    for tau in cfg.tau:
        iso_mean = iso[tau].finalize()
        t_th = estimate_thouless(iso_mean, t_h)
        d_iso = effective_depth(iso_mean, t_th, t_h, tau)
        for eps in cfg.epsilon:
            depth = effective_depth(iso_mean if eps == 0.0 else acc[tau, eps].finalize(), t_th, t_h, tau)
            table.append((tau, eps, depth, d_iso, depth / d_iso if d_iso > 0 else np.nan, t_th, t_h))
    header = ("tau", "epsilon", "depth", "isolated_depth", "relative_depth", "t_thouless", "t_heisenberg")
    return columns_to_csv(header, zip(*table))


@pytest.mark.parametrize("epsilon, channel_form", [
    pytest.param([0.1, 0.5], "mixture", id="no-eps0"),
    pytest.param([0.3, 0.0, 0.6], "mixture", id="eps0-not-first"),
    pytest.param([0.3, 0.0, 0.6], "interleaved", id="eps0-not-first-interleaved"),
])
def test_depth_grid_walk_matches_the_library(tmp_path, monkeypatch, epsilon, channel_form):
    # each tau's isolated reference is computed once per realization, whether eps lists 0 or not, and an eps = 0
    # row reads it wherever it stands in the list
    calls = []
    closed_form = cli.ed_diagnostics
    monkeypatch.setattr(cli, "ed_diagnostics", lambda *a: calls.append(a) or closed_form(*a))
    p = tmp_path / "c.json"
    raw = _write_config(p, mode="depth-grid", dim=6, kraus_count=2, realizations=3, tau=[0.3, 0.5],
                        epsilon=epsilon, channel_form=channel_form)
    assert cli.main(["run", str(p), "--workers", "1"]) == 0
    assert len(calls) == 3 * 2
    cfg = cli.ExperimentConfig(**raw)
    assert (tmp_path / "out" / "depth_grid.csv").read_text() == _library_depth_grid(cfg)


@pytest.mark.parametrize("planted, point", [
    pytest.param("ed_diagnostics", "isolated reference at tau=0.3", id="isolated"),
    pytest.param("channel_diagnostics", "tau=0.3, eps=0.4", id="channel"),
])
def test_depth_grid_names_a_non_finite_point(tmp_path, capsys, monkeypatch, planted, point):
    # the isolated reference of the first tau is the first slot of the walk, whether or not eps lists 0
    def nan_sff(*args, **kwargs):
        result = library(*args, **kwargs)
        for series in result if isinstance(result, list) else [result]:
            series.sff = np.full_like(series.sff, np.nan)
        return result

    library = getattr(cli, planted)
    monkeypatch.setattr(cli, planted, nan_sff)
    p = tmp_path / "c.json"
    _write_config(p, mode="depth-grid", dim=4, kraus_count=2, realizations=2, tau=[0.3, 0.5], epsilon=[0.4, 0.0])
    with np.errstate(all="ignore"):
        assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err == f"runtime error: {point}: ensemble sff is not finite\n"


def test_run_phase_grid(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p, mode="phase-grid", tau=[1e-4, 1.0], epsilon=[0.2, 0.7],
                  realizations=1)
    assert cli.main(["run", str(p)]) == 0
    rows = (tmp_path / "out" / "phase_grid.csv").read_text().strip().split("\n")
    assert len(rows) == 5
    labels = {r.split(",")[2] for r in rows[1:]}
    assert labels <= {"annular", "disk", "crescent", "shifted-disk"}


def test_runtime_failure_exits_2(tmp_path, monkeypatch, capsys):
    p = tmp_path / "c.json"
    _write_config(p, mode="phase-grid", realizations=1)

    def boom(cfg, plan, workers):
        yield "phase_grid.csv", "tau\n", "grid", "phase-grid"
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._RUNNERS, "phase-grid", boom)
    assert cli.main(["run", str(p)]) == 2
    assert "synthetic failure" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"] == ["synthetic failure"]
    assert manifest["grid"] == []  # a failed run lists no grid point, but the artifact written before it failed
    assert [a["path"] for a in manifest["artifacts"]] == ["phase_grid.csv"]
    assert (tmp_path / "out" / "phase_grid.csv").read_text() == "tau\n"


@pytest.mark.parametrize("mode, point", [
    ("pqc-sff", "tau=0.5, eps=0.0"),
])
def test_non_finite_ensemble_means_exit_2_naming_the_point(tmp_path, capsys, monkeypatch, mode, point):
    # a channel rejects an overflowing phase before any step, so the nan is planted in the eps = 0 series
    def diagnostics(ch, *args, **kwargs):
        series = cli_diagnostics(ch, *args, **kwargs)
        if ch.epsilon == 0.0:
            series.sff = np.full_like(series.sff, np.nan)
        return series

    cli_diagnostics = cli.channel_diagnostics
    monkeypatch.setattr(cli, "channel_diagnostics", diagnostics)
    p = tmp_path / "c.json"
    _write_config(p, mode=mode, dim=4, realizations=2, points=5, t_max=3.0,
                  tau=[0.5], epsilon=[0.0, 0.3], kraus_count=2)
    with np.errstate(all="ignore"):
        assert cli.main(["run", str(p)]) == 2
    assert f"{point}: ensemble sff is not finite" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"] == [f"{point}: ensemble sff is not finite"]
    assert manifest["artifacts"] == []
    assert sorted(os.listdir(tmp_path / "out")) == ["manifest.json"]


@pytest.mark.parametrize("mode, overrides, outside", [
    pytest.param("ed-sff", dict(hbar=5e-324), "hbar", id="ed-sff-hbar=5e-324"),
    pytest.param("depth-grid", dict(hbar=5e-324), "hbar", id="depth-grid-hbar=5e-324"),
    pytest.param("ed-sff", dict(t_max=1e308), "t_max", id="ed-sff-t_max=1e308"),
    pytest.param("ed-sff", dict(gamma=[0.0], t_max=1e200), "t_max", id="ed-sff-bound-t_max=1e200"),
    pytest.param("ed-sff", dict(hbar=1e-200), "hbar", id="ed-sff-bound-hbar=1e-200"),
    pytest.param("depth-grid", dict(tau=[1e300]), "tau", id="depth-grid-bound-tau=1e300"),
])
def test_overflowing_dephasing_phases_exit_2_before_any_artifact(tmp_path, capsys, monkeypatch, mode, overrides,
                                                                 outside):
    # the dephasing kernel's t*E/hbar, or the Taylor lower bound, overflowed for these scales, and the run
    # exited 2 with only its manifest; the scale or time named now lies outside its domain, a config error
    # before any draw
    _no_draws(monkeypatch)
    p = tmp_path / "c.json"
    _write_config(p, **dict(dict(mode=mode, dim=4, realizations=2, points=5, t_max=3.0,
                                 tau=[0.5], epsilon=[0.0, 0.3], kraus_count=2), **overrides))
    value = overrides[outside]
    _both_reject(p, capsys, _outside(outside, value[0] if isinstance(value, list) else value))


@pytest.mark.parametrize("mode", ["pqc-sff", "csr", "depth-grid"])
def test_overflowing_channel_phases_exit_2_before_any_artifact(tmp_path, capsys, mode, monkeypatch):
    # the channel's phase tau*spread/hbar, or 1/hbar, overflows at these scales; each lies outside the range,
    # a config error before any draw
    _no_draws(monkeypatch)
    p = tmp_path / "c.json"
    base = dict(mode=mode, dim=4, realizations=2, points=5, t_max=3.0, tau=[0.5], epsilon=[0.3], kraus_count=2)
    _write_config(p, **base, hbar=5e-324)
    _both_reject(p, capsys, _outside("hbar", 5e-324))
    _write_config(p, **dict(base, tau=[1.0]), hbar=5e-324, sigma=5e-324)
    _both_reject(p, capsys, _outside("hbar", 5e-324), _outside("sigma", 5e-324))


@pytest.mark.parametrize("overrides, message", [
    pytest.param(dict(gamma=[0.1, 1e300], t_max=1e10), _outside("gamma", 1e300), id="ed-sff-gamma"),
    pytest.param(dict(mode="pqc-sff", tau=[0.5, 1e-17], t_max=1000.0),
                 "tau=1e-17 takes more than 2**53 steps to reach t_max=1000.0", id="pqc-sff-steps"),
    # t_H is 3.3 at dim 4: 3.3e30 steps of tau = 1e-30, the range's smallest
    pytest.param(dict(mode="depth-grid", tau=[0.5, 1e-30]),
                 "tau=1e-30 takes more than 2**53 steps to reach t_H=", id="depth-grid-steps"),
    pytest.param(dict(mode="phase-grid", tau=[1.0], epsilon=[0.1], hbar=1e-310), _outside("hbar", 1e-310),
                 id="phase-grid-hbar"),
    pytest.param(dict(mode="phase-grid", tau=[1e308], epsilon=[0.1]), _outside("tau", 1e308), id="phase-grid-tau"),
    pytest.param(dict(mode="spectrum", tau=[5e-324], epsilon=[0.0]), _outside("tau", 5e-324), id="spectrum-tau"),
    # one step past t_H, or the step past t_max, was at 2e308
    pytest.param(dict(mode="depth-grid", sigma=1e-300, tau=[1e308]), _outside("tau", 1e308),
                 id="depth-grid-last-time"),
    pytest.param(dict(mode="pqc-sff", tau=[1e308], t_max=1.7e308), _outside("t_max", 1.7e308),
                 id="pqc-sff-last-time"),
])
def test_validate_rejects_overflowing_rates_and_step_counts(tmp_path, capsys, monkeypatch, overrides, message):
    # past validation, each would warn, fail at run time or step on a wrong grid
    _no_draws(monkeypatch)
    p = tmp_path / "c.json"
    _write_config(p, **dict(dict(dim=4, realizations=2, points=5, epsilon=[0.3], kraus_count=2),
                            **overrides))
    _both_reject(p, capsys, message)


@pytest.mark.parametrize("offset", [0, 5])
def test_validate_rejects_a_column_offset_outside_the_slab(tmp_path, capsys, offset):
    # d = 4, K = 2: the d columns of each Kraus block start at 1 .. d(K-1) = 4
    p = tmp_path / "c.json"
    base = dict(mode="pqc-sff", dim=4, kraus_count=2, realizations=2, points=5, t_max=3.0,
                tau=[0.5], epsilon=[0.3])
    _write_config(p, **base, column_offset=offset)
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert f"config error: column_offset={offset} outside allowed range [1, 4]\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # K = 1 reads no offset
    _write_config(p, **dict(base, kraus_count=1), column_offset=0)
    assert cli.main(["validate", str(p)]) == 0


def test_validate_lists_a_bad_dim_once_and_skips_the_column_offset(tmp_path, capsys):
    p = tmp_path / "c.json"
    _write_config(p, mode="pqc-sff", dim=1, kraus_count=2, column_offset=0, tau=[0.5], epsilon=[0.3])
    assert cli.main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.count("d must be >= 2") == 1 and "column_offset" not in err, err


@pytest.mark.parametrize("mode, name, value, message", [
    ("spectrum", "histogram_bins", 4097, "histogram_bins must lie in [8, 4096], got 4097"),
    ("csr", "histogram_bins", 10**9, "histogram_bins must lie in [8, 4096], got 1000000000"),
    ("ed-sff", "points", 10**6 + 1, "points must lie in [2, 1000000], got 1000001"),
    ("pqc-sff", "points", 10**15, "points must lie in [2, 1000000], got 1000000000000000"),
])
def test_validate_rejects_oversized_grids(tmp_path, capsys, mode, name, value, message):
    # each would allocate gigabytes or more past validation; at the limit the config is valid
    p = tmp_path / "c.json"
    base = dict(mode=mode, dim=4, realizations=2, tau=[1.0], epsilon=[0.2], kraus_count=2)
    _write_config(p, **base, **{name: value})
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    _write_config(p, **base, **{name: 4096 if name == "histogram_bins" else 10**6})
    assert cli.main(["validate", str(p)]) == 0


@pytest.mark.parametrize("mode, dim, kraus_count, at_limit", [
    ("pqc-sff", 32, 1022, (32, 128)),  # CUE(32704): 17 GB per complex matrix
    ("depth-grid", 64, 65, (64, 64)),
    ("spectrum", 4097, 1, (64, 64)),  # (4096, 1) is valid as a draw, but its superoperator is not
])
def test_validate_rejects_a_cue_side_above_4096_before_any_draw(tmp_path, capsys, monkeypatch, mode, dim,
                                                                 kraus_count, at_limit):
    def draw(*args, **kwargs):
        raise AssertionError("sample_cue was called")

    monkeypatch.setattr(rmt, "sample_cue", draw)
    p = tmp_path / "c.json"
    base = dict(mode=mode, allow_large=True, realizations=1, tau=[0.1], epsilon=[0.1])
    _write_config(p, **base, dim=dim, kraus_count=kraus_count)
    message = (f"config error: kraus_count*dim: the CUE side n=K*d must lie in [1, 4096]"
               f" (a complex 4096 x 4096 matrix holds 256 MiB), got {dim * kraus_count}\n")
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # at the limit the config is valid
    _write_config(p, **base, dim=at_limit[0], kraus_count=at_limit[1])
    assert cli.main(["validate", str(p)]) == 0


@pytest.mark.parametrize("mode", ["spectrum", "csr"])
def test_validate_rejects_a_superoperator_side_above_4096_before_any_draw(tmp_path, capsys, monkeypatch, mode):
    # dim = 65: a 4225 x 4225 complex superoperator, 286 MB per realization
    def draw(*args, **kwargs):
        raise AssertionError("sample_goe was called")

    monkeypatch.setattr(cli, "sample_goe", draw)
    p = tmp_path / "c.json"
    base = dict(mode=mode, allow_large=True, kraus_count=1, realizations=1, tau=[1.0], epsilon=[0.2])
    _write_config(p, **base, dim=65)
    message = ("config error: dim: the superoperator side d^2 must lie in [1, 4096]"
               " (a complex 4096 x 4096 matrix holds 256 MiB), got 4225\n")
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # d = 64 is at the limit
    _write_config(p, **base, dim=64)
    assert cli.main(["validate", str(p)]) == 0


@pytest.mark.parametrize("keys, message", [
    pytest.param(dict(kraus_count=200), "config error: kraus_count*dim: the CUE side n=K*d must lie in [1, 4096]"
                 " (a complex 4096 x 4096 matrix holds 256 MiB), got 6400\n", id="cue-side"),
    pytest.param(dict(kraus_count=3, column_offset=500),
                 "config error: column_offset=500 outside allowed range [1, 64]\n", id="column-offset"),
])
def test_the_kraus_draw_rules_bind_only_the_modes_that_draw_kraus_sets(tmp_path, capsys, monkeypatch, keys, message):
    # phase-grid draws no Kraus set, yet these keys made it exit 1; K's own domain still binds it with d
    p = tmp_path / "c.json"
    config = dict(dim=32, tau=[1.0], epsilon=[0.2], **keys)
    _write_config(p, mode="phase-grid", **config)
    assert cli.main(["validate", str(p)]) == 0
    assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "grid")]) == 0
    assert [a["path"] for a in json.loads((tmp_path / "grid" / "manifest.json").read_text())["artifacts"]] == [
        "phase_grid.csv"]
    _no_draws(monkeypatch)
    _write_config(p, mode="pqc-sff", **config)
    _both_reject(p, capsys, message)
    _write_config(p, mode="phase-grid", **dict(config, kraus_count=1023))
    _both_reject(p, capsys, "config error: kraus_count: K must lie in [1, d^2-2], got 1023\n")


def test_validate_rejects_a_goe_side_above_4096_before_any_draw(tmp_path, capsys, monkeypatch):
    # each worker would draw, and eigensolve, a 100000 x 100000 GOE matrix (80 GB)
    monkeypatch.setattr(cli, "sample_goe", lambda *args: pytest.fail("sample_goe was called"))
    p = tmp_path / "c.json"
    _write_config(p, dim=100000, allow_large=True, t_max=None)
    message = ("config error: dim: the GOE side d must lie in [1, 4096]"
               " (a complex 4096 x 4096 matrix holds 256 MiB), got 100000\n")
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    _write_config(p, dim=4096, allow_large=True, t_max=None)
    assert cli.main(["validate", str(p)]) == 0


@pytest.mark.parametrize("mode", ["pqc-sff", "depth-grid"])
def test_a_run_derives_each_step_count_once(tmp_path, monkeypatch, mode):
    # run's plan asks t_H and each tau's step count once, and the runner reads them from it
    calls = []
    for name in ("_steps_to", "heisenberg_time"):
        monkeypatch.setattr(cli, name, lambda *a, _f=getattr(cli, name), _n=name: calls.append(_n) or _f(*a))
    p = tmp_path / "c.json"
    _write_config(p, mode=mode, dim=4, kraus_count=2, realizations=2, t_max=None, tau=[0.2, 0.5], epsilon=[0.0, 0.3])
    cli.run(cli.load_config(p))
    assert sorted(calls) == ["_steps_to", "_steps_to", "heisenberg_time"]


@pytest.mark.parametrize("mode", ["pqc-sff", "depth-grid", "ed-sff"])
def test_a_run_records_on_the_plans_grids(tmp_path, monkeypatch, mode):
    # every series grid comes from the plan: the closed form and the channel read the same arrays
    calls = []
    for name in ("channel_diagnostics", "ed_diagnostics"):
        monkeypatch.setattr(cli, name, lambda *a, _f=getattr(cli, name), _n=name, **k: calls.append((_n, a, k))
                            or _f(*a, **k))
    p = tmp_path / "c.json"
    _write_config(p, mode=mode, dim=4, kraus_count=2, realizations=2, t_max=None, tau=[0.2, 0.5],
                  epsilon=[0.0, 0.3])
    cfg = cli.load_config(p)
    plan = cli._plan(cfg)
    cli.run(cfg)
    expect = {"ed-sff": {"ed_diagnostics"}, "pqc-sff": {"channel_diagnostics"}}
    assert {name for name, _, _ in calls} == expect.get(mode, {"channel_diagnostics", "ed_diagnostics"})
    for name, args, kwargs in calls:
        if mode == "ed-sff":
            assert np.array_equal(args[3], plan.times)
        elif name == "ed_diagnostics":  # depth-grid's isolated reference, on its tau's steps
            assert args[2] == [0.0] and any(np.array_equal(args[3], plan.steps[t] * t) for t in cfg.tau)
        else:
            steps = plan.steps[args[0].tau]
            assert args[2] == steps[-1] and np.array_equal(kwargs["record_steps"], steps)


def test_validate_and_run_bound_every_series_grid(tmp_path, monkeypatch, capsys):
    # depth-grid records every step to one past t_H: 33321625 per series at dim 4, tau 1e-7; nothing is drawn
    for name in ("sample_goe", "channel_diagnostics", "ed_diagnostics"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} was called"))
    p = tmp_path / "c.json"
    base = dict(mode="depth-grid", dim=4, kraus_count=2, realizations=1, epsilon=[0.1], t_max=None)
    _write_config(p, **base, tau=[1e-7])
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: tau=1e-07 "), err
        assert "33321625" in err[0] and "1000000" in err[0]
    assert not (tmp_path / "out").exists()
    for tau, code in ((3.4e-6, 0), (3.3e-6, 1)):  # 980050 and 1009749 recorded steps
        _write_config(p, **base, tau=[tau])
        assert cli.main(["validate", str(p)]) == code


def test_a_plan_without_steps_has_an_immutable_empty_mapping():
    with pytest.raises(TypeError):  # the default was one dict, shared by every plan built without steps
        cli._Plan([]).steps[1.0] = 2


@pytest.mark.parametrize("channel_form", ["mixture", "interleaved"])
def test_a_run_rotates_each_realization_once(tmp_path, monkeypatch, channel_form):
    # 3 realizations over a 2 x 2 grid: one rotation each, not one per grid point
    calls = []
    rotate = pqc._to_eigenbasis
    monkeypatch.setattr(pqc, "_to_eigenbasis", lambda *a: calls.append(a) or rotate(*a))
    p = tmp_path / "c.json"
    _write_config(p, mode="pqc-sff", channel_form=channel_form, dim=4, kraus_count=2, realizations=3,
                  points=5, t_max=3.0, tau=[0.2, 0.5], epsilon=[0.0, 0.3])
    assert cli.main(["run", str(p), "--workers", "1"]) == 0
    assert len(calls) == 3


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(sigma=10**400), id="sigma"),
    pytest.param(dict(t_max=10**400), id="t_max"),
    pytest.param(dict(gamma=[0.1, 10**400]), id="gamma"),
    pytest.param(dict(mode="pqc-sff", tau=[-(10**400)], epsilon=[0.1]), id="tau"),
    pytest.param(dict(full_scale=True, hbar=10**400), id="full_scale"),
])
def test_an_integer_no_float_holds_is_not_a_finite_number(tmp_path, capsys, overrides):
    # math.isfinite raised OverflowError on such a JSON integer, a traceback with exit 1
    p = tmp_path / "c.json"
    _write_config(p, **overrides)
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^config error: \w+ must be a (list of )?finite number", err, re.M), err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# d = 2 has no isolated hole: relative_depth is nan in depth_grid.csv at every grid point
_NO_HOLE = dict(mode="depth-grid", dim=2, realizations=2, kraus_count=1, tau=[0.5, 3.0], epsilon=[0.0, 0.3])


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS) + ["depth-grid-no-hole"])
def test_manifest_is_strict_json(tmp_path, name):
    p = tmp_path / "c.json"
    if name == "depth-grid-no-hole":
        p.write_text(json.dumps(dict(_NO_HOLE, output_dir=str(tmp_path / "out"))))
    else:
        _write_config(p, **_SMALL_RUNS[name])
    assert cli.main(["run", str(p)]) == 0
    manifest_path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(), parse_constant=_reject_constant)
    assert cli.main(["plot-script", str(manifest_path), "-o", str(tmp_path / "plot.gp")]) == 0
    if manifest["mode"] in ("phase-grid", "depth-grid"):  # the grid table is plotted by name
        assert f"plot '{manifest['mode'].replace('-', '_')}.csv'" in (tmp_path / "plot.gp").read_text()
    if name == "depth-grid-no-hole":
        rows = (tmp_path / "out" / "depth_grid.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["nan"] * 4


# Every scale of the verdict property comes from this list: zero, the smallest subnormal, tiny, the ends of the
# range of a scale, one, huge, the largest float, an integer no float holds and a negative number; epsilon from
# its own.  A key the draw leaves out keeps a runnable value, so that a good share of the configs pass
# `validate` and run.
_HOSTILE = st.sampled_from([0, 5e-324, 1e-300, 1e-30, 1, 1e30, 1e300, sys.float_info.max, 10**400, -1])
_HOSTILE_EPSILON = st.sampled_from([0, 5e-324, 0.5, 1, 1.5, -1])
_HOSTILE_CONFIGS = st.fixed_dictionaries(
    dict(mode=st.sampled_from(cli.MODES), dim=st.integers(2, 5), kraus_count=st.integers(1, 3),
         realizations=st.integers(1, 2), points=st.integers(2, 8),
         channel_form=st.sampled_from(["mixture", "interleaved"]), grid_kind=st.sampled_from(["log", "linear"])),
    optional=dict(sigma=_HOSTILE, hbar=_HOSTILE, beta=_HOSTILE, t_min=_HOSTILE, t_max=st.none() | _HOSTILE,
                  tau=st.lists(_HOSTILE, max_size=2), gamma=st.lists(_HOSTILE, max_size=2),
                  epsilon=st.lists(_HOSTILE_EPSILON, max_size=2)),
).map(lambda drawn: dict(dict(t_min=1, t_max=None, tau=[1], gamma=[1], epsilon=[0.5]), **drawn))
_MAX = sys.float_info.max


def _small(**overrides):
    return dict(dict(dim=4, kraus_count=2, realizations=2, points=5, tau=[0.5], epsilon=[0.3], t_max=3.0),
                **overrides)


def _verdicts(config, out):
    """The exit codes and stderr of `validate` and `run` on `config`, writing to `out`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(dict(config, output_dir=str(out))))
        codes, errs = [], []
        for command in ("validate", "run"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main([command, str(path)]))
            errs.append(err.getvalue())
    return codes, errs


@settings(max_examples=1000)
# scales outside the range at which the channel's phase, or 1/hbar, overflowed in pqc-sff, csr, depth-grid and
# spectrum
@example(_small(mode="pqc-sff", hbar=5e-324))
@example(_small(mode="csr", hbar=5e-324))
@example(_small(mode="depth-grid", hbar=5e-324))
@example(_small(mode="pqc-sff", sigma=1e300, hbar=1e-300))
@example(_small(mode="pqc-sff", sigma=5e-324, hbar=5e-324, tau=[1]))
@example(_small(mode="csr", sigma=5e-324, hbar=5e-324, tau=[5e-324]))
@example(_small(mode="spectrum", sigma=5e-324, hbar=5e-324, tau=[1]))
# a GOE draw that overflowed
@example(_small(mode="csr", sigma=_MAX))
@example(_small(mode="ed-sff", sigma=_MAX, gamma=[1]))
@example(_small(mode="pqc-sff", sigma=_MAX))
# a draw beyond the ensemble's spread sigma*sqrt(8*dim) (4 sigma at d=2), whose entry of A + A^T, or the
# channel's phase over the drawn levels, overflowed
@example(_small(mode="pqc-sff", dim=2, kraus_count=1, sigma=4.4e307, realizations=20))
@example(_small(mode="pqc-sff", dim=2, kraus_count=1, hbar=2.2273011596668684e-308, tau=[1.0], realizations=100))
# numpy warned at these extremes: make_cgs, classify_phase, the depth-grid times (the phase or the last step's
# time overflowed), the ed-sff log grid to the largest float, the kernel's -2t, and the spacing ratios of levels
# a subnormal apart
@example(_small(mode="pqc-sff", beta=_MAX))
@example(_small(mode="phase-grid", tau=[5e-324]))
@example(_small(mode="spectrum", tau=[5e-324]))
@example(_small(mode="depth-grid", tau=[_MAX]))
@example(_small(mode="depth-grid", sigma=1e-300, tau=[1e308]))
@example(_small(mode="ed-sff", sigma=1e-300, gamma=[1], t_max=_MAX))
@example(_small(mode="ed-sff", sigma=5e-324, gamma=[0], t_min=1, t_max=_MAX, grid_kind="linear"))
@example(_small(mode="csr", dim=5, kraus_count=1, tau=[5e-324], epsilon=[0], channel_form="interleaved"))
@given(_HOSTILE_CONFIGS)
def test_validate_and_run_give_one_verdict(config):
    # validate exits 1 exactly when run does, leaving no output; after `config ok` a run exits 0.  Plans that
    # step past step 10^4 are left out, to bound run time.
    plan = cli._plan(cli.ExperimentConfig(**config))
    assume(max((int(s[-1]) for s in plan.steps.values()), default=0) <= 10**4)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        codes, errs = _verdicts(config, out)
        assert codes in ([1, 1], [0, 0]), (codes, errs)
        if codes[0] == 1:
            assert not out.exists()
            return
        json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)


# Every mode at dim 4 with sigma, hbar, tau and gamma at either end of the range, beta 0 or at either end, and
# t_max null or at either end: 864 configs, of which 684 validate.
_CORNERS = [dict(mode=mode, dim=4, realizations=1, sigma=sigma, hbar=hbar, tau=[tau], gamma=[gamma], beta=beta,
                 t_max=t_max)
            for mode in cli.MODES for sigma, hbar, tau, gamma in itertools.product((1e-30, 1e30), repeat=4)
            for beta in (0, 1e-30, 1e30) for t_max in (None, 1e-30, 1e30)]


def test_every_corner_of_the_range_validated_runs_without_a_warning(tmp_path):
    verdicts = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, config in enumerate(_CORNERS):
            codes, errs = _verdicts(config, tmp_path / str(i))
            assert codes in ([1, 1], [0, 0]), (config, codes, errs)
            verdicts[codes[0]] += 1
    assert verdicts == {0: 684, 1: 180}


def test_plot_script_references_artifacts(tmp_path, capsys):
    p = tmp_path / "c.json"
    _write_config(p)
    assert cli.main(["run", str(p)]) == 0
    manifest_path = tmp_path / "out" / "manifest.json"
    assert cli.main(["plot-script", str(manifest_path)]) == 0
    script = capsys.readouterr().out
    assert "set logscale xy" in script
    assert "ed-sff_gamma0.2.csv" in script
    assert "set datafile separator" in script


@pytest.mark.parametrize("name, title", [("spectrum", "spectrum"), ("csr", "ratios")])
def test_plot_script_titles_clouds_by_what_they_hold(tmp_path, capsys, name, title):
    # csr ratio clouds were titled 'spectrum'
    p = tmp_path / "c.json"
    _write_config(p, **_SMALL_RUNS[name])
    assert cli.main(["run", str(p)]) == 0
    assert cli.main(["plot-script", str(tmp_path / "out" / "manifest.json")]) == 0
    plots = [line for line in capsys.readouterr().out.splitlines() if "with dots" in line]
    assert plots and all(line.endswith(f"with dots title '{title}'")
                         or line.endswith(f"with dots title '{title}', \\") for line in plots), plots


def test_plot_script_to_file_and_missing_manifest(tmp_path):
    assert cli.main(["plot-script", str(tmp_path / "nope.json")]) == 2
    p = tmp_path / "c.json"
    _write_config(p, mode="spectrum", dim=6, realizations=1, tau=[1.0], epsilon=[0.7],
                  kraus_count=2)
    assert cli.main(["run", str(p)]) == 0
    gp = tmp_path / "plots.gp"
    assert cli.main(["plot-script", str(tmp_path / "out" / "manifest.json"),
                     "-o", str(gp)]) == 0
    text = gp.read_text()
    assert "boundary_tau1_eps0.7.csv" in text
    assert "set size ratio -1" in text


@pytest.mark.parametrize("manifest", [
    "{not json",
    "[]",
    '{"artifacts": {}}',
    '{"artifacts": [{"path": "a.csv", "label": "x"}]}',
    '{"artifacts": [{"path": 3, "kind": "series", "label": "x"}]}',
    '{"artifacts": ["a.csv"]}',
    # a quote would close gnuplot's string and run system() from plot.gp
    pytest.param(json.dumps({"artifacts": [{"path": "a.csv' ; system('echo INJECTED') ; print '",
                                            "kind": "series", "label": "x"}]}), id="quote-in-path"),
    pytest.param('{"artifacts": ' + "[" * 200_000 + "]" * 200_000 + "}", id="nested-200000-deep"),
    # a run config is no manifest: it has no artifacts list
    '{"mode": "pqc-sff", "dim": 4}',
    # a plotted path that is no .csv table named its own PNG: set output 's.dat', then plot 's.dat'
    '{"artifacts": [{"path": "s.dat", "kind": "series", "label": "x"}]}',
    '{"artifacts": [{"path": "cloud", "kind": "cloud", "label": "x"}]}',
    '{"artifacts": [{"path": "r.csv.bak", "kind": "ratios", "label": "x"}]}',
    '{"artifacts": [{"path": "c.csv", "kind": "cloud", "label": "x"}, {"path": "b.txt", "kind": "boundary", "label": "x"}]}',
    '{"mode": "depth-grid", "artifacts": [{"path": "depth_grid.json", "kind": "grid", "label": "depth-grid"}]}',
])
def test_plot_script_rejects_malformed_manifest(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    assert cli.main(["plot-script", str(path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("config error: ") and out.out == ""


def _art(path, kind, label):
    return {"path": path, "kind": kind, "label": label}


# every kind in one manifest, listed out of plot order: histograms, summaries and boundaries get no plot of their
# own, a cloud or a ratio cloud carries the boundary of its label, and each grid table is drawn by its label
_EVERY_KIND = [
    _art("phase_grid.csv", "grid", "phase-grid"),
    _art("csr_tau1_eps0.3.csv", "ratios", "tau1_eps0.3"),
    _art("spectrum_tau1_eps0.2.csv", "cloud", "tau1_eps0.2"),
    _art("boundary_tau1_eps0.2.csv", "boundary", "tau1_eps0.2"),
    _art("spectrum_tau1_eps0.2.hist.json", "histogram", "tau1_eps0.2"),
    _art("depth_grid.csv", "grid", "depth-grid"),
    _art("pqc-sff_tau0.2_eps0.1.csv", "series", "tau0.2_eps0.1"),
    _art("spectrum_summary.csv", "summary", "summary"),
]
_EVERY_KIND_SCRIPT = """\
# generated by openchaos plot-script
set datafile separator ','
set terminal pngcairo size 900,650
set output 'pqc-sff_tau0.2_eps0.1.png'
set logscale xy
set xlabel 't'
set ylabel 'SFF'
plot 'pqc-sff_tau0.2_eps0.1.csv' every ::1 using 1:2 with lines lw 2 title 'SFF', \\
     'pqc-sff_tau0.2_eps0.1.csv' every ::1 using 1:6 with lines dashtype 2 title 'lower bound', \\
     'pqc-sff_tau0.2_eps0.1.csv' every ::1 using 1:7 with lines dashtype 3 title 'upper bound'
set output 'spectrum_tau1_eps0.2.png'
unset logscale
set size ratio -1
set xlabel 'Re'
set ylabel 'Im'
plot 'spectrum_tau1_eps0.2.csv' every ::1 using 1:2 with dots title 'spectrum', \\
     'boundary_tau1_eps0.2.csv' every ::1 using 1:2 with lines lc 'black' title 'boundary'
set output 'csr_tau1_eps0.3.png'
unset logscale
set size ratio -1
set xlabel 'Re'
set ylabel 'Im'
plot 'csr_tau1_eps0.3.csv' every ::1 using 1:2 with dots title 'ratios'
set output 'phase_grid.png'
set logscale x
set xlabel 'tau'
set ylabel 'epsilon'
plot 'phase_grid.csv' every ::1 using 1:2 with points pt 5 title 'grid'
set output 'depth_grid.png'
set logscale x
set xlabel 'tau'
set ylabel 'relative depth'
plot 'depth_grid.csv' every ::1 using 1:5 with points pt 7 title 'D/D_0'
"""


def test_plot_script_draws_every_kind_in_its_order(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"artifacts": _EVERY_KIND}))
    assert cli.main(["plot-script", str(path)]) == 0
    assert capsys.readouterr().out == _EVERY_KIND_SCRIPT


@pytest.mark.parametrize("mode", [None, "depth-grid", [], "spectrum"],
                         ids=["no-mode", "depth-grid", "list", "spectrum"])
def test_plot_script_draws_a_grid_table_by_its_label(tmp_path, capsys, mode):
    # the grid table was looked up by the manifest's mode: without one it went undrawn, under another mode's name
    # it took that mode's axes, and a mode that is no string made the manifest unplottable
    manifest = {"artifacts": [_art("phase_grid.csv", "grid", "phase-grid"), _art("odd.csv", "grid", "odd")]}
    if mode is not None:
        manifest["mode"] = mode
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["plot-script", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out.endswith("set ylabel 'epsilon'\nplot 'phase_grid.csv' every ::1 using 1:2 with points pt 5 title "
                            "'grid'\n"), out.out
    assert "odd" not in out.out and out.err == ""


@pytest.mark.parametrize("mode", ["phase-grid", "depth-grid"])
def test_plot_script_of_a_failed_run_plots_nothing(tmp_path, monkeypatch, capsys, mode):
    # a failed run lists no artifacts; the grid table was plotted by a name made from the mode all the same
    def boom(cfg, plan, workers):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._RUNNERS, mode, boom)
    p = tmp_path / "c.json"
    _write_config(p, **_SMALL_RUNS[mode])
    assert cli.main(["run", str(p)]) == 2
    capsys.readouterr()
    assert cli.main(["plot-script", str(tmp_path / "out" / "manifest.json")]) == 0
    script = capsys.readouterr().out
    assert "plot " not in script and "set output" not in script, script


def test_plot_script_rejects_a_manifest_that_is_not_utf8(tmp_path, capsys):
    # the UnicodeDecodeError of reading it escaped every handler as a traceback
    path = tmp_path / "manifest.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["plot-script", str(path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("config error: ") and out.out == ""


def test_plot_script_into_missing_directory_is_a_runtime_error(tmp_path, capsys):
    p = tmp_path / "c.json"
    _write_config(p)
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    target = tmp_path / "missing" / "plots.gp"
    assert cli.main(["plot-script", str(tmp_path / "out" / "manifest.json"), "-o", str(target)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("runtime error: ") and out.out == ""
    assert not target.exists()


def test_gamma_scalar_promoted_to_list(tmp_path):
    p = tmp_path / "c.json"
    cfg = _write_config(p)
    cfg["gamma"] = 0.3
    p.write_text(json.dumps(cfg))
    loaded = cli.load_config(p)
    assert loaded.gamma == [0.3]
