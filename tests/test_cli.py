"""Experiment driver: config validation, artifacts, determinism, exit codes."""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from openchaos import cli, spectral
from openchaos.diagnostics import (
    SeriesAccumulator,
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


def test_validate_ok(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p)
    assert cli.main(["validate", str(p)]) == 0


def test_validate_rejects_bad_values(tmp_path, capsys):
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
        # a float of dim overflows in t_H or phi_max
        (dict(mode="pqc-sff", dim=10**400, allow_large=True), ("dim",)),
        (dict(mode="phase-grid", dim=10**400, allow_large=True), ("dim",)),
        # a derived scale is listed with the other problems
        (dict(mode="spectrum", sigma=1e-320, points=1, tau=[1.0], epsilon=[1.5]), ("tau_c=inf", "points", "epsilon")),
        (dict(mode="phase-grid", hbar=1e-310, realizations=0, tau=[1.0, 1e308], epsilon=[0.2]),
         ("realizations", "tau=1.0 makes phi_max=", "tau=1e+308 makes phi_max=")),
        # pqc-sff reads t_max but not t_min
        (dict(mode="pqc-sff", tau=[0.01], epsilon=[0.2], t_max=0.0), ("t_max must be > 0, got 0.0",)),
        (dict(mode="pqc-sff", tau=[0.01], epsilon=[0.2], t_max=-1.0), ("t_max must be > 0, got -1.0",)),
    ]
    for overrides, names in cases:
        _write_config(p, **overrides)
        assert cli.main(["validate", str(p)]) == 1, overrides
        err = capsys.readouterr().err
        assert all(name in err for name in names), (overrides, err)


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


def test_validate_rejects_an_ed_sff_grid_ending_before_t_min(tmp_path, capsys):
    # t_max = null resolves to 4 t_H; at hbar = 1e-3 that is 0.0133 < t_min = 0.1,
    # and at hbar = 5e-324 about 6e-323, where the phases would overflow
    p = tmp_path / "c.json"
    for hbar in (1e-3, 5e-324):
        _write_config(p, dim=4, hbar=hbar, realizations=2, points=5, t_max=None)
        for command in ("validate", "run"):
            assert cli.main([command, str(p)]) == 1
            err = capsys.readouterr().err
            assert "t_max=" in err and "t_min=0.1" in err, err
        assert not (tmp_path / "out").exists()
    _write_config(p, dim=4, hbar=1e-3, realizations=2, points=5, t_max=None, t_min=1e-3)
    assert cli.main(["validate", str(p)]) == 0


_T_H_INF = "t_H=2*pi*hbar/Delta overflows at dim=4, sigma=1e-320, hbar=1.0: t_H=inf must be finite and > 0"
_T_H_ZERO = "t_H=2*pi*hbar/Delta underflows at dim=4, sigma=1e+300, hbar=1e-300: t_H=0.0 must be finite and > 0"


@pytest.mark.parametrize("mode, scales, name", [
    pytest.param("ed-sff", dict(sigma=1e-320), _T_H_INF, id="ed-sff-1e-320-t_H=inf"),
    # t_H is finite, 4 t_H is not
    pytest.param("ed-sff", dict(sigma=3e-308), "resolved t_max=inf", id="ed-sff-3e-308-resolved t_max=inf"),
    pytest.param("pqc-sff", dict(sigma=1e-320), _T_H_INF, id="pqc-sff-1e-320-t_H=inf"),
    pytest.param("depth-grid", dict(sigma=1e-320), "t_H=inf", id="depth-grid-1e-320-t_H=inf"),
    pytest.param("pqc-sff", dict(sigma=1e300, hbar=1e-300), _T_H_ZERO, id="pqc-sff-t_H=0"),
    pytest.param("depth-grid", dict(sigma=1e300, hbar=1e-300), _T_H_ZERO, id="depth-grid-t_H=0"),
    # classify_phase reads tau_c
    pytest.param("spectrum", dict(sigma=1e-320), "tau_c=pi*hbar/(sigma*sqrt(2*dim)) overflows at dim=4, "
                 "sigma=1e-320, hbar=1.0: tau_c=inf must be finite and > 0", id="spectrum-tau_c=inf"),
])
def test_validate_rejects_time_scales_that_overflow(tmp_path, capsys, mode, scales, name):
    # the runs would compute every realization and exit 2 on a non-finite
    # ensemble mean or an infinite step count, or write phase labels from an
    # overflowed tau_c; with t_max set, only depth-grid and spectrum still
    # read a derived scale
    p = tmp_path / "c.json"
    _write_config(p, mode=mode, dim=4, realizations=2, points=5, t_max=None, tau=[0.5], epsilon=[0.3],
                  **scales)
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    _write_config(p, mode=mode, dim=4, realizations=2, points=5, t_max=3.0, tau=[0.5], epsilon=[0.3],
                  **scales)
    assert cli.main(["validate", str(p)]) == (0 if mode in ("ed-sff", "pqc-sff") else 1)


@pytest.mark.parametrize("config", [
    # t_min defaults to 0.1, which pqc-sff never reads
    pytest.param(dict(mode="pqc-sff", dim=4, kraus_count=2, tau=[0.01], epsilon=[0.2], t_max=0.05),
                 id="pqc-sff-t_max-below-t_min"),
    pytest.param(dict(mode="depth-grid", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.0, 0.2], t_max=0.05), id="depth-grid-t_max"),
    pytest.param(dict(mode="spectrum", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.2], t_min=0), id="spectrum-t_min=0"),
    # t_H and tau_c overflow here, but csr reads neither
    pytest.param(dict(mode="csr", dim=4, kraus_count=2, realizations=2, tau=[0.5],
                      epsilon=[0.2], sigma=1e-320), id="csr-sigma=1e-320"),
])
def test_time_grid_rules_bind_only_the_modes_that_read_them(tmp_path, config):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "out"))))
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
    ]
    for overrides, tag in cases:
        cfg = _write_config(p, **overrides)
        assert cli.main(["run", str(p)]) == 1, overrides
        assert tag in capsys.readouterr().err, overrides
        assert not (tmp_path / "out").exists()
        issues = cli.validate_config(cli.ExperimentConfig(**cfg))
        assert len(issues) == 1 and tag in issues[0], (overrides, issues)


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


def test_run_shuts_its_worker_threads_down(tmp_path):
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
    # 7140 level pairs, below the 10^4 where OpenBLAS splits a dot product
    "ed-sff": dict(mode="ed-sff", dim=120, allow_large=True, realizations=2, gamma=[0.01, 1.0],
                   points=50, t_max=100.0),
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


def test_importing_the_cli_loads_neither_scipy_special_nor_spatial():
    code = (
        "import sys, openchaos.cli; "
        "print([m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), timeout=120,
                          check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


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
])
def test_spectrum_run_matches_spectral_report(tmp_path, monkeypatch, tau, eps, phase):
    p = tmp_path / "c.json"
    cfg = _write_config(p, mode="spectrum", dim=6, kraus_count=2, realizations=1,
                        tau=[tau], epsilon=[eps])
    assert cli.main(["run", str(p)]) == 0
    monkeypatch.setattr(spectral, "_memo", {})  # the report solves its own matrix
    seed = cfg["master_seed"]
    ch = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=sample_goe(6, 1.0, derive_seed(seed, 0, 0)),
                           kraus=sample_kraus_set(6, 2, derive_seed(seed, 1, 0)))
    report = spectral.spectral_report(ch)
    out = tmp_path / "out"
    row = (out / "spectrum_summary.csv").read_text().split("\n")[1].split(",")
    assert row[2] == report.phase == phase
    assert float(row[3]) == report.containment
    cloud = np.loadtxt(out / f"spectrum_{cli._tag(tau=tau, eps=eps)}.csv", delimiter=",", skiprows=1)
    bulk = cloud[cloud[:, 2] == 0]
    assert np.array_equal(bulk[:, 0] + 1j * bulk[:, 1], report.bulk)


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

    def boom(cfg, out, manifest, workers):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._RUNNERS, "phase-grid", boom)
    assert cli.main(["run", str(p)]) == 2
    assert "synthetic failure" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"] == ["synthetic failure"]


@pytest.mark.parametrize("mode, point", [
    ("pqc-sff", "tau=0.5, eps=0.0"),
])
def test_non_finite_ensemble_means_exit_2_naming_the_point(tmp_path, capsys, mode, point):
    # hbar = 5e-324 passes validation, but tau*w/hbar overflows
    p = tmp_path / "c.json"
    _write_config(p, mode=mode, hbar=5e-324, dim=4, realizations=2, points=5, t_max=3.0,
                  tau=[0.5], epsilon=[0.0, 0.3], kraus_count=2)
    with np.errstate(all="ignore"):
        assert cli.main(["run", str(p)]) == 2
    assert f"{point}: ensemble sff is not finite" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["errors"] == [f"{point}: ensemble sff is not finite"]
    assert manifest["artifacts"] == []
    assert sorted(os.listdir(tmp_path / "out")) == ["manifest.json"]


_LOWER_BOUND_OVERFLOW = "overflows the lower bound's t*dC_l1/dgamma/(2*hbar^2)"


@pytest.mark.parametrize("mode, overrides, message", [
    pytest.param("ed-sff", dict(hbar=5e-324), "t*|E|/hbar", id="ed-sff-hbar=5e-324"),
    pytest.param("depth-grid", dict(hbar=5e-324), "t*|E|/hbar", id="depth-grid-hbar=5e-324"),
    pytest.param("ed-sff", dict(t_max=1e308), "t*|E|/hbar", id="ed-sff-t_max=1e308"),
    # the Taylor lower bound's t*dC_l1/dgamma/(2*hbar^2), past the kernel's own checks
    pytest.param("ed-sff", dict(gamma=[0.0], t_max=1e200),
                 f"t=1e+200 with hbar=1.0 {_LOWER_BOUND_OVERFLOW}", id="ed-sff-bound-t_max=1e200"),
    pytest.param("ed-sff", dict(hbar=1e-200),
                 f"t=3.0 with hbar=1e-200 {_LOWER_BOUND_OVERFLOW}", id="ed-sff-bound-hbar=1e-200"),
    pytest.param("depth-grid", dict(tau=[1e300]),
                 f"t=2e+300 with hbar=1.0 {_LOWER_BOUND_OVERFLOW}", id="depth-grid-bound-tau=1e300"),
])
def test_overflowing_dephasing_phases_exit_2_before_any_artifact(tmp_path, capsys, mode, overrides, message):
    # valid configs whose t*E/hbar or lower bound overflows for the sampled
    # levels: the closed forms raise before they compute a nan or warn
    p = tmp_path / "c.json"
    _write_config(p, **dict(dict(mode=mode, dim=4, realizations=2, points=5, t_max=3.0,
                                 tau=[0.5], epsilon=[0.0, 0.3], kraus_count=2), **overrides))
    assert cli.main(["validate", str(p)]) == 0
    assert cli.main(["run", str(p)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "out")) == ["manifest.json"]


@pytest.mark.parametrize("overrides, message", [
    pytest.param(dict(gamma=[0.1, 1e300], t_max=1e10),
                 "gamma=1e+300 times t_max=10000000000.0 is not finite", id="ed-sff-gamma"),
    pytest.param(dict(mode="pqc-sff", tau=[0.5, 1e-17], t_max=1000.0),
                 "tau=1e-17 takes more than 2**53 steps to reach t_max=1000.0", id="pqc-sff-steps"),
    pytest.param(dict(mode="depth-grid", tau=[0.5, 1e-300]),
                 "tau=1e-300 takes more than 2**53 steps to reach t_H=", id="depth-grid-steps"),
    pytest.param(dict(mode="phase-grid", tau=[1.0], epsilon=[0.1], hbar=1e-310),
                 "tau=1.0 makes phi_max=tau*sigma*sqrt(8*dim)/hbar overflow", id="phase-grid-hbar"),
    pytest.param(dict(mode="phase-grid", tau=[1e308], epsilon=[0.1]),
                 "tau=1e+308 makes phi_max=tau*sigma*sqrt(8*dim)/hbar overflow", id="phase-grid-tau"),
])
def test_validate_rejects_overflowing_rates_and_step_counts(tmp_path, capsys, overrides, message):
    # past validation, each would warn, fail at run time or step on a wrong grid
    p = tmp_path / "c.json"
    _write_config(p, **dict(dict(dim=4, realizations=2, points=5, epsilon=[0.3], kraus_count=2),
                            **overrides))
    for command in ("validate", "run"):
        assert cli.main([command, str(p)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    if name == "depth-grid-no-hole":
        assert [g["relative_depth"] for g in manifest["grid"]] == [None] * 4
        rows = (tmp_path / "out" / "depth_grid.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["nan"] * 4


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
])
def test_plot_script_rejects_malformed_manifest(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
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


def test_full_scale_key_raises_dim_and_realizations(tmp_path):
    p = tmp_path / "c.json"
    _write_config(p, mode="csr", kraus_count=2, tau=[1.0], epsilon=[0.3],
                  full_scale=True)
    loaded = cli.load_config(p)
    assert loaded.full_scale
    assert loaded.dim == 64
    assert loaded.realizations == 4
    assert loaded.allow_large
    assert not cli.validate_config(loaded)


def test_gamma_scalar_promoted_to_list(tmp_path):
    p = tmp_path / "c.json"
    cfg = _write_config(p)
    cfg["gamma"] = 0.3
    p.write_text(json.dumps(cfg))
    loaded = cli.load_config(p)
    assert loaded.gamma == [0.3]
