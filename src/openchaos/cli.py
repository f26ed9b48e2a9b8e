"""Experiment driver: seeded ensemble runs from a JSON config to CSV artifacts.

A config names one of six modes and the physical grid to sweep:

    ed-sff      closed-form dephasing diagnostics over a gamma list
    pqc-sff     channel-evolution diagnostics over a (tau, epsilon) grid
    spectrum    superoperator eigenvalue clouds with phase boundaries
    csr         complex spacing ratios of those clouds
    phase-grid  phase labels and boundary parameters over a (tau, epsilon) grid
    depth-grid  relative correlation-hole depth over a (tau, epsilon) grid

Every realization draws its Hamiltonian from the stream
derive_seed(master_seed, 0, index) and its environment unitary from
derive_seed(master_seed, 1, index), so realization i is the same physical
sample in every mode and at every grid point; ensembles are therefore paired
across parameters, and a run is reproducible from (config, master_seed)
alone.  Each realization is one job of one walk over the plan's tau-major
(tau, epsilon) grid (`_grid_map`): the Hamiltonian and the Kraus set are
drawn, the channel at the first grid point rotates the Kraus set into the
eigenbasis of H once, and every grid point is that channel `replace`d to its
(tau, epsilon), which rotates nothing.  With --workers N > 1 the jobs run in
N forked worker processes (serially where the platform cannot fork); workers
only change scheduling, because results are reduced in realization order, so
the emitted CSV numbers are byte-identical for any --workers value.

`validate` and `run` read one plan (`_plan`): the config's issues, and each
time scale, walk and series grid of the run, derived once.  The plan asks
`rmt` whether each input lies in its domain, where no kernel product can
overflow (every nonzero scale in [1e-30, 1e30], every time in [0, 1e65]), so
past `validate` a run fails only where the system does (a file it cannot
write) or LAPACK does not converge.  A run holds OpenBLAS at one thread, so its
bytes do not depend on the BLAS thread count either.
Each mode's runner yields its artifacts, in order, as (name, text, kind, label)
records, and `_run` alone writes them: each through a temporary file, with its
manifest entry.  The manifest.json records the config, the package version,
wall times, the config's grid points with their status and a sha256 per
artifact; the values of each point are in its artifacts.
Exit codes: 0 success, 1 config validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import numbers
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    DiagnosticSeries,
    SeriesAccumulator,
    _steps_to,
    channel_diagnostics,
    columns_to_csv,
    ed_diagnostics,
    effective_depth,
    estimate_thouless,
    series_to_csv,
)
from .pqc import ParametricChannel, build_superoperator, interleaved
from .rmt import _check_scales, _check_side, _check_times, derive_seed, heisenberg_time, sample_goe, sample_kraus_set
from .spectral import (
    annular_boundaries,
    audit_bulk,
    classify_phase,
    complex_spacing_ratios,
    density_grid,
    eigenvalues,
    phi_max,
    shifted_disk_boundary,
    split_bulk,
)

__all__ = ["ExperimentConfig", "load_config", "validate_config", "run", "emit_gnuplot_script", "main"]

_GOE_STREAM = 0
_CUE_STREAM = 1

# Size limits: `density_grid` holds bins^2 counts and writes them as one JSON
# list, and every series grid (the ed-sff times, the pqc-sff record steps past
# step 0, depth-grid's every step to t_H) at most 10^6 points.
_MAX_HISTOGRAM_BINS = 4096
_MAX_POINTS = 10**6


@dataclass
class ExperimentConfig:
    """One experiment: mode, physics parameters, grids and output location."""

    mode: str
    dim: int = 32
    sigma: float = 1.0
    hbar: float = 1.0
    beta: float = 0.0
    kraus_count: int = 3
    column_offset: int = 1
    realizations: int = 100
    master_seed: int = 20260815
    gamma: List[float] = field(default_factory=lambda: [0.1])
    tau: List[float] = field(default_factory=lambda: [0.01])
    epsilon: List[float] = field(default_factory=lambda: [0.1])
    channel_form: str = "mixture"
    grid_kind: str = "log"
    t_min: float = 0.1
    t_max: Optional[float] = None
    points: int = 400
    margin: float = 0.02
    histogram_bins: int = 256
    output_dir: str = "out"
    allow_large: bool = False
    full_scale: bool = False  # must be false; kept while perfbench's recorded configs list every field


_CONFIG_KEYS = set(ExperimentConfig.__dataclass_fields__)


def _is_finite_number(v) -> bool:
    """A real, not a bool, within +-sys.float_info.max: NaN and +-inf fail, and so does an int no float holds."""
    big = sys.float_info.max
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and -big <= v <= big


# Accepted values per annotation of an ExperimentConfig field, with how to say so.
_TYPE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "Optional[float]": (lambda v: v is None or _is_finite_number(v), "a finite number or null"),
    "List[float]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite_number, v)),
        "a list of finite numbers",
    ),
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON config file; unknown keys and a missing mode raise ValueError.

    Every value is kept as written, besides a lone finite grid number, which
    becomes a one-point list; validate_config judges the values.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if "mode" not in raw:
        raise ValueError("config is missing required key 'mode'")
    for key in ("gamma", "tau", "epsilon"):  # a lone number is a one-point grid; anything else is left as written
        if _is_finite_number(raw.get(key)):
            raw[key] = [raw[key]]
    return ExperimentConfig(**raw)


def _type_issues(cfg: ExperimentConfig) -> List[str]:
    """Fields whose value does not fit their annotation; bools are not integers, NaN is not a number.

    Integers other than `master_seed`, which may be any int, must fit int64, so no float of them overflows.
    """
    issues = []
    for f in fields(cfg):
        accepts, what = _TYPE_CHECKS[f.type]
        value = getattr(cfg, f.name)
        if not accepts(value):
            issues.append(f"{f.name} must be {what}, got {value!r}")
        elif f.type == "int" and f.name != "master_seed" and not -(2**63) <= value < 2**63:
            issues.append(f"{f.name} must fit a 64-bit signed integer")
    return issues


def _tag_collisions(name: str, key: str, values: Sequence[float]) -> List[str]:
    """Values of one grid list whose artifact tag `_tag(key=value)` repeats an earlier one's.

    Two such grid points would write the same file name, the second over the first.
    """
    first: dict = {}
    issues = []
    for v in values:
        tag = _tag(**{key: v})
        if tag in first:
            issues.append(f"{name} values {first[tag]!r} and {v!r} share the artifact tag {tag!r}")
        else:
            first[tag] = v
    return issues


def _ask(prefix: str, check: Callable, *args, **kwargs) -> List[str]:
    """No issue, or the library's ValueError on config values behind `prefix`."""
    try:
        check(*args, **kwargs)
        return []
    except ValueError as exc:
        return [f"{prefix}{exc}"]


class _Plan(NamedTuple):
    """What a run reads of its config, derived once: the issues (none: runnable), the end t_end of its series
    (the resolved t_max, or t_H in `depth-grid`), per tau the integer steps a channel series records (step 0 and
    the log or linear subset of `points` steps to t_max in `pqc-sff`, every step to one past t_H in `depth-grid`),
    the (tau, eps) walk, tau-major (`depth-grid` walks each tau's eps = 0 first and once), and the `ed-sff` times.
    Every series grid holds at most `_MAX_POINTS` points besides step 0: `points` bounds the times and the
    subsets, and depth-grid's steps are counted against it before they are built."""

    issues: List[str]
    t_end: Optional[float] = None
    steps: Mapping[float, np.ndarray] = MappingProxyType({})
    walk: Sequence[tuple] = ()
    times: Optional[np.ndarray] = None


def validate_config(cfg: ExperimentConfig) -> List[str]:
    """Collect every problem with the config, the issues of the plan that `run` reads; none means runnable."""
    return _plan(cfg).issues


def _plan(cfg: ExperimentConfig) -> _Plan:
    """Check the config, and derive each time scale, walk and series grid its run reads, once.

    The library judges each physical key against its domain (`rmt`: every
    nonzero scale in [1e-30, 1e30], every time in [0, 1e65]), the column
    offset and the CUE side kraus_count*dim in the modes that draw Kraus sets
    once dim and kraus_count have passed, the superoperator side dim**2 in
    `spectrum` and `csr`, the GOE side dim in the other modes that draw H
    once dim has passed, and each step count; the other rules stated here are
    the CLI's own.  In those domains no derived scale or kernel product
    overflows (the bound table in the `rmt` docstring), so the plan asks none
    of them.
    """
    if cfg.mode not in MODES:
        return _Plan([f"mode must be one of {MODES}, got {cfg.mode!r}"])
    issues = _type_issues(cfg)
    if issues:
        return _Plan(issues)
    say = issues.append
    draws_h = cfg.mode != "phase-grid"  # past ed-sff, the modes that draw H draw a Kraus set too
    # the library names each scale as the config does, but calls dim d and kraus_count K
    dim_issues = _ask("dim: ", _check_scales, d=cfg.dim)
    base = dim_issues + _ask("", _check_scales, sigma=cfg.sigma) + _ask("", _check_scales, hbar=cfg.hbar)
    # only ed-sff reads t_min and gamma, and no tau; pqc-sff reads t_max alone, the other modes neither
    taus = [] if cfg.mode == "ed-sff" else [t for t in cfg.tau if t > 0]
    t_max = cfg.t_max if cfg.mode in ("ed-sff", "pqc-sff") and cfg.t_max is not None and cfg.t_max > 0 else None
    # the domains of what the walk and the series grids read: each positive tau, and a positive t_max (one that
    # is not has its own issue below)
    grid_issues = [issue for tau in taus for issue in _ask("", _check_scales, tau=tau)]
    grid_issues += [] if t_max is None else _ask("", _check_times, t_max, "t_max")
    issues += base + grid_issues + _ask("", _check_scales, beta=cfg.beta)
    superop = cfg.mode in ("spectrum", "csr")  # the largest matrix a worker holds: d^2 x d^2 there, else H's d x d
    side = (cfg.dim**2, "the superoperator side d^2") if superop else (cfg.dim, "the GOE side d")
    issues += _ask("dim: ", _check_side, *side) if draws_h and not dim_issues else []
    if cfg.dim > 32 and not cfg.allow_large:
        say(f"dim={cfg.dim} above the desk-scale limit 32 requires allow_large=true")
    if cfg.full_scale:
        say("full_scale must be false: set dim, realizations and allow_large")
    if cfg.realizations < 1:
        say(f"realizations must be >= 1, got {cfg.realizations}")
    if cfg.master_seed < 0:
        say(f"master_seed must be >= 0, got {cfg.master_seed}")
    if not 2 <= cfg.points <= _MAX_POINTS:
        say(f"points must lie in [2, {_MAX_POINTS}], got {cfg.points}")
    if cfg.grid_kind not in ("log", "linear"):
        say(f"grid_kind must be 'log' or 'linear', got {cfg.grid_kind!r}")
    if cfg.channel_form not in ("mixture", "interleaved"):
        say(f"channel_form must be 'mixture' or 'interleaved', got {cfg.channel_form!r}")
    if cfg.margin < 0:
        say(f"margin must be >= 0, got {cfg.margin}")
    if not 8 <= cfg.histogram_bins <= _MAX_HISTOGRAM_BINS:
        say(f"histogram_bins must lie in [8, {_MAX_HISTOGRAM_BINS}], got {cfg.histogram_bins}")
    if cfg.mode == "ed-sff":
        if cfg.t_min <= 0 and cfg.grid_kind == "log":
            say(f"t_min must be > 0 on a log grid, got {cfg.t_min}")
        else:
            issues += _ask("", _check_times, cfg.t_min, "t_min")
        if cfg.t_max is not None and cfg.t_max <= cfg.t_min:
            say(f"t_max={cfg.t_max} must exceed t_min={cfg.t_min}")
        if not cfg.gamma:
            say("ed-sff needs a non-empty gamma list")
        issues += [issue for g in cfg.gamma for issue in _ask("", _check_scales, gammas=[g])]
        issues += _tag_collisions("gamma", "gamma", cfg.gamma)
    else:
        if cfg.mode == "pqc-sff" and cfg.t_max is not None and cfg.t_max <= 0:
            say(f"t_max must be > 0, got {cfg.t_max}")
        k_issues = _ask("kraus_count: ", _check_scales, k=cfg.kraus_count, d=None if dim_issues else cfg.dim)
        issues += k_issues
        if draws_h and not (dim_issues or k_issues):
            issues += _ask("", _check_scales, d=cfg.dim, k=cfg.kraus_count, column_offset=cfg.column_offset)
            issues += _ask("kraus_count*dim: ", _check_side, cfg.kraus_count * cfg.dim, "the CUE side n=K*d")
        if not cfg.tau:
            say(f"{cfg.mode} needs a non-empty tau list")
        if any(t <= 0 for t in cfg.tau):
            say("tau values must be > 0")
        if not cfg.epsilon:
            say(f"{cfg.mode} needs a non-empty epsilon list")
        issues += [issue for eps in cfg.epsilon for issue in _ask("", _check_scales, epsilon=eps)]
        issues += _tag_collisions("tau", "tau", cfg.tau)
        issues += _tag_collisions("epsilon", "eps", cfg.epsilon)
    if base or grid_issues:  # t_H reads dim, sigma and hbar, and the grids read each tau and t_max
        return _Plan(issues)
    eps = [0.0] + [e for e in cfg.epsilon if e != 0.0] if cfg.mode == "depth-grid" else cfg.epsilon
    walk = [(t, e) for t in cfg.tau for e in eps]
    if cfg.mode in ("spectrum", "csr", "phase-grid"):
        return _Plan(issues, walk=walk)
    # the series end at t_max or, where it is null, a multiple of t_H; in depth-grid at t_H
    name, t_end = ("t_H", None) if cfg.mode == "depth-grid" else ("t_max", cfg.t_max)
    if t_end is None:
        t_end = {"ed-sff": 4.0, "pqc-sff": 2.0}.get(cfg.mode, 1.0) * heisenberg_time(cfg.dim, cfg.sigma, cfg.hbar)
        if cfg.mode == "ed-sff" and t_end <= cfg.t_min:
            return _Plan(issues + [f"resolved t_max={t_end} (4 t_H) must exceed t_min={cfg.t_min}"])
    last = {}
    for tau in taus if t_end > 0 else ():  # a t_max <= 0 has its issue
        try:
            n = _steps_to(t_end, tau, name)
        except ValueError as exc:
            say(str(exc))
            continue
        last[tau] = n + 1 if cfg.mode == "depth-grid" else max(1, n)
    issues += [f"tau={tau} records {n + 1} steps to t_H, above the bound of {_MAX_POINTS} points per series"
               for tau, n in last.items() if cfg.mode == "depth-grid" and n >= _MAX_POINTS]
    if issues:  # every grid reads `points`, t_end or a step count
        return _Plan(issues, t_end)
    space = np.linspace if cfg.grid_kind == "linear" else np.geomspace
    if cfg.mode == "ed-sff":
        return _Plan(issues, t_end, times=space(cfg.t_min, t_end, cfg.points))
    steps = {tau: np.arange(n + 1) if cfg.mode == "depth-grid"
             else np.unique(np.concatenate([[0], np.rint(space(1, n, min(cfg.points, n))).astype(int)]))
             for tau, n in last.items()}
    return _Plan(issues, t_end, steps, walk)


# ---------------------------------------------------------------------------
# shared run plumbing


def _hamiltonian(cfg: ExperimentConfig, idx: int):
    return sample_goe(cfg.dim, cfg.sigma, derive_seed(cfg.master_seed, _GOE_STREAM, idx))


def _channel(cfg: ExperimentConfig, base: ParametricChannel, tau: float, eps: float) -> ParametricChannel:
    """The configured channel form at (tau, eps): `base` moved there, which rotates nothing.

    The interleaved product W_eps U_tau is the mixture channel of the Kraus
    set {N_r U_tau} (`interleaved`), so every mode steps it with
    `apply_channel` and writes its matrix with `build_superoperator`.
    """
    ch = replace(base, tau=tau, epsilon=eps)
    return interleaved(ch) if cfg.channel_form == "interleaved" else ch


# The realization worker of this process, set in each pool process by the
# pool's initializer.  Under the fork start method the initializer's arguments
# reach the child with the parent's memory, so neither the closure nor what it
# captures is pickled; tasks carry only the realization index.
_worker: Optional[Callable[[int], object]] = None


def _install_worker(worker: Callable[[int], object]) -> None:
    global _worker
    _worker = worker


def _call_worker(idx: int) -> object:
    return _worker(idx)


def _ensemble_map(
    cfg: ExperimentConfig, worker: Callable[[int], object], workers: int
) -> Iterator[object]:
    """Map `worker` over realization indices, yielding results in index order.

    With workers > 1, min(workers, realizations) forked processes run the
    realizations; only the index goes to a process and only the result comes
    back.  One worker, or a platform without the fork start method, maps
    serially in this process.  The pool is shut down once the results are
    consumed or the consumer stops early.
    """
    indices = range(cfg.realizations)
    workers = min(workers, cfg.realizations)
    if workers > 1:
        import multiprocessing  # slow to import, and only a pool needs it
        from concurrent.futures import ProcessPoolExecutor

        workers = workers if "fork" in multiprocessing.get_all_start_methods() else 1
    if workers <= 1:
        yield from map(worker, indices)
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install_worker,
        initargs=(worker,),
    ) as pool:
        yield from pool.map(_call_worker, indices)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write through a temporary file in the same directory, then rename it over `path`."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _tag(tau: Optional[float] = None, eps: Optional[float] = None, gamma: Optional[float] = None) -> str:
    parts = (("gamma", gamma), ("tau", tau), ("eps", eps))
    return "_".join(f"{name}{value + 0.0:g}" for name, value in parts if value is not None)  # -0.0 + 0.0 is 0.0


# ---------------------------------------------------------------------------
# mode implementations


def _ensemble_means(results: Iterator[list], labels: Sequence[str]) -> List[DiagnosticSeries]:
    """Mean of each series slot over the realizations, one slot per grid-point label.

    `results` yields one list of series per realization, in slot order; they
    are added in realization order, so the means do not depend on the worker
    count.  A non-finite mean, SFF standard error or lower bound raises a
    RuntimeError naming its grid point, before any artifact is written.
    """
    accs = [SeriesAccumulator() for _ in labels]
    for series_list in results:
        for acc, s in zip(accs, series_list):
            acc.add(s)
    means = [acc.finalize() for acc in accs]
    for label, mean in zip(labels, means):
        for name in ("sff", "sff_stderr", "cl1", "purity", "lower_bound"):
            values = getattr(mean, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise RuntimeError(f"{label}: ensemble {name} is not finite")
    return means


def _mean_series(cfg: ExperimentConfig, results: Iterator[list], points: List[tuple]) -> Iterator[tuple]:
    """Average each grid point's series over the realizations; one CSV record per point.

    `results` yields one list of series per realization, in grid order;
    `points` holds each grid point's (artifact tag, label).
    """
    means = _ensemble_means(results, [label for _, label in points])
    for (tag, _), mean in zip(points, means):
        yield f"{cfg.mode}_{tag}.csv", series_to_csv(mean), "series", tag


def _run_ed_sff(cfg: ExperimentConfig, plan: _Plan, workers: int) -> Iterator[tuple]:
    def worker(idx: int):
        return ed_diagnostics(_hamiltonian(cfg, idx), cfg.beta, cfg.gamma, plan.times, cfg.hbar)

    points = [(_tag(gamma=g), f"gamma={g}") for g in cfg.gamma]
    yield from _mean_series(cfg, _ensemble_map(cfg, worker, workers), points)


def _grid_map(cfg: ExperimentConfig, plan: _Plan, workers: int,
              at: Callable[[ParametricChannel, int], object]) -> Iterator[list]:
    """Per realization, in realization order: `at(channel, idx)` at each (tau, eps) of the plan's walk, in order.

    The one realization worker: it draws realization `idx` as the mixture
    channel at the config's first (tau, eps), which holds the pair in the
    eigenbasis of H, and moves it to each point with `_channel`.
    """
    def worker(idx: int) -> list:
        kraus = sample_kraus_set(cfg.dim, cfg.kraus_count, derive_seed(cfg.master_seed, _CUE_STREAM, idx),
                                 column_offset=cfg.column_offset)
        base = ParametricChannel(tau=cfg.tau[0], epsilon=cfg.epsilon[0], hamiltonian=_hamiltonian(cfg, idx),
                                 kraus=kraus, hbar=cfg.hbar)
        return [at(_channel(cfg, base, tau, eps), idx) for tau, eps in plan.walk]

    return _ensemble_map(cfg, worker, workers)


def _run_pqc_sff(cfg: ExperimentConfig, plan: _Plan, workers: int) -> Iterator[tuple]:
    def at(ch: ParametricChannel, idx: int) -> DiagnosticSeries:
        steps = plan.steps[ch.tau]
        return channel_diagnostics(ch, cfg.beta, int(steps[-1]), record_steps=steps)

    points = [(_tag(tau=t, eps=e), f"tau={t}, eps={e}") for t, e in plan.walk]
    yield from _mean_series(cfg, _grid_map(cfg, plan, workers, at), points)


def _spectra(cfg: ExperimentConfig, plan: _Plan, workers: int) -> List[tuple]:
    """Per point of the plan's walk, the eigenvalue cloud of every realization."""
    def at(ch: ParametricChannel, idx: int) -> np.ndarray:
        return eigenvalues(build_superoperator(ch), context=f"tau={ch.tau}, eps={ch.epsilon}, realization={idx}")

    return list(zip(*_grid_map(cfg, plan, workers, at)))


def _run_spectrum(cfg: ExperimentConfig, plan: _Plan, workers: int) -> Iterator[tuple]:
    summary = []
    for (tau, eps), clouds in zip(plan.walk, _spectra(cfg, plan, workers)):
        tag = _tag(tau=tau, eps=eps)
        bulks, fixed = zip(*map(split_bulk, clouds))
        pooled = np.concatenate(bulks)
        phase, boundary, frac = audit_bulk(
            pooled, tau, eps, cfg.kraus_count, cfg.dim, cfg.sigma, cfg.hbar, cfg.margin
        )
        cloud = np.concatenate([np.append(b, f) for b, f in zip(bulks, fixed)])
        is_fixed = np.concatenate([np.append(np.zeros(b.size, int), 1) for b in bulks])
        realization = np.concatenate([np.full(b.size + 1, r) for r, b in enumerate(bulks)])
        yield (f"spectrum_{tag}.csv",
               columns_to_csv(("re", "im", "is_fixed_point", "realization"),
                              (cloud.real, cloud.imag, is_fixed, realization),
                              labels=("is_fixed_point", "realization")),
               "cloud", tag)
        curve = np.concatenate(boundary.curves)
        curve_index = np.concatenate([np.full(len(c), k) for k, c in enumerate(boundary.curves)])
        yield (f"boundary_{tag}.csv",
               columns_to_csv(("re", "im", "curve"), (curve.real, curve.imag, curve_index), labels=("curve",)),
               "boundary", tag)
        yield f"spectrum_{tag}.hist.json", json.dumps(density_grid(pooled, bins=cfg.histogram_bins)), "histogram", tag
        summary.append((
            tau, eps, phase, frac, cfg.margin, boundary.outer, np.nan if boundary.inner is None else boundary.inner,
            boundary.center.real, boundary.outer if phase == "shifted-disk" else np.nan, pooled.size,
        ))
    header = ("tau", "epsilon", "phase", "containment", "margin", "outer", "inner", "center",
              "radius", "n_eigenvalues")
    text = columns_to_csv(header, zip(*summary), labels=("phase", "n_eigenvalues"))
    yield "spectrum_summary.csv", text, "summary", "summary"


def _run_csr(cfg: ExperimentConfig, plan: _Plan, workers: int) -> Iterator[tuple]:
    summary = []
    for (tau, eps), clouds in zip(plan.walk, _spectra(cfg, plan, workers)):
        tag = _tag(tau=tau, eps=eps)
        ratios = np.concatenate([complex_spacing_ratios(ev).ratios for ev in clouds])
        text = columns_to_csv(("re", "im"), (ratios.real, ratios.imag))
        yield f"csr_{tag}.csv", text, "ratios", tag
        yield f"csr_{tag}.hist.json", json.dumps(density_grid(ratios, bins=cfg.histogram_bins)), "histogram", tag
        n = ratios.size
        p_flat = 0.05**2  # uniform-on-the-disk mass of |z| <= 0.05
        count = int(np.sum(np.abs(ratios) <= 0.05))
        mu, sd = n * p_flat, math.sqrt(n * p_flat * (1 - p_flat))
        z_score = (mu - count) / sd
        summary.append((tau, eps, n, count / n, p_flat, z_score))
    header = ("tau", "epsilon", "n_ratios", "frac_below_0.05", "flat_expectation", "depletion_zscore")
    text = columns_to_csv(header, zip(*summary), labels=("n_ratios",))
    yield "csr_summary.csv", text, "summary", "summary"


def _run_phase_grid(cfg: ExperimentConfig, plan: _Plan, workers: int) -> Iterator[tuple]:
    rows = []
    for tau, eps in plan.walk:
        phase = classify_phase(eps, tau, cfg.kraus_count, cfg.dim, cfg.sigma, cfg.hbar)
        outer, inner = annular_boundaries(eps, cfg.kraus_count)
        center, radius = shifted_disk_boundary(eps, cfg.kraus_count)
        rows.append((
            tau, eps, phase, outer, inner if inner is not None else np.nan, center, radius,
            phi_max(tau, cfg.dim, cfg.sigma, cfg.hbar),
        ))
    header = ("tau", "epsilon", "phase", "outer", "inner", "center", "radius", "phi_max")
    text = columns_to_csv(header, zip(*rows), labels=("phase",))
    yield "phase_grid.csv", text, "grid", "phase-grid"


def _run_depth_grid(cfg: ExperimentConfig, plan: _Plan, workers: int) -> Iterator[tuple]:
    """Relative hole depth on the (tau, eps) grid, window fixed per tau from eps = 0.

    Each tau's eps = 0 point is walked first and once, listed or not: the
    isolated reference, the gamma = 0 closed form on the same step grid
    (identical to the eps = 0 channel), averaged over the same Hamiltonian
    ensemble.  Its smoothed minimum fixes the Thouless step and the depth
    window for every eps at that tau, and an eps = 0 row reads it.
    """
    def at(ch: ParametricChannel, idx: int) -> DiagnosticSeries:
        steps = plan.steps[ch.tau]
        if ch.epsilon == 0.0:
            return ed_diagnostics(ch.hamiltonian, cfg.beta, [0.0], steps * ch.tau, cfg.hbar)[0]
        return channel_diagnostics(ch, cfg.beta, int(steps[-1]), record_steps=steps)

    labels = [f"isolated reference at tau={t}" if e == 0.0 else f"tau={t}, eps={e}" for t, e in plan.walk]
    means = dict(zip(plan.walk, _ensemble_means(_grid_map(cfg, plan, workers, at), labels)))
    table = []
    for tau in cfg.tau:
        t_th = estimate_thouless(means[tau, 0.0], plan.t_end)
        d_iso = effective_depth(means[tau, 0.0], t_th, plan.t_end, tau)
        for eps in cfg.epsilon:
            depth = effective_depth(means[tau, eps], t_th, plan.t_end, tau)
            table.append((tau, eps, depth, d_iso, depth / d_iso if d_iso > 0 else np.nan, t_th, plan.t_end))
    header = ("tau", "epsilon", "depth", "isolated_depth", "relative_depth", "t_thouless", "t_heisenberg")
    yield "depth_grid.csv", columns_to_csv(header, zip(*table)), "grid", "depth-grid"


_RUNNERS = {
    "ed-sff": _run_ed_sff,
    "pqc-sff": _run_pqc_sff,
    "spectrum": _run_spectrum,
    "csr": _run_csr,
    "phase-grid": _run_phase_grid,
    "depth-grid": _run_depth_grid,
}
MODES = tuple(_RUNNERS)


# The (set, get) thread-count functions of OpenBLAS: scipy-openblas64 (numpy's wheels), scipy-openblas32, plain.
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_threads() -> Optional[tuple]:
    """The (set, get) thread-count functions of the OpenBLAS numpy loaded, or None where none is found.

    Looked up on first use, not at import: the copy in numpy's wheel (`numpy.libs`) first, then, where there is
    none, the system library `ctypes.util.find_library` names.
    """
    import ctypes.util
    import glob

    wheel = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in wheel or filter(None, [ctypes.util.find_library("openblas")]):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_THREADS:
            if all(hasattr(lib, name) for name in names):
                return tuple(getattr(lib, name) for name in names)
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold OpenBLAS at one thread inside the block and restore its count after; a forked worker inherits it.

    One thread per process: forked workers do not oversubscribe the cores, and no result depends on how OpenBLAS
    splits a product across threads.  Without OpenBLAS this does nothing.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    old = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(old)


def run(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Plan the config (ValueError if it has issues), run its mode on the plan with OpenBLAS at one thread, and
    return the manifest written next to the artifacts."""
    plan = _plan(cfg)
    if plan.issues:
        raise ValueError("invalid config: " + "; ".join(plan.issues))
    return _run(cfg, plan, workers)


def _run(cfg: ExperimentConfig, plan: _Plan, workers: int) -> dict:
    """Run a config on its plan, which has no issues, and write each artifact its mode yields, in order, with its
    manifest entry.  Once the mode has yielded every artifact, the manifest lists the config's grid points, each
    with status "ok"; a failed run lists no grid point, its error and the artifacts written before it failed."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": __version__,
        "mode": cfg.mode,
        "config": asdict(cfg),
        "seeds": {
            "master": cfg.master_seed,
            "hamiltonian_stream": _GOE_STREAM,
            "environment_stream": _CUE_STREAM,
        },
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "artifacts": [],
        "grid": [],
        "errors": [],
    }
    t0 = time.perf_counter()
    try:
        with _one_blas_thread():  # the runners are lazy: their computation runs inside this loop
            for name, text, kind, label in _RUNNERS[cfg.mode](cfg, plan, workers):
                data = text.encode()
                _atomic_write(out / name, data)
                manifest["artifacts"].append({"path": name, "kind": kind, "label": label,
                                              "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
        manifest["grid"] = ([{"gamma": g, "status": "ok"} for g in cfg.gamma] if cfg.mode == "ed-sff" else
                            [{"tau": t, "epsilon": e, "status": "ok"} for t in cfg.tau for e in cfg.epsilon])
    except Exception as exc:  # record, then re-raise after writing the manifest
        manifest["errors"].append(str(exc))
        raise
    finally:
        manifest["wall_seconds"] = time.perf_counter() - t0
        manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        _atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, default=float).encode())
    return manifest


# ---------------------------------------------------------------------------
# gnuplot script emission


_CLOUD = "unset logscale\nset size ratio -1\nset xlabel 'Re'\nset ylabel 'Im'\n"
# The settings and plot command of each plotted kind, and of a grid table by (kind, label); {boundary} draws the
# boundary curve listed under the artifact's label, if any.
_PLOTS = {
    "series": "set logscale xy\nset xlabel 't'\nset ylabel 'SFF'\n"
              "plot '{path}' every ::1 using 1:2 with lines lw 2 title 'SFF', \\\n"
              "     '{path}' every ::1 using 1:6 with lines dashtype 2 title 'lower bound', \\\n"
              "     '{path}' every ::1 using 1:7 with lines dashtype 3 title 'upper bound'",
    "cloud": _CLOUD + "plot '{path}' every ::1 using 1:2 with dots title 'spectrum'{boundary}",
    "ratios": _CLOUD + "plot '{path}' every ::1 using 1:2 with dots title 'ratios'{boundary}",
    ("grid", "depth-grid"): "set logscale x\nset xlabel 'tau'\nset ylabel 'relative depth'\n"
                            "plot '{path}' every ::1 using 1:5 with points pt 7 title 'D/D_0'",
    ("grid", "phase-grid"): "set logscale x\nset xlabel 'tau'\nset ylabel 'epsilon'\n"
                            "plot '{path}' every ::1 using 1:2 with points pt 5 title 'grid'",
}


def emit_gnuplot_script(manifest: dict) -> str:
    """Gnuplot commands that render a run's artifacts next to the manifest.

    Only the artifacts the manifest lists are plotted, each into the PNG named
    by its path with the '.csv' suffix swapped for '.png': the series, then
    the clouds and the ratio clouds, each with the boundary of its label, then
    the grid tables, each drawn by its label ('depth-grid', 'phase-grid').
    Raises ValueError unless the manifest is an object with an 'artifacts'
    list of entries that each carry a string path, kind and label, each path
    a bare name of the characters `run` writes, [A-Za-z0-9._+-] (a quote or a
    separator would end the quoted gnuplot string and open a command), and
    each plotted path a '.csv' table (any other name would be written over by
    its own plot).
    """
    artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(artifacts, list):
        raise ValueError("manifest must be a JSON object with an 'artifacts' list")
    for i, art in enumerate(artifacts):
        if not isinstance(art, dict) or not all(isinstance(art.get(k), str) for k in ("path", "kind", "label")):
            raise ValueError(f"manifest artifact {i} needs string 'path', 'kind' and 'label'")
        if not re.fullmatch(r"[A-Za-z0-9._+-]+", art["path"]):
            raise ValueError(f"manifest artifact {i} path {art['path']!r} is not a bare artifact name")
        if art["kind"] in ("series", "cloud", "ratios", "boundary", "grid") and not art["path"].endswith(".csv"):
            raise ValueError(f"manifest artifact {i} path {art['path']!r} is not a .csv table")
    lines = [
        "# generated by openchaos plot-script",
        "set datafile separator ','",
        "set terminal pngcairo size 900,650",
    ]
    boundaries = {a["label"]: f", \\\n     '{a['path']}' every ::1 using 1:2 with lines lc 'black' title 'boundary'"
                  for a in artifacts if a["kind"] == "boundary"}
    for kind in ("series", "cloud", "ratios", "grid"):
        for art in artifacts:
            plot = _PLOTS.get((kind, art["label"]) if kind == "grid" else kind)
            if art["kind"] == kind and plot is not None:
                lines += [f"set output '{art['path'].removesuffix('.csv')}.png'",
                          plot.format(path=art["path"], boundary=boundaries.get(art["label"], ""))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _worker_count(text: str) -> int:
    """A --workers value: an integer >= 1; argparse turns anything else into a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="openchaos",
        description="Seeded random-matrix experiments: dephasing and channel diagnostics, "
        "superoperator spectra, spacing ratios and hole depths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config and write CSV artifacts + manifest")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument(
        "--workers", type=_worker_count, default=1,
        help="parallel workers over realizations: forked processes, at most one per "
        "realization (serial where fork is unavailable); the output is byte-identical "
        "for any value",
    )
    p_run.add_argument("--output-dir", default=None, help="override the config output_dir")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to a JSON config file")

    p_plot = sub.add_parser("plot-script", help="emit a gnuplot script for a finished run")
    p_plot.add_argument("manifest", help="path to a run's manifest.json")
    p_plot.add_argument("-o", "--output", default=None, help="write the script here instead of stdout")

    args = parser.parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError, TypeError, json.JSONDecodeError, RecursionError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        if args.command == "run" and args.output_dir:
            cfg.output_dir = args.output_dir
        plan = _plan(cfg)
        for issue in plan.issues:
            print(f"config error: {issue}", file=sys.stderr)
        if plan.issues:
            return 1
        if args.command == "validate":
            print("config ok")
            return 0
        try:
            manifest = _run(cfg, plan, args.workers)
        except Exception as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(manifest['artifacts'])} artifacts to {cfg.output_dir}")
        return 0

    # plot-script
    try:
        script = emit_gnuplot_script(json.loads(Path(args.manifest).read_text()))
        if args.output:
            Path(args.output).write_text(script)
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
        print(f"config error: manifest is not valid JSON: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if not args.output:
        print(script, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
