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
alone.  Each realization is one job: the Hamiltonian and the Kraus set are
drawn, the Kraus set is rotated into the eigenbasis of H once, and every grid
point reuses that pair.  With --workers N > 1 the jobs run in N forked worker
processes (serially where the platform cannot fork); workers only change
scheduling, because results are reduced in realization order, so the emitted
CSV numbers are byte-identical for any --workers value.

Each run writes its artifacts plus a manifest.json recording the config, the
package version, wall times, per-grid-point status and a sha256 per artifact.
Exit codes: 0 success, 1 config validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import numbers
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence

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
from .pqc import ParametricChannel, build_superoperator, in_eigenbasis, interleaved
from .rmt import _check_scales, critical_tau, derive_seed, heisenberg_time, sample_goe, sample_kraus_set
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
# list, and `ed-sff` holds 4 * |gamma| * points doubles.
_MAX_HISTOGRAM_BINS = 4096
_MAX_POINTS = 10**6

# Full-scale realization counts, enabled by the "full_scale" config key.
_FULL_SCALE_REALIZATIONS = {
    "ed-sff": 500,
    "pqc-sff": 500,
    "spectrum": 4,
    "csr": 4,
    "depth-grid": 100,
    "phase-grid": 1,
}


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
    full_scale: bool = False

    def resolved_t_max(self) -> float:
        if self.t_max is not None:
            return self.t_max
        factor = 4.0 if self.mode == "ed-sff" else 2.0
        return factor * heisenberg_time(self.dim, self.sigma, self.hbar)


_CONFIG_KEYS = set(ExperimentConfig.__dataclass_fields__)


def _is_finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


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

    `"full_scale": true` raises dim and the ensemble sizes; a config with
    mistyped fields is left as it is for validate_config to reject.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if "mode" not in raw:
        raise ValueError("config is missing required key 'mode'")
    for key in ("gamma", "tau", "epsilon"):
        if key in raw and not isinstance(raw[key], list):
            raw[key] = [raw[key]]
    cfg = ExperimentConfig(**raw)
    if cfg.full_scale is True and not _type_issues(cfg):
        cfg.dim = max(cfg.dim, 64)
        cfg.realizations = _FULL_SCALE_REALIZATIONS.get(cfg.mode, cfg.realizations)
        cfg.allow_large = True
    return cfg


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


def validate_config(cfg: ExperimentConfig) -> List[str]:
    """Collect every problem with the config; an empty list means runnable.

    The library judges each physical key, the column offset once dim and
    kraus_count have passed and, in the modes that read them, each derived
    scale and each step count; the rules stated here are the CLI's own.
    """
    if cfg.mode not in MODES:
        return [f"mode must be one of {MODES}, got {cfg.mode!r}"]
    issues = _type_issues(cfg)
    if issues:
        return issues
    say = issues.append
    # the library names each scale as the config does, but calls dim d and kraus_count K
    dim_issues = _ask("dim: ", _check_scales, d=cfg.dim)
    base = dim_issues + _ask("", _check_scales, sigma=cfg.sigma) + _ask("", _check_scales, hbar=cfg.hbar)
    issues += base + _ask("", _check_scales, beta=cfg.beta)
    if cfg.dim > 32 and not cfg.allow_large:
        say(f"dim={cfg.dim} above the desk-scale limit 32 requires allow_large=true")
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
    # only ed-sff reads t_min; pqc-sff reads t_max alone, the other modes neither
    if cfg.mode == "ed-sff":
        if cfg.t_min <= 0 and cfg.grid_kind == "log":
            say(f"t_min must be > 0 on a log grid, got {cfg.t_min}")
        elif cfg.t_min < 0:
            say(f"t_min must be >= 0, got {cfg.t_min}")
        if cfg.t_max is not None and cfg.t_max <= cfg.t_min:
            say(f"t_max={cfg.t_max} must exceed t_min={cfg.t_min}")
        if not cfg.gamma:
            say("ed-sff needs a non-empty gamma list")
        issues += _ask("", _check_scales, gammas=cfg.gamma)
        issues += _tag_collisions("gamma", "gamma", cfg.gamma)
    else:
        if cfg.mode == "pqc-sff" and cfg.t_max is not None and cfg.t_max <= 0:
            say(f"t_max must be > 0, got {cfg.t_max}")
        k_issues = _ask("kraus_count: ", _check_scales, k=cfg.kraus_count, d=None if dim_issues else cfg.dim)
        issues += k_issues
        if not (dim_issues or k_issues):
            issues += _ask("", _check_scales, d=cfg.dim, k=cfg.kraus_count, column_offset=cfg.column_offset)
        if not cfg.tau:
            say(f"{cfg.mode} needs a non-empty tau list")
        if any(t <= 0 for t in cfg.tau):
            say("tau values must be > 0")
        if not cfg.epsilon:
            say(f"{cfg.mode} needs a non-empty epsilon list")
        issues += [issue for eps in cfg.epsilon for issue in _ask("", _check_scales, epsilon=eps)]
        issues += _tag_collisions("tau", "tau", cfg.tau)
        issues += _tag_collisions("epsilon", "eps", cfg.epsilon)
    if base or cfg.mode == "csr":  # csr reads no derived scale; the others read dim, sigma and hbar
        return issues
    if cfg.mode in ("spectrum", "phase-grid"):  # `classify_phase` reads tau_c and phi_max
        return issues + _ask("", critical_tau, cfg.dim, cfg.sigma, cfg.hbar) + [
            issue for tau in cfg.tau if tau > 0
            for issue in _ask(f"tau={tau} makes ", phi_max, tau, cfg.dim, cfg.sigma, cfg.hbar)]
    t_h = []
    if cfg.mode == "depth-grid" or cfg.t_max is None:
        t_h = _ask("", heisenberg_time, cfg.dim, cfg.sigma, cfg.hbar)
    return issues + (t_h or _time_scale_issues(cfg))


def _time_scale_issues(cfg: ExperimentConfig) -> List[str]:
    """A resolved t_max that is inf or (`ed-sff`) not above t_min, an inf gamma*t_max, or
    a step count to t_max (`pqc-sff`) or t_H (`depth-grid`) that `_steps_to` rejects."""
    if cfg.mode == "depth-grid":
        t_end, name = heisenberg_time(cfg.dim, cfg.sigma, cfg.hbar), "t_H"
    else:
        t_end, name = cfg.resolved_t_max(), "t_max"
        if cfg.t_max is None and not math.isfinite(t_end):
            return [f"resolved t_max={t_end} (a multiple of t_H) from sigma={cfg.sigma} is not finite"]
        if cfg.t_max is None and cfg.mode == "ed-sff" and t_end <= cfg.t_min:
            return [f"resolved t_max={t_end} (4 t_H) must exceed t_min={cfg.t_min}"]
    if cfg.mode == "ed-sff":
        return [f"gamma={g} times t_max={t_end} is not finite" for g in cfg.gamma if not math.isfinite(g * t_end)]
    if t_end < 0:  # the pqc-sff rule on t_max has said so
        return []
    return [issue for tau in cfg.tau if tau > 0 for issue in _ask("", _steps_to, t_end, tau, name)]


# ---------------------------------------------------------------------------
# shared run plumbing


def _hamiltonian(cfg: ExperimentConfig, idx: int):
    return sample_goe(cfg.dim, cfg.sigma, derive_seed(cfg.master_seed, _GOE_STREAM, idx))


def _realization(cfg: ExperimentConfig, idx: int):
    """Hamiltonian and Kraus set of realization `idx`, both in the eigenbasis of H."""
    h = _hamiltonian(cfg, idx)
    kraus = sample_kraus_set(
        cfg.dim,
        cfg.kraus_count,
        derive_seed(cfg.master_seed, _CUE_STREAM, idx),
        column_offset=cfg.column_offset,
    )
    return in_eigenbasis(h, kraus)


def _channel(cfg: ExperimentConfig, h, kraus, tau: float, eps: float) -> ParametricChannel:
    """The configured channel form at (tau, eps).

    The interleaved product W_eps U_tau is the mixture channel of the Kraus
    set {N_r U_tau} (`interleaved`), so every mode steps it with
    `apply_channel` and writes its matrix with `build_superoperator`.
    """
    ch = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=kraus, hbar=cfg.hbar)
    return interleaved(ch) if cfg.channel_form == "interleaved" else ch


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    space = np.linspace if cfg.grid_kind == "linear" else np.geomspace
    return space(cfg.t_min, cfg.resolved_t_max(), cfg.points)


def _record_steps(cfg: ExperimentConfig, steps: int) -> np.ndarray:
    """Log-spaced (or linear) subset of integer steps, always including 0."""
    space = np.linspace if cfg.grid_kind == "linear" else np.geomspace
    j = np.rint(space(1, steps, min(cfg.points, steps))).astype(int)
    return np.unique(np.concatenate([[0], j]))


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
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
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


def _write(path: Path, text: str, manifest: dict, kind: str, label: str) -> None:
    data = text.encode()
    _atomic_write(path, data)
    manifest["artifacts"].append(
        {"path": path.name, "kind": kind, "label": label,
         "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    )


def _tag(tau: Optional[float] = None, eps: Optional[float] = None, gamma: Optional[float] = None) -> str:
    parts = []
    if gamma is not None:
        parts.append(f"gamma{gamma:g}")
    if tau is not None:
        parts.append(f"tau{tau:g}")
    if eps is not None:
        parts.append(f"eps{eps:g}")
    return "_".join(parts)


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


def _write_ensemble_means(
    results: Iterator[list], points: List[tuple], out: Path, manifest: dict
) -> None:
    """Average each grid point's series over the realizations; write one CSV per point.

    `results` yields one list of series per realization, in grid order;
    `points` holds each grid point's (artifact tag, label, manifest parameters).
    """
    means = _ensemble_means(results, [label for _, label, _ in points])
    for (tag, _, params), mean in zip(points, means):
        _write(out / f"{manifest['mode']}_{tag}.csv", series_to_csv(mean), manifest, "series", tag)
        manifest["grid"].append({**params, "status": "ok", "n": mean.n_realizations})


def _run_ed_sff(cfg: ExperimentConfig, out: Path, manifest: dict, workers: int) -> None:
    times = _time_grid(cfg)

    def worker(idx: int):
        return ed_diagnostics(_hamiltonian(cfg, idx), cfg.beta, cfg.gamma, times, cfg.hbar)

    points = [(_tag(gamma=g), f"gamma={g}", {"gamma": g}) for g in cfg.gamma]
    _write_ensemble_means(_ensemble_map(cfg, worker, workers), points, out, manifest)


def _run_pqc_sff(cfg: ExperimentConfig, out: Path, manifest: dict, workers: int) -> None:
    grid = [(t, e) for t in cfg.tau for e in cfg.epsilon]
    t_max = cfg.resolved_t_max()
    record = {t: _record_steps(cfg, max(1, _steps_to(t_max, t, "t_max"))) for t in cfg.tau}

    def worker(idx: int):
        h, kraus = _realization(cfg, idx)
        out_series = []
        for tau, eps in grid:
            ch = _channel(cfg, h, kraus, tau, eps)
            out_series.append(
                channel_diagnostics(ch, cfg.beta, int(record[tau][-1]), record_steps=record[tau])
            )
        return out_series

    points = [(_tag(tau=t, eps=e), f"tau={t}, eps={e}", {"tau": t, "epsilon": e}) for t, e in grid]
    _write_ensemble_means(_ensemble_map(cfg, worker, workers), points, out, manifest)


def _spectra(cfg: ExperimentConfig, workers: int):
    """Grid points and, per point, the eigenvalue cloud of every realization."""
    grid = [(t, e) for t in cfg.tau for e in cfg.epsilon]

    def worker(idx: int):
        h, kraus = _realization(cfg, idx)
        return [
            eigenvalues(
                build_superoperator(_channel(cfg, h, kraus, tau, eps)),
                context=f"tau={tau}, eps={eps}, realization={idx}",
            )
            for tau, eps in grid
        ]

    return grid, list(zip(*_ensemble_map(cfg, worker, workers)))


def _run_spectrum(cfg: ExperimentConfig, out: Path, manifest: dict, workers: int) -> None:
    grid, per_point = _spectra(cfg, workers)
    summary = []
    for (tau, eps), clouds in zip(grid, per_point):
        tag = _tag(tau=tau, eps=eps)
        bulks, fixed = zip(*map(split_bulk, clouds))
        pooled = np.concatenate(bulks)
        phase, boundary, frac = audit_bulk(
            pooled, tau, eps, cfg.kraus_count, cfg.dim, cfg.sigma, cfg.hbar, cfg.margin
        )
        cloud = np.concatenate([np.append(b, f) for b, f in zip(bulks, fixed)])
        is_fixed = np.concatenate([np.append(np.zeros(b.size, int), 1) for b in bulks])
        realization = np.concatenate([np.full(b.size + 1, r) for r, b in enumerate(bulks)])
        _write(
            out / f"spectrum_{tag}.csv",
            columns_to_csv(("re", "im", "is_fixed_point", "realization"),
                           (cloud.real, cloud.imag, is_fixed, realization),
                           labels=("is_fixed_point", "realization")),
            manifest, "cloud", tag,
        )
        curve = np.concatenate(boundary.curves)
        curve_index = np.concatenate([np.full(len(c), k) for k, c in enumerate(boundary.curves)])
        _write(
            out / f"boundary_{tag}.csv",
            columns_to_csv(("re", "im", "curve"), (curve.real, curve.imag, curve_index), labels=("curve",)),
            manifest, "boundary", tag,
        )
        _write(
            out / f"spectrum_{tag}.hist.json",
            json.dumps(density_grid(pooled, bins=cfg.histogram_bins)),
            manifest, "histogram", tag,
        )
        shifted = boundary.kind == "shifted-disk"
        summary.append((
            tau, eps, phase, frac, cfg.margin, boundary.outer or np.nan,
            boundary.inner if boundary.inner is not None else np.nan,
            boundary.center.real if shifted else 0.0,
            (boundary.outer or np.nan) if shifted else np.nan,
            pooled.size,
        ))
        manifest["grid"].append(
            {"tau": tau, "epsilon": eps, "status": "ok", "phase": phase, "containment": frac}
        )
    header = ("tau", "epsilon", "phase", "containment", "margin", "outer", "inner", "center",
              "radius", "n_eigenvalues")
    text = columns_to_csv(header, zip(*summary), labels=("phase", "n_eigenvalues"))
    _write(out / "spectrum_summary.csv", text, manifest, "summary", "summary")


def _run_csr(cfg: ExperimentConfig, out: Path, manifest: dict, workers: int) -> None:
    grid, per_point = _spectra(cfg, workers)
    summary = []
    for (tau, eps), clouds in zip(grid, per_point):
        tag = _tag(tau=tau, eps=eps)
        ratios = np.concatenate([complex_spacing_ratios(ev).ratios for ev in clouds])
        text = columns_to_csv(("re", "im"), (ratios.real, ratios.imag))
        _write(out / f"csr_{tag}.csv", text, manifest, "ratios", tag)
        _write(
            out / f"csr_{tag}.hist.json",
            json.dumps(density_grid(ratios, bins=cfg.histogram_bins)),
            manifest, "histogram", tag,
        )
        n = ratios.size
        p_flat = 0.05**2  # uniform-on-the-disk mass of |z| <= 0.05
        count = int(np.sum(np.abs(ratios) <= 0.05))
        mu, sd = n * p_flat, math.sqrt(n * p_flat * (1 - p_flat))
        z_score = (mu - count) / sd
        summary.append((tau, eps, n, count / n, p_flat, z_score))
        manifest["grid"].append(
            {"tau": tau, "epsilon": eps, "status": "ok", "n_ratios": n, "depletion_zscore": z_score}
        )
    header = ("tau", "epsilon", "n_ratios", "frac_below_0.05", "flat_expectation", "depletion_zscore")
    text = columns_to_csv(header, zip(*summary), labels=("n_ratios",))
    _write(out / "csr_summary.csv", text, manifest, "summary", "summary")


def _run_phase_grid(cfg: ExperimentConfig, out: Path, manifest: dict, workers: int) -> None:
    rows = []
    for tau in cfg.tau:
        for eps in cfg.epsilon:
            phase = classify_phase(eps, tau, cfg.kraus_count, cfg.dim, cfg.sigma, cfg.hbar)
            outer, inner = annular_boundaries(eps, cfg.kraus_count)
            center, radius = shifted_disk_boundary(eps, cfg.kraus_count)
            rows.append((
                tau, eps, phase, outer, inner if inner is not None else np.nan, center, radius,
                phi_max(tau, cfg.dim, cfg.sigma, cfg.hbar),
            ))
            manifest["grid"].append({"tau": tau, "epsilon": eps, "status": "ok", "phase": phase})
    header = ("tau", "epsilon", "phase", "outer", "inner", "center", "radius", "phi_max")
    text = columns_to_csv(header, zip(*rows), labels=("phase",))
    _write(out / "phase_grid.csv", text, manifest, "grid", "phase-grid")


def _run_depth_grid(cfg: ExperimentConfig, out: Path, manifest: dict, workers: int) -> None:
    """Relative hole depth on the (tau, eps) grid, window fixed per tau from eps = 0.

    The isolated reference is the gamma = 0 closed form evaluated on the same
    step grid (identical to the eps = 0 channel), averaged over the same
    Hamiltonian ensemble; its smoothed minimum fixes the Thouless step and
    the depth window for every eps at that tau.
    """
    t_h = heisenberg_time(cfg.dim, cfg.sigma, cfg.hbar)
    taus = list(cfg.tau)
    j_max = {t: _steps_to(t_h, t, "t_H") + 1 for t in taus}

    def worker(idx: int):
        """Per tau: the isolated series, then one series per eps."""
        h, kraus = _realization(cfg, idx)
        out_series = []
        for tau in taus:
            times = np.arange(j_max[tau] + 1) * tau
            (iso,) = ed_diagnostics(h, cfg.beta, [0.0], times, cfg.hbar)
            out_series.append(iso)
            for eps in cfg.epsilon:
                if eps == 0.0:
                    out_series.append(iso)
                else:
                    ch = _channel(cfg, h, kraus, tau, eps)
                    out_series.append(channel_diagnostics(ch, cfg.beta, j_max[tau]))
        return out_series

    width = 1 + len(cfg.epsilon)
    labels = []
    for tau in taus:
        labels += [f"isolated reference at tau={tau}"] + [f"tau={tau}, eps={e}" for e in cfg.epsilon]
    means = _ensemble_means(_ensemble_map(cfg, worker, workers), labels)
    table = []
    for i, tau in enumerate(taus):
        iso_mean, *eps_means = means[i * width:(i + 1) * width]
        t_th = estimate_thouless(iso_mean, t_h)
        d_iso = effective_depth(iso_mean, t_th, t_h, tau)
        for eps, mean in zip(cfg.epsilon, eps_means):
            depth = effective_depth(mean, t_th, t_h, tau)
            rel = depth / d_iso if d_iso > 0 else np.nan
            table.append((tau, eps, depth, d_iso, rel, t_th, t_h))
            # JSON has no NaN, so the manifest records a non-finite ratio as null
            manifest["grid"].append({"tau": tau, "epsilon": eps, "status": "ok",
                                     "relative_depth": rel if np.isfinite(rel) else None})
    header = ("tau", "epsilon", "depth", "isolated_depth", "relative_depth", "t_thouless", "t_heisenberg")
    _write(out / "depth_grid.csv", columns_to_csv(header, zip(*table)), manifest, "grid", "depth-grid")


_RUNNERS = {
    "ed-sff": _run_ed_sff,
    "pqc-sff": _run_pqc_sff,
    "spectrum": _run_spectrum,
    "csr": _run_csr,
    "phase-grid": _run_phase_grid,
    "depth-grid": _run_depth_grid,
}
MODES = tuple(_RUNNERS)


def run(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Execute a validated config; returns the manifest written next to the artifacts."""
    issues = validate_config(cfg)
    if issues:
        raise ValueError("invalid config: " + "; ".join(issues))
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
        _RUNNERS[cfg.mode](cfg, out, manifest, workers)
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


def emit_gnuplot_script(manifest: dict) -> str:
    """Gnuplot commands that render a run's artifacts next to the manifest.

    Raises ValueError unless the manifest is an object with an 'artifacts'
    list of entries that each carry a string path, kind and label, each path a
    bare name of the characters `run` writes, [A-Za-z0-9._+-]: a quote or a
    separator would end the quoted gnuplot string and open a command.
    """
    artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(artifacts, list):
        raise ValueError("manifest must be a JSON object with an 'artifacts' list")
    for i, art in enumerate(artifacts):
        if not isinstance(art, dict) or not all(isinstance(art.get(k), str) for k in ("path", "kind", "label")):
            raise ValueError(f"manifest artifact {i} needs string 'path', 'kind' and 'label'")
        if not re.fullmatch(r"[A-Za-z0-9._+-]+", art["path"]):
            raise ValueError(f"manifest artifact {i} path {art['path']!r} is not a bare artifact name")
    mode = manifest.get("mode", "")
    lines = [
        "# generated by openchaos plot-script",
        "set datafile separator ','",
        "set terminal pngcairo size 900,650",
    ]
    series = [a for a in artifacts if a["kind"] == "series"]
    clouds = [a for a in artifacts if a["kind"] == "cloud"]
    ratios = [a for a in artifacts if a["kind"] == "ratios"]
    boundaries = {a["label"]: a for a in artifacts if a["kind"] == "boundary"}
    for art in series:
        png = art["path"].replace(".csv", ".png")
        lines += [
            f"set output '{png}'",
            "set logscale xy",
            "set xlabel 't'",
            "set ylabel 'SFF'",
            f"plot '{art['path']}' every ::1 using 1:2 with lines lw 2 title 'SFF', \\",
            f"     '{art['path']}' every ::1 using 1:6 with lines dashtype 2 title 'lower bound', \\",
            f"     '{art['path']}' every ::1 using 1:7 with lines dashtype 3 title 'upper bound'",
        ]
    for art in clouds + ratios:
        png = art["path"].replace(".csv", ".png")
        lines += [
            f"set output '{png}'",
            "unset logscale",
            "set size ratio -1",
            "set xlabel 'Re'",
            "set ylabel 'Im'",
        ]
        title = "ratios" if art["kind"] == "ratios" else "spectrum"
        plot = f"plot '{art['path']}' every ::1 using 1:2 with dots title '{title}'"
        b = boundaries.get(art["label"])
        if b is not None:
            plot += f", \\\n     '{b['path']}' every ::1 using 1:2 with lines lc 'black' title 'boundary'"
        lines.append(plot)
    if mode == "depth-grid":
        lines += [
            "set output 'depth_grid.png'",
            "set logscale x",
            "set xlabel 'tau'",
            "set ylabel 'relative depth'",
            "plot 'depth_grid.csv' every ::1 using 1:5 with points pt 7 title 'D/D_0'",
        ]
    if mode == "phase-grid":
        lines += [
            "set output 'phase_grid.png'",
            "set logscale x",
            "set xlabel 'tau'",
            "set ylabel 'epsilon'",
            "plot 'phase_grid.csv' every ::1 using 1:2 with points pt 5 title 'grid'",
        ]
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
        issues = validate_config(cfg)
        if issues:
            for issue in issues:
                print(f"config error: {issue}", file=sys.stderr)
            return 1
        if args.command == "validate":
            print("config ok")
            return 0
        try:
            manifest = run(cfg, workers=args.workers)
        except Exception as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(manifest['artifacts'])} artifacts to {cfg.output_dir}")
        return 0

    # plot-script
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
        print(f"config error: manifest is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        script = emit_gnuplot_script(manifest)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        try:
            Path(args.output).write_text(script)
        except OSError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
    else:
        print(script, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
