"""Output checks for benchmark passes: invariants at any seed, reference values at one.

One op is one grid point of one config.  Every artifact a run writes belongs
to one op (through its label, e.g. ``tau0.1_eps0.2``) or is a table with one
row per op (summary and grid files).  A failed check marks its op failed; a
check on a whole table marks every op of the config.

Invariants (any seed):
    series   every number finite (bound columns may be nan when beta > 0);
             SFF(0) = 1 where t = 0 is sampled; at beta = 0 the coherence
             sandwich (1 - C_l1)/d <= SFF <= (1 + C_l1)/d and SFF >= the
             lower-bound column (the dephasing Taylor bound for ed-sff);
             0 <= SFF, purity <= 1.
    cloud    d^2 eigenvalues per realization, |lambda| <= 1 + 1e-9, the
             fixed point within 1e-8 of 1.
    ratios   d^2 ratios per realization, |z| <= 1 + 1e-12.
    tables   phase labels known, fractions in [0, 1], depths >= 0, counts
             consistent with dim and realizations.

Reference comparison (only at the seed the reference was recorded with):
numeric, never byte-equal, because a fused GEMM or a real-form eigensolve
legitimately changes the last bits.  Tolerances are in `TOL` below; clouds
and spacing ratios are compared as unordered sets.
"""

from __future__ import annotations

import gzip
import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from scipy.spatial import cKDTree

PHASES = ("annular", "disk", "crescent", "shifted-disk")

# |run - ref| <= atol + rtol * |ref| unless stated otherwise.
TOL = {
    "series": (1e-8, 1e-10),          # rtol, atol for every column ...
    "series.sff_stderr": (1e-6, 1e-7),  # ... but the stderr (a difference of sums)
    "boundary": (1e-9, 1e-12),
    "table": (1e-8, 1e-12),
    "depth": (1e-6, 1e-9),            # logs of ensemble means summed over a window
    "cloud_atol": 1e-7,               # eigenvalue set matching distance
    "ratio_atol": 1e-5,               # spacing-ratio set matching distance
    "ratio_unmatched": 0.005,         # share of ratios allowed to change neighbours
    "hist_moved": 0.005,              # share of histogram counts allowed to change bins
    "count_slack": 3,                 # points allowed to cross a containment / |z| edge
}

INVARIANT_TOL = 1e-9


def tag(tau: Optional[float] = None, eps: Optional[float] = None, gamma: Optional[float] = None) -> str:
    """Artifact label of one grid point, as the run writes it."""
    parts = []
    if gamma is not None:
        parts.append(f"gamma{gamma:g}")
    if tau is not None:
        parts.append(f"tau{tau:g}")
    if eps is not None:
        parts.append(f"eps{eps:g}")
    return "_".join(parts)


def op_labels(cfg: dict) -> List[str]:
    """One label per grid point of a config (config given as a plain dict)."""
    if cfg["mode"] == "ed-sff":
        return [tag(gamma=g) for g in cfg["gamma"]]
    return [tag(tau=t, eps=e) for t in cfg["tau"] for e in cfg["epsilon"]]


def samples(cfg: dict) -> int:
    """Realization x grid-point evaluations of one config (phase-grid has no ensemble)."""
    n = len(op_labels(cfg))
    return n if cfg["mode"] == "phase-grid" else n * cfg["realizations"]


# ---------------------------------------------------------------------------
# parsing


def parse_csv(text: str) -> Dict[str, object]:
    """Columns by name: float arrays where every cell parses, else lists of strings."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged csv")
    cols: Dict[str, object] = {}
    for k, name in enumerate(header):
        cells = [r[k] for r in rows]
        try:
            cols[name] = np.array([float(c) for c in cells], dtype=float)
        except ValueError:
            cols[name] = cells
    return cols


def parse(path: str, text: str):
    return json.loads(text) if path.endswith(".json") else parse_csv(text)


# ---------------------------------------------------------------------------
# comparison helpers


def _close(run: np.ndarray, ref: np.ndarray, rtol: float, atol: float) -> Optional[str]:
    run, ref = np.asarray(run, dtype=float), np.asarray(ref, dtype=float)
    if run.shape != ref.shape:
        return f"shape {run.shape} != reference {ref.shape}"
    both_nan = np.isnan(run) & np.isnan(ref)
    err = np.where(both_nan, 0.0, np.abs(run - ref) - (atol + rtol * np.abs(ref)))
    err = np.where(np.isnan(err), np.inf, err)
    if err.size and float(err.max()) > 0.0:
        k = int(np.argmax(err))
        return f"entry {k}: {run.flat[k]!r} vs reference {ref.flat[k]!r}"
    return None


def _unmatched(a: np.ndarray, b: np.ndarray, atol: float) -> int:
    """Points of `a` with no point of `b` within atol (complex arrays)."""
    if a.size == 0:
        return 0
    if b.size == 0:
        return a.size
    tree = cKDTree(np.column_stack([b.real, b.imag]))
    dist, _ = tree.query(np.column_stack([a.real, a.imag]), k=1)
    return int(np.sum(dist > atol))


def _finite(cols: Dict[str, object], allow_nan=()) -> Optional[str]:
    for name, col in cols.items():
        if isinstance(col, np.ndarray):
            bad = ~np.isfinite(col)
            if name in allow_nan:
                bad &= ~np.isnan(col)
            if np.any(bad):
                return f"non-finite value in column {name}"
    return None


# ---------------------------------------------------------------------------
# per-kind checks; each returns a list of problems


def _series_invariants(cols, cfg) -> List[str]:
    out = []
    beta0 = cfg["beta"] == 0.0
    bad = _finite(cols, () if beta0 else ("lower_bound", "upper_bound"))
    if bad:
        out.append(bad)
    t, sff, cl1, pur = cols["t"], cols["sff"], cols["cl1"], cols["purity"]
    tol = INVARIANT_TOL
    if t.size and t[0] == 0.0 and abs(sff[0] - 1.0) > tol:
        out.append(f"SFF(0) = {sff[0]!r}, expected 1")
    if np.any(sff < -tol) or np.any(sff > 1 + tol) or np.any(pur < -tol) or np.any(pur > 1 + tol):
        out.append("SFF or purity outside [0, 1]")
    if beta0:
        d = cfg["dim"]
        if np.any(sff > (1.0 + cl1) / d + tol) or np.any(sff < (1.0 - cl1) / d - tol):
            out.append("SFF outside the coherence sandwich (1 -+ C_l1)/d")
        if np.any(sff < cols["lower_bound"] - tol):
            out.append("SFF below the lower-bound column")
    return out


def _series_reference(cols, ref) -> List[str]:
    out = []
    for name, r in ref.items():
        key = f"series.{name}" if f"series.{name}" in TOL else "series"
        why = _close(cols.get(name, np.array([])), r, *TOL[key])
        if why:
            out.append(f"column {name}: {why}")
    return out


def _cloud_points(cols):
    z = cols["re"] + 1j * cols["im"]
    fixed = cols["is_fixed_point"] == 1
    return z, fixed, cols["realization"].astype(int)


def _cloud_invariants(cols, cfg) -> List[str]:
    out = []
    bad = _finite(cols)
    if bad:
        return [bad]
    z, fixed, real = _cloud_points(cols)
    d2 = cfg["dim"] ** 2
    for r in range(cfg["realizations"]):
        mine = real == r
        if int(mine.sum()) != d2 or int((mine & fixed).sum()) != 1:
            out.append(f"realization {r}: {int(mine.sum())} eigenvalues, expected {d2} with one fixed point")
    if np.any(np.abs(z) > 1.0 + INVARIANT_TOL):
        out.append(f"eigenvalue outside the unit disk: max |lambda| = {np.abs(z).max()!r}")
    if np.any(np.abs(z[fixed] - 1.0) > 1e-8):
        out.append("fixed point not at 1")
    return out


def _cloud_reference(cols, ref) -> List[str]:
    out = []
    z, fixed, real = _cloud_points(cols)
    rz, rfixed, rreal = _cloud_points(ref)
    atol = TOL["cloud_atol"]
    for r in sorted(set(rreal.tolist())):
        a, b = z[(real == r) & ~fixed], rz[(rreal == r) & ~rfixed]
        if a.size != b.size:
            out.append(f"realization {r}: {a.size} bulk eigenvalues vs reference {b.size}")
            continue
        miss = _unmatched(a, b, atol) + _unmatched(b, a, atol)
        if miss:
            out.append(f"realization {r}: {miss} eigenvalues differ from the reference set by > {atol:g}")
        fa, fb = z[(real == r) & fixed], rz[(rreal == r) & rfixed]
        if fa.size != fb.size or np.any(np.abs(fa - fb) > atol):
            out.append(f"realization {r}: fixed point differs from the reference")
    return out


def _ratio_invariants(cols, cfg) -> List[str]:
    bad = _finite(cols)
    if bad:
        return [bad]
    z = cols["re"] + 1j * cols["im"]
    out = []
    expected = cfg["dim"] ** 2 * cfg["realizations"]
    if z.size != expected:
        out.append(f"{z.size} spacing ratios, expected {expected}")
    if np.any(np.abs(z) > 1.0 + 1e-12):
        out.append(f"spacing ratio outside the unit disk: max |z| = {np.abs(z).max()!r}")
    return out


def _ratio_reference(cols, ref) -> List[str]:
    z = cols["re"] + 1j * cols["im"]
    rz = ref["re"] + 1j * ref["im"]
    if z.size != rz.size:
        return [f"{z.size} ratios vs reference {rz.size}"]
    allowed = max(2, int(TOL["ratio_unmatched"] * rz.size))
    miss = max(_unmatched(z, rz, TOL["ratio_atol"]), _unmatched(rz, z, TOL["ratio_atol"]))
    return [f"{miss} spacing ratios differ from the reference set (allowed {allowed})"] if miss > allowed else []


def _hist_invariants(h, cfg) -> List[str]:
    counts = np.asarray(h["counts"])
    out = []
    if h["bins"] != cfg["histogram_bins"] or counts.shape != (h["bins"], h["bins"]):
        out.append("histogram shape does not match histogram_bins")
    if np.any(counts < 0):
        out.append("negative histogram count")
    return out


def _hist_reference(h, ref) -> List[str]:
    out = []
    if h["bins"] != ref["bins"] or h["extent"] != ref["extent"]:
        return ["histogram bins or extent differ from the reference"]
    for key in ("re_edges", "im_edges"):
        why = _close(h[key], ref[key], 1e-12, 1e-15)
        if why:
            out.append(f"{key}: {why}")
    a, b = np.asarray(h["counts"]), np.asarray(ref["counts"])
    if a.shape != b.shape or a.sum() != b.sum():
        return out + ["histogram total differs from the reference"]
    moved = int(np.abs(a - b).sum())
    allowed = max(4, int(TOL["hist_moved"] * b.sum()))
    if moved > allowed:
        out.append(f"{moved} histogram counts differ from the reference (allowed {allowed})")
    return out


def _boundary_invariants(cols, cfg) -> List[str]:
    bad = _finite(cols)
    return [bad] if bad else []


def _boundary_reference(cols, ref) -> List[str]:
    out = []
    for name in ref:
        why = _close(cols.get(name, np.array([])), ref[name], *TOL["boundary"])
        if why:
            out.append(f"column {name}: {why}")
    return out


# tables: per-row checks keyed by (tau, epsilon)

_TABLE_NAN = {
    "spectrum_summary.csv": ("outer", "inner", "radius"),
    "phase_grid.csv": ("inner",),
}


def _row_labels(cols) -> List[str]:
    return [tag(tau=t, eps=e) for t, e in zip(cols["tau"], cols["epsilon"])]


def _row_invariants(path: str, row: dict, cfg: dict) -> List[str]:
    out = []
    allow = _TABLE_NAN.get(path, ())
    for name, v in row.items():
        if isinstance(v, float) and not math.isfinite(v) and not (name in allow and math.isnan(v)):
            out.append(f"non-finite {name}")
    if "phase" in row and row["phase"] not in PHASES:
        out.append(f"unknown phase {row['phase']!r}")
    d2 = cfg["dim"] ** 2
    if path == "spectrum_summary.csv":
        if not 0.0 <= row["containment"] <= 1.0:
            out.append("containment outside [0, 1]")
        if row["n_eigenvalues"] != (d2 - 1) * cfg["realizations"]:
            out.append("bulk eigenvalue count does not match dim and realizations")
    if path == "csr_summary.csv":
        if row["n_ratios"] != d2 * cfg["realizations"]:
            out.append("ratio count does not match dim and realizations")
        if not 0.0 <= row["frac_below_0.05"] <= 1.0:
            out.append("fraction outside [0, 1]")
    if path == "depth_grid.csv":
        if row["depth"] < 0 or row["isolated_depth"] < 0:
            out.append("negative depth")
    return out


def _row_slack(path: str, name: str, row: dict) -> Optional[float]:
    """Absolute tolerance for columns derived from counting points near an edge."""
    k = TOL["count_slack"]
    if path == "spectrum_summary.csv" and name == "containment":
        return k / row["n_eigenvalues"]
    if path == "csr_summary.csv" and name == "frac_below_0.05":
        return k / row["n_ratios"]
    if path == "csr_summary.csv" and name == "depletion_zscore":
        p = row["flat_expectation"]
        return k / math.sqrt(row["n_ratios"] * p * (1 - p))
    return None


def _row_reference(path: str, row: dict, ref_row: dict) -> List[str]:
    out = []
    rtol, atol = TOL["depth"] if path == "depth_grid.csv" else TOL["table"]
    for name, r in ref_row.items():
        v = row.get(name)
        if isinstance(r, str) or isinstance(v, str):
            if v != r:
                out.append(f"{name} = {v!r}, reference {r!r}")
            continue
        slack = _row_slack(path, name, ref_row)
        why = _close(v, r, 0.0, slack) if slack is not None else _close(v, r, rtol, atol)
        if why:
            out.append(f"{name}: {why}")
    return out


def _rows(cols) -> Dict[str, dict]:
    n = len(next(iter(cols.values())))
    rows = {}
    for k, label in enumerate(_row_labels(cols)):
        rows[label] = {
            name: (col[k] if isinstance(col, list) else float(col[k])) for name, col in cols.items()
        }
    if len(rows) != n:
        raise ValueError("duplicate (tau, epsilon) rows")
    return rows


_ARTIFACT_CHECKS = {
    "series": (_series_invariants, _series_reference),
    "cloud": (_cloud_invariants, _cloud_reference),
    "ratios": (_ratio_invariants, _ratio_reference),
    "histogram": (_hist_invariants, _hist_reference),
    "boundary": (_boundary_invariants, _boundary_reference),
}
_TABLE_KINDS = ("summary", "grid")

# kinds each op must have, per mode (tables are checked row by row)
_EXPECTED = {
    "ed-sff": ("series",),
    "pqc-sff": ("series",),
    "spectrum": ("cloud", "boundary", "histogram"),
    "csr": ("ratios", "histogram"),
    "phase-grid": (),
    "depth-grid": (),
}
_EXPECTED_TABLE = {
    "spectrum": "spectrum_summary.csv",
    "csr": "csr_summary.csv",
    "phase-grid": "phase_grid.csv",
    "depth-grid": "depth_grid.csv",
}


# ---------------------------------------------------------------------------
# one config


def check_config(
    cfg: dict,
    manifest: Optional[dict],
    texts: Dict[str, str],
    reference: Optional[Dict[str, str]] = None,
) -> Dict[str, List[str]]:
    """Problems per op label for one config's outputs.

    `texts` maps artifact file names to their contents; `reference` does the
    same for the reference run, or is None when no reference applies.
    """
    labels = op_labels(cfg)
    problems: Dict[str, List[str]] = {label: [] for label in labels}

    def fail_all(why: str) -> None:
        for label in labels:
            problems[label].append(why)

    if manifest is None:
        fail_all("no manifest")
        return problems
    if manifest.get("errors"):
        fail_all("run recorded errors: " + "; ".join(map(str, manifest["errors"])))
    statuses = {}
    for entry in manifest.get("grid", []):
        label = tag(gamma=entry["gamma"]) if "gamma" in entry else tag(tau=entry["tau"], eps=entry["epsilon"])
        statuses[label] = entry.get("status")
    for label in labels:
        if statuses.get(label) != "ok":
            problems[label].append(f"grid status {statuses.get(label)!r}")

    seen = defaultdict(set)
    for art in manifest.get("artifacts", []):
        path, kind, label = art["path"], art["kind"], art["label"]
        if path not in texts:
            fail_all(f"artifact {path} listed but not readable")
            continue
        try:
            data = parse(path, texts[path])
            ref = None
            if reference is not None:
                if path not in reference:
                    fail_all(f"artifact {path} not in the reference")
                    continue
                ref = parse(path, reference[path])
            if kind in _TABLE_KINDS:
                rows = _rows(data)
                ref_rows = _rows(ref) if ref is not None else None
                for row_label in labels:
                    if row_label not in rows:
                        problems[row_label].append(f"{path}: row missing")
                        continue
                    row = rows[row_label]
                    problems[row_label] += [f"{path}: {p}" for p in _row_invariants(path, row, cfg)]
                    if ref_rows is not None:
                        problems[row_label] += [
                            f"{path}: {p}" for p in _row_reference(path, row, ref_rows.get(row_label, {}))
                        ]
                    seen[row_label].add(path)
                if set(rows) - set(labels):
                    fail_all(f"{path}: rows outside the config grid")
                continue
            if label not in problems:
                fail_all(f"artifact {path} has unknown label {label!r}")
                continue
            invariants, against = _ARTIFACT_CHECKS[kind]
            problems[label] += [f"{path}: {p}" for p in invariants(data, cfg)]
            if ref is not None:
                problems[label] += [f"{path}: {p}" for p in against(data, ref)]
            seen[label].add(kind)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            target = [label] if label in problems else labels
            for lab in target:
                problems[lab].append(f"{path}: unreadable ({exc.__class__.__name__}: {exc})")

    table = _EXPECTED_TABLE.get(cfg["mode"])
    for label in labels:
        missing = [k for k in _EXPECTED[cfg["mode"]] if k not in seen[label]]
        if table and table not in seen[label]:
            missing.append(table)
        if missing:
            problems[label].append("missing " + ", ".join(missing))
    if reference is not None:
        written = {a["path"] for a in manifest.get("artifacts", [])}
        for path in sorted(set(reference) - written):
            fail_all(f"reference artifact {path} not written")
    return problems


def read_outputs(out_dir: Path):
    """(manifest, {artifact name: text}) of one finished run directory."""
    mpath = out_dir / "manifest.json"
    if not mpath.exists():
        return None, {}
    manifest = json.loads(mpath.read_text())
    texts = {}
    for art in manifest.get("artifacts", []):
        p = out_dir / art["path"]
        if p.exists():
            texts[art["path"]] = p.read_text()
    return manifest, texts


# ---------------------------------------------------------------------------
# reference files


def load_reference(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True).encode())
