"""Superoperator spectra: phase boundaries, classification and spacing ratios.

The channel's d^2 eigenvalues sit inside the unit disk with one trace fixed
point at lambda = 1.  Where the rest of the cloud condenses is governed by
(tau, eps, K) through three analytic curves:

    annulus    sqrt((1-eps)^2 - eps^2/K) <= |lambda| <= sqrt((1-eps)^2 + eps^2/K)
    disk       |lambda| <= sqrt((1-eps)^2 + eps^2/K)      (inner radius gone)
    shifted    |lambda - (1-eps)| <= eps/sqrt(K)          (tau -> 0)

The inner radius exists only while (1-eps)^2 > eps^2/K, i.e. below the
critical noise eps_c = 1/(1 + 1/sqrt(K)).  For kick periods below
tau_c the unitary phases cover only a sector of half-angle
phi_max = tau*sigma*sqrt(8d)/hbar and the annulus collapses to a crescent;
`classify_phase` encodes the resulting phase diagram with the sector sine
clamped at 1 once phi_max passes pi/2.

Spacing statistics use the complex ratio z = (nn - lambda)/(nnn - lambda)
built from the two nearest neighbours of each eigenvalue, which always lands
in the unit disk and is depleted near zero for repelling spectra.  Two
implementations (quadratic brute force and a KD-tree) share the same
tie-break rule and must agree to the bit.

`eigenvalues` remembers what it solved.  A matrix whose shape, dtype and
bytes equal those of one solved before gets that solve's eigenvalues back
without a second LAPACK call: `csr` after `spectrum` on the same grid point,
or `spectral_report` twice on one channel.  The memo is a plain dict keyed on
the shape, dtype and sha256 of the matrix bytes; once it holds 1024 spectra
(16 MiB at d = 32, 64 MiB at d = 64) it empties itself before the next one
goes in.  Each update is a single dict operation, so a thread or a forked
child never sees one half done; the worst a race can do is solve a matrix
twice.  The memo lives as long as the process, so only a process that solves
the same channel twice gains; a one-shot `openchaos run` solves each matrix
once and gains nothing.  The eigenvalues returned are the bytes a fresh solve
of the same matrix gives, so no output depends on what the memo holds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .pqc import Superoperator, build_superoperator
from .rmt import critical_tau

__all__ = [
    "EigensolverError",
    "eigenvalues",
    "split_bulk",
    "annular_boundaries",
    "disk_boundary",
    "shifted_disk_boundary",
    "critical_epsilon",
    "phi_max",
    "classify_phase",
    "Boundary",
    "phase_boundary",
    "boundary_power",
    "containment_fraction",
    "SpacingRatioSet",
    "complex_spacing_ratios",
    "density_grid",
    "SpectralReport",
    "spectral_report",
]

PHASES = ("annular", "disk", "crescent", "shifted-disk")


class EigensolverError(RuntimeError):
    """Dense eigensolve failed; the message carries the parameter point."""


_memo: dict = {}
_MEMO_SPECTRA = 1024


def eigenvalues(superop: Superoperator, context: str = "") -> np.ndarray:
    """All d^2 eigenvalues of the channel matrix (dense, non-Hermitian solve).

    A matrix equal in shape, dtype and bytes to one the memo holds is not
    solved again (see the module docstring); a forked worker starts from its
    parent's memo.  Solved or reused, the result is a copy of the bytes
    `np.linalg.eigvals` gives for that matrix.  A failed solve raises
    EigensolverError with `context` in its message and stores nothing.
    """
    m = np.ascontiguousarray(superop.matrix)
    key = (m.shape, m.dtype.str, hashlib.sha256(m).digest())
    ev = _memo.get(key)
    if ev is None:
        try:
            ev = np.linalg.eigvals(superop.matrix)
        except np.linalg.LinAlgError as exc:
            where = f" at {context}" if context else ""
            raise EigensolverError(f"eigenvalue solve failed{where}: {exc}") from exc
        if len(_memo) >= _MEMO_SPECTRA:
            _memo.clear()
        _memo[key] = ev
    return ev.copy()


def split_bulk(evals: np.ndarray) -> Tuple[np.ndarray, complex]:
    """Split a spectrum into (bulk, fixed point).

    The fixed point is the eigenvalue nearest to 1, ties to the larger modulus.
    """
    ev = np.asarray(evals, dtype=complex)
    if ev.size == 0:
        raise ValueError("empty spectrum")
    k = np.lexsort((-np.abs(ev), np.abs(ev - 1.0)))[0]
    return np.delete(ev, k), complex(ev[k])


def annular_boundaries(eps: float, k: int) -> Tuple[float, Optional[float]]:
    """Outer and inner bulk radii; the inner one is None once it has closed.

    outer = sqrt((1-eps)^2 + eps^2/K), inner = sqrt((1-eps)^2 - eps^2/K).
    A discriminant within a few ulps of zero is snapped to an exactly zero
    inner radius so the crossover point itself reports 0.0 rather than None.
    """
    _check_eps_k(eps, k)
    lead = (1.0 - eps) ** 2
    cross = eps**2 / k
    outer = float(np.sqrt(lead + cross))
    disc = lead - cross
    if abs(disc) <= 8.0 * np.finfo(float).eps * max(lead, cross):
        return outer, 0.0
    if disc < 0.0:
        return outer, None
    return outer, float(np.sqrt(disc))


def disk_boundary(eps: float, k: int) -> float:
    """Bulk radius sqrt((1-eps)^2 + eps^2/K) in the disk phase."""
    _check_eps_k(eps, k)
    return float(np.sqrt((1.0 - eps) ** 2 + eps**2 / k))


def shifted_disk_boundary(eps: float, k: int) -> Tuple[float, float]:
    """(center, radius) = (1-eps, eps/sqrt(K)) of the tau -> 0 bulk disk."""
    _check_eps_k(eps, k)
    return float(1.0 - eps), float(eps / np.sqrt(k))


def critical_epsilon(k: int) -> float:
    """Noise strength eps_c = 1/(1 + 1/sqrt(K)) where the annulus fills in."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(1.0 / (1.0 + 1.0 / np.sqrt(k)))


def _check_eps_k(eps: float, k: int) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def phi_max(tau: float, d: int, sigma: float, hbar: float = 1.0) -> float:
    """Ensemble estimate of the phase sector half-angle, tau*sigma*sqrt(8d)/hbar."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if d < 2 or sigma <= 0 or hbar <= 0:
        raise ValueError("need d >= 2, sigma > 0, hbar > 0")
    return float(tau * sigma * np.sqrt(8.0 * d) / hbar)


def classify_phase(
    eps: float, tau: float, k: int, d: int, sigma: float, hbar: float = 1.0
) -> str:
    """Label the bulk geometry at (tau, eps): annular / disk / crescent / shifted-disk.

    Above the critical period the phases wrap the circle and the split is at
    eps_c.  Below it the annulus opens into a sector, and the crossover to
    the shifted disk happens at eps >= 1/(1 + 1/(sqrt(K)*sin(phi_max))) with
    the sine clamped at its maximum once phi_max exceeds pi/2.  Near the
    boundary lines the label is advisory: the finite-size cloud interpolates.
    """
    _check_eps_k(eps, k)
    if tau >= critical_tau(d, sigma, hbar):
        return "annular" if eps < critical_epsilon(k) else "disk"
    s = np.sin(min(phi_max(tau, d, sigma, hbar), np.pi / 2.0))
    if s == 0.0:
        return "shifted-disk"
    threshold = 1.0 / (1.0 + 1.0 / (np.sqrt(k) * s))
    return "shifted-disk" if eps >= threshold else "crescent"


def _circle(center: complex, radius: float, samples: int) -> np.ndarray:
    phi = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=True)
    return center + radius * np.exp(1j * phi)


@dataclass(frozen=True)
class Boundary:
    """Region the bulk should occupy: analytic parameters plus sampled curves.

    For the three circular kinds containment is evaluated from the radii; a
    `curve` boundary (e.g. a powered shifted disk) falls back to a winding
    number test against its sampled outline, with the margin measured to the
    samples.  Curves are closed and dense enough that the sampling error is
    far below any margin of interest.
    """

    kind: str
    curves: Tuple[np.ndarray, ...]
    center: complex = 0.0 + 0.0j
    outer: Optional[float] = None
    inner: Optional[float] = None
    half_angle: Optional[float] = None

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask: inside the region dilated by `margin`."""
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        if self.kind in ("disk", "shifted-disk"):
            return np.abs(z - self.center) <= self.outer + margin
        if self.kind == "annular":
            r = np.abs(z)
            inner = self.inner or 0.0
            return (r <= self.outer + margin) & (r >= inner - margin)
        if self.kind == "crescent":
            return _sector_distance(z, self.outer, self.half_angle) <= margin
        return _inside_curves(z, self.curves, margin)


def _sector_distance(z: np.ndarray, radius: float, half_angle: float) -> np.ndarray:
    """Euclidean distance from each point to the sector {r e^{i a}: r<=R, |a|<=phi}."""
    if half_angle >= np.pi:
        return np.maximum(np.abs(z) - radius, 0.0)
    r = np.abs(z)
    inside_angle = np.abs(np.angle(z)) <= half_angle
    dist = np.where(inside_angle, np.maximum(r - radius, 0.0), np.inf)
    # outside the wedge: distance to the nearest straight edge, a segment [0, R]
    for sign in (+1.0, -1.0):
        w = z * np.exp(-1j * sign * half_angle)
        x, y = w.real, w.imag
        seg = np.where(
            x <= 0.0, np.hypot(x, y), np.where(x >= radius, np.hypot(x - radius, y), np.abs(y))
        )
        dist = np.minimum(dist, np.where(inside_angle, dist, seg))
    return dist


def _inside_curves(z: np.ndarray, curves: Tuple[np.ndarray, ...], margin: float) -> np.ndarray:
    out = np.zeros(z.shape, dtype=bool)
    for curve in curves:
        c = np.asarray(curve, dtype=complex)
        closed = np.concatenate([c, c[:1]])
        for lo in range(0, z.size, 512):
            chunk = z[lo : lo + 512, np.newaxis]
            near = np.min(np.abs(chunk - c[np.newaxis, :]), axis=1) <= margin
            with np.errstate(divide="ignore", invalid="ignore"):
                ang = np.angle((closed[np.newaxis, 1:] - chunk) / (closed[np.newaxis, :-1] - chunk))
                winding = np.abs(np.nansum(ang, axis=1)) / (2.0 * np.pi) > 0.5
            out[lo : lo + 512] |= near | winding
    return out


def phase_boundary(
    phase: str,
    eps: float,
    k: int,
    tau: Optional[float] = None,
    d: Optional[int] = None,
    sigma: Optional[float] = None,
    hbar: float = 1.0,
    samples: int = 2048,
) -> Boundary:
    """Analytic bulk boundary for one phase label.

    The crescent needs (tau, d, sigma) to fix its sector half-angle; the
    circular phases only need (eps, K).
    """
    if phase == "annular":
        outer, inner = annular_boundaries(eps, k)
        curves = [_circle(0.0, outer, samples)]
        if inner:
            curves.append(_circle(0.0, inner, samples))
        return Boundary("annular", tuple(curves), outer=outer, inner=inner)
    if phase == "disk":
        outer = disk_boundary(eps, k)
        return Boundary("disk", (_circle(0.0, outer, samples),), outer=outer)
    if phase == "shifted-disk":
        center, radius = shifted_disk_boundary(eps, k)
        return Boundary(
            "shifted-disk", (_circle(center, radius, samples),), center=center, outer=radius
        )
    if phase == "crescent":
        if tau is None or d is None or sigma is None:
            raise ValueError("crescent boundary needs tau, d and sigma")
        # Transitive area: the only analytic statement is angular confinement
        # to half-angle phi_max; radially the channel is a contraction, so the
        # sector is cut out of the unit disk rather than the annular radius.
        angle = min(phi_max(tau, d, sigma, hbar), np.pi)
        radius = 1.0
        arc = radius * np.exp(1j * np.linspace(-angle, angle, samples))
        curve = np.concatenate([[0.0 + 0.0j], arc, [0.0 + 0.0j]])
        return Boundary("crescent", (curve,), outer=radius, half_angle=angle)
    raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")


def boundary_power(boundary: Boundary, kappa: int) -> Boundary:
    """Image of a boundary under lambda -> lambda^kappa.

    Rotation-invariant regions stay annuli/disks with powered radii; anything
    else turns into a sampled curve (the shifted disk powers into cardioid
    shapes) handled by the winding test.  kappa = 1 returns the input.
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if kappa == 1:
        return boundary
    curves = tuple(np.asarray(c, dtype=complex) ** kappa for c in boundary.curves)
    if boundary.kind in ("annular", "disk") and boundary.center == 0:
        outer = None if boundary.outer is None else boundary.outer**kappa
        inner = None if boundary.inner is None else boundary.inner**kappa
        return Boundary(boundary.kind, curves, outer=outer, inner=inner)
    return Boundary("curve", curves)


def containment_fraction(evals: np.ndarray, boundary: Boundary, margin: float = 0.0) -> float:
    """Fraction of the supplied eigenvalues inside the dilated boundary."""
    ev = np.atleast_1d(np.asarray(evals, dtype=complex))
    if ev.size == 0:
        raise ValueError("containment fraction of an empty spectrum is undefined")
    return float(np.mean(boundary.contains(ev, margin)))


@dataclass(frozen=True)
class SpacingRatioSet:
    """Complex spacing ratios with the neighbour indices that produced them."""

    ratios: np.ndarray
    nn_indices: np.ndarray
    nnn_indices: np.ndarray


def complex_spacing_ratios(evals: np.ndarray, method: str = "auto") -> SpacingRatioSet:
    """z_i = (lambda_nn - lambda_i)/(lambda_nnn - lambda_i) for every eigenvalue.

    Neighbours are ranked by squared Euclidean distance with the eigenvalue
    index as tie break, identically in both implementations:

    - "brute": O(n^2) distance table, the reference;
    - "kdtree": scipy cKDTree candidate search, distances recomputed with the
      brute-force formula and the window widened until its farthest candidate
      lies beyond the second neighbour, so the selection is bit-identical
      even under ties;
    - "auto": kdtree above 1024 eigenvalues, where it starts to beat brute.

    Fewer than 3 eigenvalues leave no second neighbour and raise.  In the
    degenerate corner where both neighbours coincide with lambda_i the ratio
    is defined as 1.
    """
    ev = np.asarray(evals, dtype=complex).ravel()
    n = ev.size
    if n < 3:
        raise ValueError(f"need at least 3 eigenvalues for spacing ratios, got {n}")
    if method == "auto":
        method = "kdtree" if n > 1024 else "brute"
    if method not in ("brute", "kdtree"):
        raise ValueError(f"unknown method {method!r}")

    nn = np.empty(n, dtype=int)
    nnn = np.empty(n, dtype=int)
    re, im = ev.real, ev.imag
    if method == "brute":
        # argmin returns the lowest index among equal minima: the index tie break.
        for lo in range(0, n, 256):
            hi = min(lo + 256, n)
            rows = np.arange(hi - lo)
            d2 = (re[lo:hi, None] - re[None, :]) ** 2 + (im[lo:hi, None] - im[None, :]) ** 2
            d2[rows, lo + rows] = np.inf
            nn[lo:hi] = np.argmin(d2, axis=1)
            d2[rows, nn[lo:hi]] = np.inf
            nnn[lo:hi] = np.argmin(d2, axis=1)
    else:
        from scipy.spatial import cKDTree  # slow to import, and only this branch needs it

        points = np.column_stack([re, im])
        tree = cKDTree(points)
        k0 = min(n, 8)
        _, cand = tree.query(points, k=k0)
        for r in range(n):
            k, row = k0, cand[r]
            while True:
                idx = row[row != r]
                d2 = (re[r] - re[idx]) ** 2 + (im[r] - im[idx]) ** 2
                order = np.lexsort((idx, d2))
                # Points left out of the window are at least as far as its
                # farthest member.  Unless that one lies strictly beyond the
                # second neighbour (the margin covers the tree's own rounding),
                # a tie such as a degenerate eigenvalue could leave out a point
                # that ranks first or second, so the window is widened.
                if k == n or d2.max() > d2[order[1]] * (1.0 + 1e-12):
                    break
                k = min(n, 2 * k)
                _, row = tree.query(points[r], k=k)
            nn[r], nnn[r] = idx[order[0]], idx[order[1]]

    num = ev[nn] - ev
    den = ev[nnn] - ev
    ratios = np.where(den == 0, 1.0 + 0.0j, num / np.where(den == 0, 1.0, den))
    return SpacingRatioSet(ratios=ratios, nn_indices=nn, nnn_indices=nnn)


def density_grid(points: np.ndarray, bins: int = 256, extent: float = 1.05) -> dict:
    """2-D histogram of a complex point cloud as a JSON-ready dict."""
    z = np.asarray(points, dtype=complex).ravel()
    counts, xe, ye = np.histogram2d(
        z.real, z.imag, bins=bins, range=[[-extent, extent], [-extent, extent]]
    )
    return {
        "bins": int(bins),
        "extent": float(extent),
        "re_edges": xe.tolist(),
        "im_edges": ye.tolist(),
        "counts": counts.astype(int).tolist(),
    }


@dataclass(frozen=True)
class SpectralReport:
    """One channel's spectrum with its phase label and analytic boundary."""

    dim: int
    tau: float
    epsilon: float
    kraus_count: int
    phase: str
    bulk: np.ndarray
    fixed_point: complex
    boundary: Boundary
    containment: float
    margin: float


def spectral_report(channel, margin: float = 0.02, samples: int = 2048) -> SpectralReport:
    """Eigensolve one channel and audit its bulk against the analytic boundary."""
    h = channel.hamiltonian
    ev = eigenvalues(
        build_superoperator(channel),
        context=f"tau={channel.tau}, eps={channel.epsilon}, K={channel.kraus.count}",
    )
    bulk, fixed = split_bulk(ev)
    phase = classify_phase(channel.epsilon, channel.tau, channel.kraus.count, h.dim, h.sigma, channel.hbar)
    boundary = phase_boundary(
        phase, channel.epsilon, channel.kraus.count,
        tau=channel.tau, d=h.dim, sigma=h.sigma, hbar=channel.hbar, samples=samples,
    )
    frac = containment_fraction(bulk, boundary, margin)
    return SpectralReport(
        dim=h.dim,
        tau=channel.tau,
        epsilon=channel.epsilon,
        kraus_count=channel.kraus.count,
        phase=phase,
        bulk=bulk,
        fixed_point=fixed,
        boundary=boundary,
        containment=frac,
        margin=margin,
    )
