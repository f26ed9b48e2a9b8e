"""Superoperator spectra: phase boundaries, classification, bulk audit and spacing ratios.

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

`audit_bulk` is the one audit of a bulk at a grid point: phase label, its
analytic `Boundary`, and the fraction of the bulk inside it.  `spectral_report`
runs it on one channel's bulk, the `spectrum` CLI mode on the bulks pooled
over realizations.

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
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .pqc import Superoperator, build_superoperator
from .rmt import _check_derived, _check_scales, critical_tau

__all__ = [
    "EigensolverError",
    "eigenvalues",
    "split_bulk",
    "annular_boundaries",
    "shifted_disk_boundary",
    "critical_epsilon",
    "phi_max",
    "classify_phase",
    "Boundary",
    "phase_boundary",
    "containment_fraction",
    "audit_bulk",
    "SpacingRatioSet",
    "complex_spacing_ratios",
    "density_grid",
    "SpectralReport",
    "spectral_report",
]

PHASES = ("annular", "disk", "crescent", "shifted-disk")

# Points per sampled boundary curve.
_BOUNDARY_SAMPLES = 2048
# Half-width of the `density_grid` square: the unit disk plus a rim.
_HISTOGRAM_EXTENT = 1.05


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
    _check_scales(epsilon=eps, k=k)
    lead = (1.0 - eps) ** 2
    cross = eps**2 / k
    outer = float(np.sqrt(lead + cross))
    disc = lead - cross
    if abs(disc) <= 8.0 * np.finfo(float).eps * max(lead, cross):
        return outer, 0.0
    if disc < 0.0:
        return outer, None
    return outer, float(np.sqrt(disc))


def shifted_disk_boundary(eps: float, k: int) -> Tuple[float, float]:
    """(center, radius) = (1-eps, eps/sqrt(K)) of the tau -> 0 bulk disk."""
    _check_scales(epsilon=eps, k=k)
    return float(1.0 - eps), float(eps / np.sqrt(k))


def critical_epsilon(k: int) -> float:
    """Noise strength eps_c = 1/(1 + 1/sqrt(K)) where the annulus fills in."""
    _check_scales(k=k)
    return float(1.0 / (1.0 + 1.0 / np.sqrt(k)))


def phi_max(tau: float, d: int, sigma: float, hbar: float = 1.0) -> float:
    """Ensemble estimate of the phase sector half-angle, tau*sigma*sqrt(8d)/hbar; raises if it overflows."""
    _check_scales(d=d, sigma=sigma, hbar=hbar, tau=tau)
    phi = float(tau) * float(sigma) * math.sqrt(8.0 * d) / float(hbar)
    return _check_derived("phi_max", "tau*sigma*sqrt(8*dim)/hbar", phi, zero_ok=True,
                          tau=tau, dim=d, sigma=sigma, hbar=hbar)


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
    _check_scales(d=d, k=k, tau=tau, epsilon=eps)
    if tau >= critical_tau(d, sigma, hbar):
        return "annular" if eps < critical_epsilon(k) else "disk"
    s = np.sin(min(phi_max(tau, d, sigma, hbar), np.pi / 2.0))
    if s == 0.0:
        return "shifted-disk"
    threshold = 1.0 / (1.0 + 1.0 / (np.sqrt(k) * s))
    return "shifted-disk" if eps >= threshold else "crescent"


def _circle(center: complex, radius: float) -> np.ndarray:
    phi = np.linspace(0.0, 2.0 * np.pi, _BOUNDARY_SAMPLES, endpoint=True)
    return center + radius * np.exp(1j * phi)


@dataclass(frozen=True)
class Boundary:
    """Region the bulk should occupy in one phase: analytic parameters plus sampled outlines.

    `kind` is the phase label.  Containment is evaluated from the parameters
    alone: radii for the annulus and the two disks, Euclidean distance to the
    sector for the crescent.  `curves` are the closed outlines written to the
    boundary CSVs; nothing measures against them.
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
        raise ValueError(f"unknown boundary kind {self.kind!r}; expected one of {PHASES}")


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


def phase_boundary(
    phase: str,
    eps: float,
    k: int,
    tau: Optional[float] = None,
    d: Optional[int] = None,
    sigma: Optional[float] = None,
    hbar: float = 1.0,
) -> Boundary:
    """Analytic bulk boundary for one phase label.

    The crescent needs (tau, d, sigma) to fix its sector half-angle; the
    circular phases only need (eps, K).
    """
    if phase == "annular":
        outer, inner = annular_boundaries(eps, k)
        curves = [_circle(0.0, outer)]
        if inner:
            curves.append(_circle(0.0, inner))
        return Boundary("annular", tuple(curves), outer=outer, inner=inner)
    if phase == "disk":
        outer = annular_boundaries(eps, k)[0]
        return Boundary("disk", (_circle(0.0, outer),), outer=outer)
    if phase == "shifted-disk":
        center, radius = shifted_disk_boundary(eps, k)
        return Boundary("shifted-disk", (_circle(center, radius),), center=center, outer=radius)
    if phase == "crescent":
        if tau is None or d is None or sigma is None:
            raise ValueError("crescent boundary needs tau, d and sigma")
        # Transitive area: the only analytic statement is angular confinement
        # to half-angle phi_max; radially the channel is a contraction, so the
        # sector is cut out of the unit disk rather than the annular radius.
        angle = min(phi_max(tau, d, sigma, hbar), np.pi)
        radius = 1.0
        arc = radius * np.exp(1j * np.linspace(-angle, angle, _BOUNDARY_SAMPLES))
        curve = np.concatenate([[0.0 + 0.0j], arc, [0.0 + 0.0j]])
        return Boundary("crescent", (curve,), outer=radius, half_angle=angle)
    raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")


def containment_fraction(evals: np.ndarray, boundary: Boundary, margin: float = 0.0) -> float:
    """Fraction of the supplied eigenvalues inside the dilated boundary."""
    ev = np.atleast_1d(np.asarray(evals, dtype=complex))
    if ev.size == 0:
        raise ValueError("containment fraction of an empty spectrum is undefined")
    return float(np.mean(boundary.contains(ev, margin)))


def audit_bulk(
    bulk: np.ndarray, tau: float, eps: float, k: int, d: int, sigma: float,
    hbar: float = 1.0, margin: float = 0.0,
) -> Tuple[str, Boundary, float]:
    """(phase, boundary, containment) of a bulk at the grid point (tau, eps, K, d, sigma, hbar).

    The phase label comes from the parameters alone; the containment is the
    fraction of `bulk` inside that phase's boundary dilated by `margin`.
    """
    phase = classify_phase(eps, tau, k, d, sigma, hbar)
    boundary = phase_boundary(phase, eps, k, tau=tau, d=d, sigma=sigma, hbar=hbar)
    return phase, boundary, containment_fraction(bulk, boundary, margin)


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


def density_grid(points: np.ndarray, bins: int = 256) -> dict:
    """2-D histogram of a complex point cloud over the square |Re|, |Im| <= 1.05, as a JSON-ready dict."""
    z = np.asarray(points, dtype=complex).ravel()
    e = _HISTOGRAM_EXTENT
    counts, xe, ye = np.histogram2d(z.real, z.imag, bins=bins, range=[[-e, e], [-e, e]])
    return {
        "bins": int(bins),
        "extent": e,
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


def spectral_report(channel, margin: float = 0.02) -> SpectralReport:
    """Eigensolve one channel and audit its bulk (`audit_bulk`)."""
    h, k = channel.hamiltonian, channel.kraus.count
    ev = eigenvalues(
        build_superoperator(channel), context=f"tau={channel.tau}, eps={channel.epsilon}, K={k}"
    )
    bulk, fixed = split_bulk(ev)
    phase, boundary, frac = audit_bulk(
        bulk, channel.tau, channel.epsilon, k, h.dim, h.sigma, channel.hbar, margin
    )
    return SpectralReport(
        dim=h.dim,
        tau=channel.tau,
        epsilon=channel.epsilon,
        kraus_count=k,
        phase=phase,
        bulk=bulk,
        fixed_point=fixed,
        boundary=boundary,
        containment=frac,
        margin=margin,
    )
