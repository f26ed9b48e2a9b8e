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
analytic `Boundary`, and the fraction of the bulk inside it.  One channel's
audit is `eigenvalues` -> `split_bulk` -> `audit_bulk`; the `spectrum` CLI
mode runs it on the bulks pooled over realizations.

Spacing statistics use the complex ratio z = (nn - lambda)/(nnn - lambda)
built from the two nearest neighbours of each eigenvalue, which always lands
in the unit disk and is depleted near zero for repelling spectra.  The
neighbours come from one O(n^2) distance table, ties broken by the lower
index; at the largest cloud a run builds (4096 eigenvalues, d = 64) that
table costs far less than the d^2 x d^2 eigensolve behind it.  The tests hold
it to the bit against a second route, a k-d tree with the same tie-break rule.

`eigenvalues` remembers what it solved.  A matrix whose shape, dtype and
bytes equal those of one solved before gets that solve's eigenvalues back
without a second LAPACK call: `csr` after `spectrum` on the same grid point,
or one channel solved twice.  The memo is a plain dict keyed on
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

from .pqc import Superoperator
from .rmt import _check_scales, critical_tau

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
    """Ensemble estimate of the phase sector half-angle, tau*sigma*sqrt(8d)/hbar."""
    _check_scales(d=d, sigma=sigma, hbar=hbar, tau=tau)
    return float(tau) * float(sigma) * math.sqrt(8.0 * d) / float(hbar)


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

    `kind` is the phase label.  The annulus and the two disks are one radial
    rule, outer >= |z - center| >= inner (no inner bound where `inner` is
    None); the crescent is the sector of radius `outer` and half-angle
    `half_angle`, by Euclidean distance.  `curves` are the closed outlines
    written to the boundary CSVs; nothing measures against them.
    """

    kind: str
    curves: Tuple[np.ndarray, ...]
    center: complex = 0.0 + 0.0j
    outer: Optional[float] = None
    inner: Optional[float] = None
    half_angle: Optional[float] = None

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean mask: inside the region dilated by `margin` (a negative margin shrinks it)."""
        z = np.atleast_1d(np.asarray(points, dtype=complex))
        if self.kind == "crescent":
            return _sector_distance(z, self.outer, self.half_angle) <= margin
        if self.kind not in PHASES:
            raise ValueError(f"unknown boundary kind {self.kind!r}; expected one of {PHASES}")
        r = np.abs(z - self.center)
        inside = r <= self.outer + margin
        return inside if self.inner is None else inside & (r >= self.inner - margin)


def _sector_distance(z: np.ndarray, radius: float, half_angle: float) -> np.ndarray:
    """Euclidean distance from each point to the sector {r e^{i a}: r<=R, |a|<=phi}; inf at a non-finite point."""
    finite = np.isfinite(z)
    z = np.where(finite, z, 0.0)  # inf + inf j times e^{-i phi} would hold inf - inf
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
    return np.where(finite, dist, np.inf)


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

    Each phase states a center, an outer radius and, for the open annulus,
    an inner radius; the outer circle and a nonzero inner one are one outline each.  The
    crescent is the unit disk's sector of half-angle min(phi_max, pi), which
    needs (tau, d, sigma); the circular phases only need (eps, K).
    """
    center, inner, angle = 0.0, None, None
    if phase in ("annular", "disk"):
        outer, inner = annular_boundaries(eps, k)
        inner = inner if phase == "annular" else None
    elif phase == "shifted-disk":
        center, outer = shifted_disk_boundary(eps, k)
    elif phase == "crescent":
        if tau is None or d is None or sigma is None:
            raise ValueError("crescent boundary needs tau, d and sigma")
        # Transitive area: the only analytic statement is angular confinement
        # to half-angle phi_max; radially the channel is a contraction, so the
        # sector is cut out of the unit disk rather than the annular radius.
        outer, angle = 1.0, min(phi_max(tau, d, sigma, hbar), np.pi)
    else:
        raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
    if angle is None:  # a closed inner circle (None or 0) draws no outline
        curves = tuple(_circle(center, r) for r in ((outer, inner) if inner else (outer,)))
    else:
        arc = outer * np.exp(1j * np.linspace(-angle, angle, _BOUNDARY_SAMPLES))
        curves = (np.concatenate([[0.0 + 0.0j], arc, [0.0 + 0.0j]]),)
    return Boundary(phase, curves, center=center, outer=outer, inner=inner, half_angle=angle)


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


def complex_spacing_ratios(evals: np.ndarray) -> SpacingRatioSet:
    """z_i = (lambda_nn - lambda_i)/(lambda_nnn - lambda_i) for every eigenvalue.

    Neighbours are ranked by squared Euclidean distance with the eigenvalue
    index as tie break, from an O(n^2) distance table.  Fewer than 3
    eigenvalues leave no second neighbour and raise.  In the degenerate corner
    where both neighbours coincide with lambda_i the ratio is defined as 1.
    """
    ev = np.asarray(evals, dtype=complex).ravel()
    n = ev.size
    if n < 3:
        raise ValueError(f"need at least 3 eigenvalues for spacing ratios, got {n}")

    nn = np.empty(n, dtype=int)
    nnn = np.empty(n, dtype=int)
    re, im = ev.real, ev.imag
    # argmin returns the lowest index among equal minima: the index tie break.
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        rows = np.arange(hi - lo)
        d2 = (re[lo:hi, None] - re[None, :]) ** 2 + (im[lo:hi, None] - im[None, :]) ** 2
        d2[rows, lo + rows] = np.inf
        nn[lo:hi] = np.argmin(d2, axis=1)
        d2[rows, nn[lo:hi]] = np.inf
        nnn[lo:hi] = np.argmin(d2, axis=1)

    num = ev[nn] - ev
    den = ev[nnn] - ev
    # numpy divides complex numbers by Smith's method, whose 1/den overflows where |den| is subnormal;
    # scaling num and den there by 2^600 is exact, and every other ratio keeps its bytes
    tiny = (np.abs(den) < 2.0**-1000) & (den != 0)
    num[tiny] *= 2.0**600
    den[tiny] *= 2.0**600
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
