"""Random-matrix ensembles and the spectral scales derived from them.

Hamiltonians are drawn from the Gaussian orthogonal ensemble GOE(d).  We fix
the normalization through the semicircle law

    mu(E) = sqrt(2*d*sigma**2 - E**2) / (pi*d*sigma**2),

i.e. the spectrum fills [-sigma*sqrt(2d), +sigma*sqrt(2d)].  Concretely the
sample is H = (A + A^T)/2 with A_ij i.i.d. N(0, sigma**2), which puts variance
sigma**2 on the diagonal and sigma**2/2 off the diagonal.  All derived scales
follow from the same convention:

    mean level spacing   Delta = sigma*sqrt(8d)/(d - 1)
    Heisenberg time      t_H   = 2*pi*hbar/Delta
    critical period      tau_c = pi*hbar/(sigma*sqrt(2d))

tau_c is the kick period at which the spread of unitary phases
tau*(E_m - E_n)/hbar first covers the full circle.

Environment (Kraus) operators come from Haar-random unitaries: `sample_kraus_set`
cuts K operators of shape (d, d) out of a CUE(K*d) matrix as the vertical
blocks of a common d-column slab (K = 1: the whole unitary).  Orthonormality
of the slab's columns makes the set exactly trace preserving,
sum_r N_r^dag N_r = 1.  `_check_side` caps the side of a dense complex
matrix at 4096 (256 MiB): the CUE side K*d here, and the superoperator side
d^2 in `pqc.build_superoperator`.

Input domains, stated once here: every entry point of the package checks
its inputs through `_check_scales` (d, K, column offset, sigma, hbar, beta,
tau, epsilon, gamma), `_check_energies` and `_check_times`.

    every nonzero sigma, hbar, beta, tau, gamma   in _SCALE_RANGE = [1e-30, 1e30]
    sigma, hbar                                   nonzero
    d                                             2 <= d < 2**63
    every energy E                                |E| <= 1e40
    every time t                                  0 <= t <= 1e65

Each rule reads `not lo <= x <= hi`, so NaN and +-inf fail it.  The
observables read the scales only through dimensionless products (the kick
phase tau*sigma/hbar, the damping gamma*sigma^2*t, the Gibbs weight
beta*sigma, t/t_H), so no physics lies outside these domains, and inside
them nothing the package derives overflows or underflows to zero.  With
gaps and spreads W <= 2e40 and d < 2**63 (9.2e18):

    Delta   = sigma*sqrt(8d)/(d-1)       in [9.3e-40, 4e30]
    t_H     = 2*pi*hbar/Delta            in [1.6e-60, 6.8e69]
    tau_c   = pi*hbar/(sigma*sqrt(2d))   in [7.3e-70, 1.6e60]
    phi_max = tau*sigma*sqrt(8d)/hbar    in [4e-90, 8.6e99], or 0 at tau = 0

and the largest product each kernel forms, against the float maximum 1.8e308:

    channel phase    tau*W/hbar, with 1/hbar <= 1e30             2e100
    Gibbs exponent   beta*W                                      2e70
    gamma*t*w^2                                                  4e175
    t*w^2*d          bounds |dC_l1/dgamma| <= t*w^2*(d-1)         3.7e164
    t*|E|/hbar                                                   1e135
    lower bound      (t/hbar)*(|dC_l1/dgamma|/hbar)/2            2e270*d < 1.9e289
    crescent split   1/(sqrt(K)*sin(phi_max)) at phi_max > 0     2.5e89

A GOE draw at sigma <= 1e30 keeps its energies below 27.42*d*sigma: a
normal draw is sigma*z, and numpy's ziggurat tail returns |z| <= r +
53*ln2/r < 13.71 (r = 3.6541528853610088), so by Gershgorin the spread is
below 27.42*d*sigma, 1.1e35 at the largest dense side d = 4096.  The CLI's
largest time is its ed-sff end 4 t_H <= 5.7e62 at d <= 4096.

Reproducibility: every sampler is driven by the counter-based Philox bit
generator seeded through numpy's SeedSequence, so a (master seed, realization
index) pair identifies a stream on any platform.  Use `derive_seed` to build
per-realization seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# The largest side of a dense complex matrix: a 4096 x 4096 one holds 256 MiB,
# the CUE(K*d) draw at K*d = 4096 or the d^2 x d^2 superoperator at d = 64.
# A `spectrum`/`csr` solve holds two such matrices per worker, the superoperator
# and the copy `np.linalg.eigvals` hands LAPACK: 512 MiB at side 4096.
_MAX_SIDE = 4096
# The input domains of the module docstring.
_SCALE_RANGE = (1e-30, 1e30)
_MAX_ENERGY = 1e40
_MAX_TIME = 1e65

__all__ = [
    "HamiltonianSpectrum",
    "KrausSet",
    "derive_seed",
    "rng_from_seed",
    "sample_goe",
    "sample_cue",
    "sample_kraus_set",
    "mean_level_spacing",
    "heisenberg_time",
    "critical_tau",
]


def _check_scales(*, d=None, k=None, column_offset=None, sigma=None, hbar=None, beta=None, tau=None, epsilon=None,
                  gammas=()) -> None:
    """Raise ValueError unless every scale given lies in its domain; the one statement of these rules.

    2 <= d < 2**63; 1 <= K <= d^2 - 2 (K >= 1 when d is not given);
    1 <= column_offset <= d*(K-1), read with d and K and only for K > 1;
    sigma and hbar finite and > 0; beta, tau and every gamma finite and >= 0;
    each of those five, where nonzero, in `_SCALE_RANGE`; epsilon in [0, 1].
    """
    if d is not None and not 2 <= d < 2**63:
        raise ValueError(f"d must be >= 2 and below 2**63, got {d}")
    if k is not None and not 1 <= k <= (math.inf if d is None else d * d - 2):
        raise ValueError(f"K must lie in [1, d^2-2], got {k}")
    if column_offset is not None and k > 1 and not 1 <= column_offset <= d * (k - 1):
        raise ValueError(f"column_offset={column_offset} outside allowed range [1, {d * (k - 1)}]")
    for name, value in (("sigma", sigma), ("hbar", hbar)):
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    scales = (("beta", beta), ("tau", tau), *(("gamma", g) for g in gammas))
    for name, value in scales:
        if value is not None and not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    lo, hi = _SCALE_RANGE
    for name, value in (("sigma", sigma), ("hbar", hbar), *scales):
        if value and not lo <= value <= hi:
            raise ValueError(f"{name}={value} lies outside [{lo:g}, {hi:g}], the range of every nonzero scale")
    if epsilon is not None and not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


def _check_range(values, name: str, lo: float, hi: float, what: str) -> np.ndarray:
    """`values` as a float array; raises ValueError naming `name` and its first entry outside [lo, hi]."""
    a = np.asarray(values, dtype=float)
    outside = a[~((a >= lo) & (a <= hi))]
    if outside.size:
        raise ValueError(f"{name}={outside[0]} lies outside [{lo:g}, {hi:g}], the range of every {what}")
    return a


def _check_energies(energies) -> np.ndarray:
    """`energies` as a float array, each within +-`_MAX_ENERGY`."""
    return _check_range(energies, "energies", -_MAX_ENERGY, _MAX_ENERGY, "energy")


def _check_times(t, name: str = "times") -> np.ndarray:
    """`t` as a float array, each entry in [0, `_MAX_TIME`]; the error names the argument `name`."""
    return _check_range(t, name, 0.0, _MAX_TIME, "time")


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive a child seed from a master seed and an index path.

    The path (master_seed, i0, i1, ...) is fed to numpy's SeedSequence and
    hashed into a single 64-bit integer.  Distinct paths give statistically
    independent Philox streams, so ensembles can key their realizations as
    derive_seed(master, realization) and remain reproducible under any
    scheduling of the work.

    A fixed nonzero terminator word is appended before hashing: SeedSequence
    ignores trailing zero entropy words, so without it the paths (7,) and
    (7, 0, 0) would collide.
    """
    entropy = [int(master_seed)] + [int(i) for i in indices] + [0x5DEECE66D]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator for `seed`; the single RNG entry point of the package."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True)
class HamiltonianSpectrum:
    """Spectrum (and optionally the matrix) of one sampled Hamiltonian.

    energies are sorted ascending, at least two levels; `dim` is their
    count.  When `matrix` is kept, `eigenvectors` holds the orthogonal
    matrix Q with H = Q diag(energies) Q^T.  A `ParametricChannel` uses it
    to rotate its Kraus operators into the eigenbasis once, and keeps the
    spectrum without matrix and eigenvectors.
    """

    sigma: float
    energies: np.ndarray
    seed: int
    matrix: Optional[np.ndarray] = None
    eigenvectors: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", energies)
        _check_scales(sigma=self.sigma)
        if energies.ndim != 1 or energies.size < 2:
            raise ValueError(f"energies must be 1-D with at least 2 levels, got shape {energies.shape}")
        _check_energies(energies)
        if np.any(np.diff(energies) < 0):
            raise ValueError("energies must be sorted ascending")

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class KrausSet:
    """A trace-preserving set of K d x d environment operators N_1..N_K, 1 <= K <= d^2 - 2.

    `operators` is the (K, d, d) stack; `dim` and `count` are read off its
    shape.  Trace preservation sum_r N_r^dag N_r = 1 is checked on
    construction to 1e-12 in max norm; a NaN defect fails it.
    """

    operators: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=complex)
        object.__setattr__(self, "operators", ops)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"operators must have shape (K, d, d), got {ops.shape}")
        _check_scales(d=self.dim, k=self.count)
        defect = self.trace_defect()
        if not defect <= 1e-12:
            raise ValueError(
                f"Kraus set is not trace preserving: |sum N^dag N - 1|_max = {defect:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def count(self) -> int:
        return self.operators.shape[0]

    def trace_defect(self) -> float:
        """Max-norm deviation of sum_r N_r^dag N_r = B^dag B from the identity, B = [N_1; ...; N_K]."""
        b = self.operators.reshape(-1, self.dim)
        acc = b.conj().T @ b
        return float(np.max(np.abs(acc - np.eye(self.dim))))


def sample_goe(d: int, sigma: float, seed: int) -> HamiltonianSpectrum:
    """Draw one GOE(d) Hamiltonian and diagonalize it.

    Parameters
    ----------
    d : matrix dimension, >= 2.
    sigma : scale of the underlying Gaussian; the eigenvalue density is the
        semicircle of radius sigma*sqrt(2d).
    seed : integer seed for the Philox stream.

    Returns
    -------
    HamiltonianSpectrum with sorted energies, the symmetric matrix and its
    eigenvector matrix attached.
    """
    _check_scales(d=d, sigma=sigma)
    rng = rng_from_seed(seed)
    a = rng.normal(0.0, sigma, size=(d, d))
    h = (a + a.T) / 2.0
    energies, vecs = np.linalg.eigh(h)
    return HamiltonianSpectrum(sigma=sigma, energies=energies, seed=int(seed), matrix=h, eigenvectors=vecs)


def _check_side(n, what: str) -> None:
    """Raise ValueError naming the side `what` unless 1 <= n <= _MAX_SIDE; the size rule of any n x n matrix."""
    if not 1 <= n <= _MAX_SIDE:
        raise ValueError(f"{what} must lie in [1, {_MAX_SIDE}]"
                         f" (a complex {_MAX_SIDE} x {_MAX_SIDE} matrix holds 256 MiB), got {n}")


def sample_cue(n: int, seed: int) -> np.ndarray:
    """Haar-random U(n) matrix, 1 <= n <= 4096.

    QR decomposition of a complex Ginibre matrix, with the R diagonal
    rescaled to unit modulus so the factorization is unique and Q is
    Haar distributed.  The side is checked before anything is allocated.
    """
    _check_side(n, "the CUE side n=K*d")
    rng = rng_from_seed(seed)
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * np.sqrt(0.5)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_kraus_set(d: int, k: int, seed: int, column_offset: int = 1) -> KrausSet:
    """K trace-preserving Kraus operators cut out of U = sample_cue(K*d, seed).

    Operator r (r = 0..K-1) is the block of rows r*d .. (r+1)*d - 1 of U
    restricted to the d consecutive columns starting at `column_offset`.
    Because those columns are orthonormal, sum_r N_r^dag N_r = 1 holds
    exactly.  For K == 1 the whole unitary is the single operator and
    `column_offset` is ignored; otherwise 1 <= column_offset <= d*(K-1),
    checked with d and K by `_check_scales`.  To cut another unitary, build a
    `KrausSet` from its (K, d, d) slab.
    """
    _check_scales(d=d, k=k, column_offset=column_offset)
    u = sample_cue(k * d, seed)
    if k == 1:
        return KrausSet(u[np.newaxis], seed=int(seed))
    # a contiguous copy of the slab, so the operators do not keep all of U alive
    slab = np.ascontiguousarray(u[:, column_offset:column_offset + d].reshape(k, d, d))
    return KrausSet(slab, seed=int(seed))


def mean_level_spacing(d: int, sigma: float) -> float:
    """Mean spacing Delta = sigma*sqrt(8d)/(d-1): full support width over d-1 gaps."""
    _check_scales(d=d, sigma=sigma)
    return float(sigma) * math.sqrt(8.0 * d) / (d - 1)


def heisenberg_time(d: int, sigma: float, hbar: float = 1.0) -> float:
    """Heisenberg time t_H = 2*pi*hbar/Delta = pi*hbar*(d-1)/(sigma*sqrt(2d))."""
    _check_scales(hbar=hbar)
    return 2.0 * math.pi * float(hbar) / mean_level_spacing(d, sigma)


def critical_tau(d: int, sigma: float, hbar: float = 1.0) -> float:
    """Kick period tau_c = pi*hbar/(sigma*sqrt(2d)) where the phase spread reaches 2*pi.

    For tau >= tau_c the unitary phases tau*(E_m - E_n)/hbar wrap the whole
    circle; below it they stay in a sector.  Equivalently t_H = (d-1)*tau_c.
    """
    _check_scales(d=d, sigma=sigma, hbar=hbar)
    return math.pi * float(hbar) / (float(sigma) * math.sqrt(2.0 * d))
