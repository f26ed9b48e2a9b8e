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

`_check_scales` is the one statement of what values a physical scale may
take (d, K, column offset, sigma, hbar, beta, tau, epsilon, gamma); the
library checks its scale arguments through it, and NaN or +-inf fails every
rule.
`_check_derived` checks each derived scale (Delta, t_H, tau_c, phi_max), computed
in Python floats: one that overflows or underflows raises, naming its inputs.

Reproducibility: every sampler is driven by the counter-based Philox bit
generator seeded through numpy's SeedSequence, so a (master seed, realization
index) pair identifies a stream on any platform.  Use `derive_seed` to build
per-realization seeds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

# The largest side of a dense complex matrix: a 4096 x 4096 one holds 256 MiB,
# the CUE(K*d) draw at K*d = 4096 or the d^2 x d^2 superoperator at d = 64.
_MAX_SIDE = 4096

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

    d >= 2 and no larger than the largest float; 1 <= K <= d^2 - 2 (K >= 1
    when d is not given); 1 <= column_offset <= d*(K-1), read with d and K
    and only for K > 1; sigma and hbar finite and > 0; beta, tau and every
    gamma finite and >= 0; epsilon in [0, 1].  Each rule reads
    `not lo <= x <= hi`, so NaN fails it.
    """
    if d is not None and not 2 <= d <= sys.float_info.max:
        raise ValueError(f"d must be >= 2 and convert to a float, got {d}")
    if k is not None and not 1 <= k <= (math.inf if d is None else d * d - 2):
        raise ValueError(f"K must lie in [1, d^2-2], got {k}")
    if column_offset is not None and k > 1 and not 1 <= column_offset <= d * (k - 1):
        raise ValueError(f"column_offset={column_offset} outside allowed range [1, {d * (k - 1)}]")
    for name, value in (("sigma", sigma), ("hbar", hbar)):
        if value is not None and not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    for name, value in (("beta", beta), ("tau", tau), *(("gamma", g) for g in gammas)):
        if value is not None and not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if epsilon is not None and not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


def _check_derived(name: str, formula: str, value: float, zero_ok: bool = False, **inputs) -> float:
    """`value` of `name` = `formula` as a float; raises where it overflowed to inf or underflowed to 0."""
    if not 0.0 <= value < math.inf or value == 0.0 and not zero_ok:
        given = ", ".join(f"{k}={v}" for k, v in inputs.items())
        raise ValueError(f"{name}={formula} {'underflows' if value == 0.0 else 'overflows'} at {given}:"
                         f" {name}={value} must be finite and {'>=' if zero_ok else '>'} 0")
    return float(value)


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
        if not np.all(np.isfinite(energies)):
            raise ValueError("energies must be finite")
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
    eigenvector matrix attached; a draw that overflows raises ValueError.
    """
    _check_scales(d=d, sigma=sigma)
    rng = rng_from_seed(seed)
    a = rng.normal(0.0, sigma, size=(d, d))
    with np.errstate(over="ignore"):  # an entry that overflows is reported below, naming sigma
        h = (a + a.T) / 2.0
    if not np.all(np.isfinite(h)):
        raise ValueError(f"the GOE draw at d={d}, sigma={sigma} is not finite: sigma is too large for a float")
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
    delta = float(sigma) * math.sqrt(8.0 * d) / (d - 1)
    return _check_derived("Delta", "sigma*sqrt(8*dim)/(dim-1)", delta, dim=d, sigma=sigma)


def heisenberg_time(d: int, sigma: float, hbar: float = 1.0) -> float:
    """Heisenberg time t_H = 2*pi*hbar/Delta = pi*hbar*(d-1)/(sigma*sqrt(2d))."""
    _check_scales(hbar=hbar)
    t_h = 2.0 * math.pi * float(hbar) / mean_level_spacing(d, sigma)
    return _check_derived("t_H", "2*pi*hbar/Delta", t_h, dim=d, sigma=sigma, hbar=hbar)


def critical_tau(d: int, sigma: float, hbar: float = 1.0) -> float:
    """Kick period tau_c = pi*hbar/(sigma*sqrt(2d)) where the phase spread reaches 2*pi.

    For tau >= tau_c the unitary phases tau*(E_m - E_n)/hbar wrap the whole
    circle; below it they stay in a sector.  Equivalently t_H = (d-1)*tau_c.
    """
    _check_scales(d=d, sigma=sigma, hbar=hbar)
    tau_c = math.pi * float(hbar) / (float(sigma) * math.sqrt(2.0 * d))
    return _check_derived("tau_c", "pi*hbar/(sigma*sqrt(2*dim))", tau_c, dim=d, sigma=sigma, hbar=hbar)
