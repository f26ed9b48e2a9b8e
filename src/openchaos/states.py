"""Coherent Gibbs states and Liouville-space vectorization.

The reference state throughout is the coherent Gibbs state

    |Psi_beta> = sum_n sqrt(p_n) |n>,    p_n = exp(-beta*E_n)/Z(beta),

a pure state whose populations match the thermal ones while keeping every
off-diagonal coherence positive.  At beta = 0 it is the maximally coherent
state with amplitudes 1/sqrt(d).  Density matrices are plain complex
d x d arrays in the energy eigenbasis.

Vectorization is row major ("horizontal"): |rho) stacks the rows of rho, so
the matrix element rho_nm sits at index n*d + m and A rho B maps to
kron(A, B^T) |rho).  With this convention the Hilbert-Schmidt product is
(A|B) = Tr[A^dag B] and devectorize(vectorize(rho)) is an exact reshape
round trip.  Every superoperator in the package uses the same stacking.

The populations p_n are the squared `make_cgs` amplitudes, with E_min
shifted out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .rmt import HamiltonianSpectrum, _check_energies, _check_scales

__all__ = [
    "EnergiesLike",
    "as_energies",
    "CoherentGibbsState",
    "make_cgs",
    "cgs_density",
    "vectorize",
    "devectorize",
    "plateau_value",
]

EnergiesLike = Union[HamiltonianSpectrum, np.ndarray]


def as_energies(energies: EnergiesLike) -> np.ndarray:
    """Coerce a HamiltonianSpectrum or array-like into a 1-D float array, each energy within +-1e40."""
    if isinstance(energies, HamiltonianSpectrum):
        return energies.energies
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValueError(f"energies must be a non-empty 1-D array, got shape {e.shape}")
    return _check_energies(e)


@dataclass(frozen=True)
class CoherentGibbsState:
    """Amplitude vector sqrt(p_n) of a coherent Gibbs state at inverse temperature beta."""

    beta: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amp)
        _check_scales(beta=self.beta)
        if amp.ndim != 1:
            raise ValueError(f"amplitudes must be a 1-D array, got shape {amp.shape}")
        if not np.all(amp >= 0):
            raise ValueError("amplitudes must be non-negative")
        norm = float(np.sum(amp**2))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"amplitudes not normalized: sum p_n = {norm!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def make_cgs(energies: EnergiesLike, beta: float) -> CoherentGibbsState:
    """Build the coherent Gibbs state sum_n sqrt(p_n)|n> for the given spectrum.

    Amplitudes are computed as exp(-beta*(E_n - E_min)/2) and normalized; the
    exponent stays below 2e70 in the domains of `rmt`, and the largest
    amplitude is exp(0) = 1 before normalization.
    """
    _check_scales(beta=beta)
    e = as_energies(energies)
    half = np.exp(-0.5 * beta * (e - e.min()))
    amp = half / np.linalg.norm(half)
    return CoherentGibbsState(beta=float(beta), amplitudes=amp)


def cgs_density(state: CoherentGibbsState) -> np.ndarray:
    """Rank-one density matrix |Psi_beta><Psi_beta|, entries sqrt(p_n*p_m)."""
    return np.outer(state.amplitudes, state.amplitudes).astype(complex)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization: component n*d + m holds rho_nm."""
    m = np.array(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.reshape(-1)


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of `vectorize`; the length must be a perfect square."""
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d).copy()


def plateau_value(energies: EnergiesLike, beta: float) -> float:
    """Late-time fidelity plateau F_p = Z(2*beta)/Z(beta)^2 = sum_n p_n^2.

    The inverse participation ratio of the coherent Gibbs state, and the
    purity of its dephased populations; 1/d at beta = 0.
    """
    p = make_cgs(energies, beta).amplitudes ** 2
    return float(p @ p)
