"""Energy dephasing: exact evolution and closed-form diagnostics.

The master equation

    d rho/dt = -(i/hbar) [H, rho] - gamma [H, [H, rho]]

is diagonal in the energy eigenbasis and solves to

    rho_nm(t) = rho_nm(0) * exp(-(i/hbar)*t*(E_n - E_m) - gamma*t*(E_n - E_m)^2),

so populations freeze and every coherence decays at a rate set by its energy
gap.  Starting from the coherent Gibbs state rho_nm(0) = sqrt(p_n p_m) the
fidelity (spectral form factor), l1 coherence and purity have closed sums
over level pairs; all three land on the plateau F_p = Z(2*beta)/Z(beta)^2 as
t -> infinity for gamma > 0.

At beta = 0 the fidelity obeys the two-sided coherence bound implemented in
`diagnostics` and, more tightly from below,

    SFF(t) >= (1/d) * (1 + C_l1(t) + t * dC_l1/dgamma / (2*hbar^2)),

the first two terms of an expansion whose gamma derivative is available in
closed form.  (The hbar^2 keeps the bound dimensionally consistent; the
common convention hbar = 1 makes it invisible.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from .pqc import Superoperator
from .states import EnergiesLike, as_energies, make_cgs, plateau_value

__all__ = [
    "EDParams",
    "ed_evolve",
    "EDClosedForms",
    "ed_closed_forms",
    "taylor_lower_bound",
    "ed_sff_lower_bound",
    "ed_liouvillian",
]

# Pair terms per block of times in `ed_closed_forms`: 512 KB per float buffer,
# so the three block buffers stay in cache.
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class EDParams:
    """Finite dephasing strength gamma >= 0 and finite hbar > 0."""

    gamma: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be finite and > 0, got {self.hbar}")


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be >= 0")
    return t


def ed_evolve(rho0: np.ndarray, energies: EnergiesLike, params: EDParams, t: float) -> np.ndarray:
    """Exact dephasing propagation of rho0 (eigenbasis) to time t >= 0."""
    tt = float(_check_times(t))
    m = np.asarray(rho0, dtype=complex)
    e = as_energies(energies)
    if m.shape[0] != e.size:
        raise ValueError(f"state dimension {m.shape[0]} != spectrum size {e.size}")
    w = e[:, np.newaxis] - e[np.newaxis, :]
    kernel = np.exp(-1j * tt * w / params.hbar - params.gamma * tt * w**2)
    return m * kernel


def _pair_data(energies: EnergiesLike, beta: float):
    """The m < n pair arrays (w, p_n*p_m, sqrt(p_n*p_m)) of the Gibbs populations p_n.

    The fourth array is each pair's flat index i*d + j into a d x d matrix,
    where w = E_i - E_j, i < j.
    """
    e = as_energies(energies)
    a = make_cgs(e, beta).amplitudes
    i, j = np.triu_indices(e.size, k=1)
    sq = a[i] * a[j]
    return e[i] - e[j], sq * sq, sq, i * e.size + j


class EDClosedForms(NamedTuple):
    """Closed-form dephasing observables on one time grid (floats for scalar t)."""

    sff: np.ndarray
    cl1: np.ndarray
    cl1_gamma_derivative: np.ndarray
    purity: np.ndarray


def ed_closed_forms(
    energies: EnergiesLike, beta: float, params: EDParams | Sequence[EDParams], t
) -> EDClosedForms | List[EDClosedForms]:
    """SFF, l1 coherence, dC_l1/dgamma and purity under dephasing, vectorized over t.

    With w = E_n - E_m and one sum over level pairs m < n,

        SFF(t)       = F_p + 2 * sum p_n p_m exp(-gamma*t*w^2) cos(w*t/hbar)
        C_l1(t)      = 2 * sum sqrt(p_n p_m) exp(-gamma*t*w^2)
        dC_l1/dgamma = -2 * sum sqrt(p_n p_m) t w^2 exp(-gamma*t*w^2)
        purity(t)    = F_p + 2 * sum p_n p_m exp(-2*gamma*t*w^2)

    C_l1 is d - 1 at t = 0, beta = 0.  `params` is one EDParams, which gives
    one EDClosedForms, or a sequence of EDParams sharing one hbar, which
    gives a list of them in the same order from a single pass over the level
    pairs.

    Per block of times the pair cosines come from per-level phases
    theta_n = t*E_n/hbar: cos(w*t/hbar) = cos theta_n cos theta_m +
    sin theta_n sin theta_m, so a time costs d cosines and d sines, and one
    batched matmul of the stacked [cos theta, sin theta] with its transpose
    gives every product, from which the pair entries are taken.  They are
    shared by every gamma.  Each gamma then takes one exponential,
    damp = exp(-gamma*t*w^2), and four row-wise `np.vecdot` sums: damp*cos
    and damp*damp against p_n p_m (SFF, purity), damp against sqrt(p_n p_m)
    (C_l1) and against sqrt(p_n p_m) w^2 (the derivative, times -2t).
    Blocks hold about `_PAIR_BLOCK` pair terms, so the three block buffers
    (cosines, damping, product) take 512 KB each for any grid length (one
    time row each once d(d-1)/2 is larger).  `np.vecdot` sums each row on
    its own, so a row's value depends neither on the block size nor on the
    rest of the grid or the gamma list.  It does depend on the BLAS thread
    count once a row is long enough for the BLAS to split its dot product
    (OpenBLAS: above 10^4 pairs, d >= 142).  Scalar t in, floats out.
    """
    single = isinstance(params, EDParams)
    plist = [params] if single else list(params)
    if not plist:
        raise ValueError("need at least one EDParams")
    hbar = plist[0].hbar
    if any(p.hbar != hbar for p in plist):
        raise ValueError("all EDParams of one call must share hbar")
    t = _check_times(t)
    e = as_energies(energies)
    w, pp, sqpp, flat_pairs = _pair_data(e, beta)
    w2 = w**2
    sqpp_w2 = sqpp * w2
    fp = plateau_value(e, beta)
    flat = np.atleast_1d(t).reshape(-1)
    out = np.empty((len(plist), 4, flat.size))
    rows = max(1, _PAIR_BLOCK // max(w.size, 1))
    buffers = np.empty((3, min(rows, flat.size), w.size))
    for lo in range(0, flat.size, rows):
        ts = flat[lo:lo + rows, np.newaxis]
        cos, damp, term = buffers[:, :ts.shape[0]]
        # the same for every gamma: cos(w*t/hbar) from the per-level phases
        theta = ts * e / hbar
        phases = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        products = np.matmul(phases.transpose(0, 2, 1), phases)
        np.take(products.reshape(ts.shape[0], -1), flat_pairs, axis=1, out=cos)
        for p, forms in zip(plist, out):
            block = forms[:, lo:lo + rows]
            np.multiply(-p.gamma * ts, w2, out=damp)
            np.exp(damp, out=damp)
            np.multiply(damp, cos, out=term)
            block[0] = fp + 2.0 * np.vecdot(term, pp)
            block[1] = 2.0 * np.vecdot(damp, sqpp)
            block[2] = -2.0 * ts[:, 0] * np.vecdot(damp, sqpp_w2)
            np.multiply(damp, damp, out=term)
            block[3] = fp + 2.0 * np.vecdot(term, pp)
    if t.ndim == 0:
        results = [EDClosedForms(*(float(x[0]) for x in forms)) for forms in out]
    else:
        results = [EDClosedForms(*(x.reshape(t.shape) for x in forms)) for forms in out]
    return results[0] if single else results


def taylor_lower_bound(forms: EDClosedForms, dim: int, params: EDParams, t) -> np.ndarray:
    """(1/d)(1 + C_l1 + t*dC_l1/dgamma/(2*hbar^2)) from beta = 0 closed forms."""
    t = np.asarray(t, dtype=float)
    return (1.0 + forms.cl1 + t * forms.cl1_gamma_derivative / (2.0 * params.hbar**2)) / dim


def ed_sff_lower_bound(
    energies: EnergiesLike, params: EDParams, t, beta: float = 0.0
) -> np.ndarray:
    """Coherence lower bound (1/d)(1 + C_l1 + t*dC_l1/dgamma/(2*hbar^2)) at beta = 0.

    Only the infinite-temperature form is known; any other beta raises.
    """
    if beta != 0.0:
        raise ValueError(f"lower bound is only defined at beta = 0, got beta = {beta}")
    e = as_energies(energies)
    return taylor_lower_bound(ed_closed_forms(e, 0.0, params, t), e.size, params, t)


def ed_liouvillian(energies: EnergiesLike, params: EDParams) -> Superoperator:
    """Dephasing Liouvillian, diagonal in the vectorized eigenbasis.

    Entry (n*d + m) is -(i/hbar)*(E_n - E_m) - gamma*(E_n - E_m)^2; matches the
    Lindblad generator with the single generator-only operator N_1 = H.
    """
    e = as_energies(energies)
    w = (e[:, np.newaxis] - e[np.newaxis, :]).reshape(-1)
    diag = -1j * w / params.hbar - params.gamma * w**2
    return Superoperator(np.diag(diag), e.size)
