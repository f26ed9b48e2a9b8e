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
from typing import List, NamedTuple, Sequence

import numpy as np

from .pqc import Superoperator
from .rmt import _check_scales
from .states import EnergiesLike, as_energies, make_cgs, plateau_value

__all__ = [
    "ed_evolve",
    "EDClosedForms",
    "ed_closed_forms",
    "taylor_lower_bound",
    "ed_liouvillian",
]

# Pair terms per block of times in `ed_closed_forms`: 512 KB per float buffer,
# so the two block buffers stay in cache.
_PAIR_BLOCK = 1 << 16

# `np.exp(x)` is exactly 0.0 for x < -745.14; `ed_closed_forms` skips the pair
# terms with gamma*t*w^2 > _UNDERFLOW, and the margin covers the rounding of
# that product.
_UNDERFLOW = 746.0


def _check_times(t, name: str = "times") -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise ValueError(f"{name} must be finite and >= 0")
    return t


def ed_evolve(rho0: np.ndarray, energies: EnergiesLike, gamma: float, t: float, hbar: float = 1.0) -> np.ndarray:
    """Exact dephasing propagation of rho0 (eigenbasis) to time t >= 0."""
    _check_scales(gammas=[gamma], hbar=hbar)
    tt = float(_check_times(t))
    m = np.asarray(rho0, dtype=complex)
    e = as_energies(energies)
    if m.shape[0] != e.size:
        raise ValueError(f"state dimension {m.shape[0]} != spectrum size {e.size}")
    w = e[:, np.newaxis] - e[np.newaxis, :]
    kernel = np.exp(-1j * tt * w / hbar - gamma * tt * w**2)
    return m * kernel


def _pair_data(energies: EnergiesLike, beta: float):
    """The m < n pair arrays (w, sqrt(p_n*p_m)) of the Gibbs populations p_n, by ascending w^2.

    The third array is each pair's flat index i*d + j into a d x d matrix,
    where w = E_i - E_j, i < j.  The sort is stable, so equal gaps keep the
    row-major pair order.
    """
    e = as_energies(energies)
    a = make_cgs(e, beta).amplitudes
    i, j = np.triu_indices(e.size, k=1)
    w = e[i] - e[j]
    order = np.argsort(w * w, kind="stable")
    i, j = i[order], j[order]
    return w[order], a[i] * a[j], i * e.size + j


class EDClosedForms(NamedTuple):
    """Closed-form dephasing observables on one time grid (floats for scalar t)."""

    sff: np.ndarray
    cl1: np.ndarray
    cl1_gamma_derivative: np.ndarray
    purity: np.ndarray


def ed_closed_forms(
    energies: EnergiesLike, beta: float, gammas: Sequence[float], t, hbar: float = 1.0
) -> List[EDClosedForms]:
    """SFF, l1 coherence, dC_l1/dgamma and purity under dephasing, vectorized over t.

    With w = E_n - E_m and one sum over level pairs m < n,

        SFF(t)       = F_p + 2 * sum p_n p_m exp(-gamma*t*w^2) cos(w*t/hbar)
        C_l1(t)      = 2 * sum sqrt(p_n p_m) exp(-gamma*t*w^2)
        dC_l1/dgamma = -2 * sum sqrt(p_n p_m) t w^2 exp(-gamma*t*w^2)
        purity(t)    = F_p + 2 * sum p_n p_m exp(-2*gamma*t*w^2)

    C_l1 is d - 1 at t = 0, beta = 0.  One call takes a non-empty sequence of
    gammas and returns one EDClosedForms per gamma, in the same order, from a
    single pass over the level pairs.

    The level pairs are taken in ascending order of w^2, once per call.  Per
    block of times the pair cosines come from per-level phases
    theta_n = t*E_n/hbar: cos(w*t/hbar) = cos theta_n cos theta_m +
    sin theta_n sin theta_m, so a time costs d cosines and d sines, and one
    batched matmul of the stacked [cos theta, sin theta] with its transpose
    gives every product, from which the pair entries are taken.  Weighted
    once, q = sqrt(p_n p_m) cos(w*t/hbar), they are shared by every gamma.
    Each gamma then takes u = sqrt(p_n p_m) exp(-gamma*t*w^2) and four
    row-wise `np.vecdot` sums: SFF = F_p + 2 u.q, C_l1 = 2 u.1,
    dC_l1/dgamma = -2t u.w^2 and purity = F_p + 2 u.u.  Past the first
    `cut` pairs of a block, gamma*t*w^2 > 746 at the block's smallest t, so
    `np.exp` would give exactly 0.0 there (it does for any argument below
    -745.14, and the margin covers the rounding of the product); only the
    first `cut` pairs are exponentiated and the rest of u is zero-filled,
    which gives the same bytes as exponentiating every pair.  Blocks hold
    about `_PAIR_BLOCK` pair terms, so the two block buffers (q and u) take
    512 KB each for any grid length (one time row each once d(d-1)/2 is
    larger).  `np.vecdot` sums each full-length row on its own, so a row's
    value depends neither on the block size nor on the rest of the grid or
    the gamma list.  It does depend on the BLAS thread count once a row is
    long enough for the BLAS to split its dot product (OpenBLAS: above
    10^4 pairs, d >= 142).  Scalar t in, floats out.  Times must be finite
    and >= 0; a largest t at which gamma*t*w^2, t*w^2*d or t*|E|/hbar
    overflows raises ValueError.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("need at least one gamma")
    _check_scales(gammas=gammas, hbar=hbar)
    t = _check_times(t)
    e = as_energies(energies)
    # Every product the kernel forms must be finite; as Python floats they overflow to inf
    # quietly, and an infinite gamma*t times a zero w^2 is nan.
    t_top, g_top = float(np.max(t, initial=0.0)), float(max(gammas))
    span, e_top = float(e.max()) - float(e.min()), float(np.abs(e).max())
    scales = (g_top * t_top * (span * span), t_top * (span * span) * e.size, t_top * e_top / float(hbar))
    if not all(map(math.isfinite, scales)):
        raise ValueError(f"t={t_top} with gamma={g_top} overflows gamma*t*w^2, t*w^2*d or t*|E|/hbar")
    w, sqpp, flat_pairs = _pair_data(e, beta)
    w2 = w**2
    ones = np.ones_like(w)
    fp = plateau_value(e, beta)
    flat = np.atleast_1d(t).reshape(-1)
    out = np.empty((len(gammas), 4, flat.size))
    rows = max(1, _PAIR_BLOCK // max(w.size, 1))
    buffers = np.empty((2, min(rows, flat.size), w.size))
    for lo in range(0, flat.size, rows):
        ts = flat[lo:lo + rows, np.newaxis]
        t_lo = float(ts.min())
        q, u = buffers[:, :ts.shape[0]]
        # the same for every gamma: q = sqrt(p_n p_m) cos(w*t/hbar), the
        # cosines from the per-level phases
        theta = ts * e / hbar
        phases = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        products = np.matmul(phases.transpose(0, 2, 1), phases)
        np.take(products.reshape(ts.shape[0], -1), flat_pairs, axis=1, out=q)
        np.multiply(q, sqpp, out=q)
        for gamma, forms in zip(gammas, out):
            block = forms[:, lo:lo + rows]
            # Python floats: a subnormal rate makes the limit inf, without a warning
            rate = float(gamma) * t_lo
            limit = _UNDERFLOW / rate if rate > 0.0 else math.inf
            cut = int(np.searchsorted(w2, limit, side="right"))
            head = u[:, :cut]
            np.multiply(-gamma * ts, w2[:cut], out=head)
            np.exp(head, out=head)
            np.multiply(head, sqpp[:cut], out=head)
            u[:, cut:] = 0.0
            block[0] = fp + 2.0 * np.vecdot(u, q)
            block[1] = 2.0 * np.vecdot(u, ones)
            block[2] = -2.0 * ts[:, 0] * np.vecdot(u, w2)
            block[3] = fp + 2.0 * np.vecdot(u, u)
    if t.ndim == 0:
        return [EDClosedForms(*(float(x[0]) for x in forms)) for forms in out]
    return [EDClosedForms(*(x.reshape(t.shape) for x in forms)) for forms in out]


def taylor_lower_bound(forms: EDClosedForms, dim: int, t, hbar: float = 1.0) -> np.ndarray:
    """(1/d)(1 + C_l1 + t*dC_l1/dgamma/(2*hbar^2)) from beta = 0 closed forms.

    The last term is formed as (t/hbar)*(dC_l1/dgamma/hbar)/2, so a small hbar
    cannot underflow hbar^2 to zero first.  Where it overflows at the largest
    |t| and |dC_l1/dgamma|, ValueError is raised.
    """
    _check_scales(hbar=hbar)
    t = np.asarray(t, dtype=float)
    hbar = float(hbar)
    # Python floats overflow to inf quietly
    t_top = float(np.max(np.abs(t), initial=0.0))
    slope_top = float(np.max(np.abs(forms.cl1_gamma_derivative), initial=0.0))
    if not math.isfinite((t_top / hbar) * (slope_top / hbar) / 2.0):
        raise ValueError(f"t={t_top} with hbar={hbar} overflows the lower bound's t*dC_l1/dgamma/(2*hbar^2)")
    return (1.0 + forms.cl1 + (t / hbar) * (forms.cl1_gamma_derivative / hbar) / 2.0) / dim


def ed_liouvillian(energies: EnergiesLike, gamma: float, hbar: float = 1.0) -> Superoperator:
    """Dephasing Liouvillian, diagonal in the vectorized eigenbasis.

    Entry (n*d + m) is -(i/hbar)*(E_n - E_m) - gamma*(E_n - E_m)^2; matches the
    Lindblad generator with the single operator N_1 = H.
    """
    _check_scales(gammas=[gamma], hbar=hbar)
    e = as_energies(energies)
    w = (e[:, np.newaxis] - e[np.newaxis, :]).reshape(-1)
    diag = -1j * w / hbar - gamma * w**2
    return Superoperator(np.diag(diag))
