"""Discrete-time parametric quantum channels and their superoperators.

One step of the channel mixes a Hamiltonian kick with an environment event,

    Lambda_{tau,eps}[rho] = (1-eps) * U rho U^dag + eps * sum_r N_r rho N_r^dag,

with U = exp(-i*tau*H/hbar), eps in [0, 1] the event probability per step and
N_1..N_K a trace-preserving Kraus set.  Evolution over j steps means applying
the same channel j times, t = j*tau.

Everything is done in the eigenbasis of H, where the unitary part of the
vectorized channel

    L_{tau,eps} = (1-eps) * exp(i*tau*(1 (x) H^T - H (x) 1)/hbar)
                  + eps * sum_r N_r (x) conj(N_r)

is diagonal with phases exp(i*tau*(E_m - E_n)/hbar) at row index n*d + m.
Kraus operators handed in along with the eigenvectors of H are rotated into
that basis once, at channel construction, and the channel keeps the rotated
pair, so `dataclasses.replace(channel, tau=..., epsilon=...)` moves it across
a grid without rotating again: the CLI rotates once per realization.

The interleaved product W_eps U_tau (the event after the kick) is the same
kind of channel: W_eps[U rho U^dag] = (1-eps) U rho U^dag
+ eps * sum_r (N_r U) rho (N_r U)^dag, so `interleaved` returns the mixture
channel of the Kraus set {N_r U_tau}, which is trace preserving because U_tau
is unitary.  The two forms agree to first order in eps*tau/hbar.  Every form
steps through `apply_channel` and is written out by `build_superoperator`,
which adds the Kraus part into the diagonal matrix in place, one d x d x d
row block at a time, so a build holds one such block beyond its result.

A channel keeps its Kraus operators side by side in one contiguous d x K*d
block [N_1 | ... | N_K], and their adjoints stacked in a K*d x d block, so a
step is two GEMMs that read both blocks in place.

The Lindblad generator of the continuous weak-coupling limit eps = 2*gamma*tau,

    d rho/dt = -(i/hbar)[H, rho]
               + 2*gamma * sum_r (N_r rho N_r^dag - {N_r^dag N_r, rho}/2),

keeps its own loop for the anticommutator term.  It takes a plain operator
stack, which need not be trace preserving: with the single operator N_1 = H
it collapses to the energy-dephasing master equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .rmt import HamiltonianSpectrum, KrausSet, _check_scales, _check_side
from .states import as_energies

# The largest pair phase tau*(E_max-E_min)/hbar the mask takes from each pair's own gap.  Rounding moves such a
# phase by about |phase|*1e-16 radians, so at 2**26 the pairs still share the level phases of U rho U^dag to 1e-8
# radians; far past it they do not, and the mask stops being positive (smallest eigenvalue -0.045 at tau=1e14,
# d=4, sigma=hbar=1).  Above it the mask is the outer product of the level phases.
_PAIR_PHASE_MAX = 2.0**26

__all__ = [
    "Superoperator",
    "ParametricChannel",
    "interleaved",
    "apply_channel",
    "build_superoperator",
    "evolve_discrete",
    "lindblad_generator",
]


@dataclass(frozen=True)
class Superoperator:
    """Dense d^2 x d^2 matrix acting on row-major vectorized operators; d is `hilbert_dim`."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or math.isqrt(m.shape[0]) ** 2 != m.shape[0]:
            raise ValueError(f"matrix must be square with a perfect-square side, got shape {m.shape}")

    @property
    def hilbert_dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Matrix action devectorize(L @ vectorize(rho))."""
        return (self.matrix @ rho.reshape(-1)).reshape(rho.shape)

    def trace_defect(self) -> float:
        """Max norm of the identity row functional (1| L - (1|; zero iff trace preserving."""
        d = self.hilbert_dim
        one = np.eye(d, dtype=complex).reshape(-1)
        return float(np.max(np.abs(one @ self.matrix - one)))


def _to_eigenbasis(hamiltonian: HamiltonianSpectrum, operators: np.ndarray) -> np.ndarray:
    """A (K, d, d) operator stack conjugated by the eigenvector matrix of H, if one was kept."""
    q = hamiltonian.eigenvectors
    if q is None:
        return operators
    return np.einsum("in,rij,jm->rnm", q.conj(), operators, q)


@dataclass(frozen=True)
class ParametricChannel:
    """One (tau, eps) channel tied to a sampled Hamiltonian and Kraus set.

    The channel works in the H eigenbasis.  If the Hamiltonian carries its
    eigenvectors, the Kraus set is taken to be in the basis of its matrix and
    is rotated here, once: the channel then holds the rotated `KrausSet` (seed
    kept) as `kraus` and the spectrum without matrix and eigenvectors as
    `hamiltonian`, so `replace(channel, tau=..., epsilon=...)` rotates nothing.
    States handed to `apply_channel` are understood in the eigenbasis as
    well, which is where the coherent Gibbs state lives anyway.  In the
    domains of `rmt` the largest phase the mask or `interleaved` forms,
    tau*max(E_max - E_min, max|E|)/hbar, stays below 2e100, and 1/hbar below
    1e30.

    The constants of one step are built here as well: the (1-eps)-weighted
    phase twist `mask[n, m] = (1-eps) * exp(-i*tau*(E_n - E_m)/hbar)` of
    U rho U^dag (past `_PAIR_PHASE_MAX`, (1-eps) * u_n * conj(u_m) with
    u = exp(-i*tau*E/hbar), which stays positive), the operators laid out
    side by side as one contiguous (d, K*d) block [N_1 | ... | N_K], of
    which `kraus_ops` is the (K, d, d) view, and the adjoints stacked as
    [N_1^dag; ...; N_K^dag], a (K*d, d) matrix.
    """

    tau: float
    epsilon: float
    hamiltonian: HamiltonianSpectrum
    kraus: KrausSet
    hbar: float = 1.0
    kraus_ops: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)
    kraus_adjoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_scales(tau=self.tau, epsilon=self.epsilon, hbar=self.hbar)
        h, kraus = self.hamiltonian, self.kraus
        if kraus.dim != h.dim:
            raise ValueError(f"Kraus dimension {kraus.dim} != Hamiltonian dimension {h.dim}")
        if h.eigenvectors is not None:
            object.__setattr__(self, "kraus", KrausSet(_to_eigenbasis(h, kraus.operators), seed=kraus.seed))
            object.__setattr__(self, "hamiltonian", replace(h, matrix=None, eigenvectors=None))
        ops = np.ascontiguousarray(self.kraus.operators.transpose(1, 0, 2)).transpose(1, 0, 2)  # (d, K, d) memory
        k, d = ops.shape[0], ops.shape[1]
        if self.tau * (float(h.energies[-1]) - float(h.energies[0])) / self.hbar <= _PAIR_PHASE_MAX:
            w = self.energies[np.newaxis, :] - self.energies[:, np.newaxis]  # w[n, m] = E_m - E_n
            phases = np.exp(1j * self.tau * w / self.hbar)
        else:
            u = np.exp(-1j * self.tau * self.energies / self.hbar)
            phases = np.outer(u, u.conj())
            np.fill_diagonal(phases, 1.0)  # |u_n|^2 may round off 1; the populations stay exact
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "mask", (1.0 - self.epsilon) * phases)
        object.__setattr__(self, "kraus_adjoints", ops.conj().transpose(0, 2, 1).reshape(k * d, d))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def energies(self) -> np.ndarray:
        return self.hamiltonian.energies


def interleaved(channel: ParametricChannel) -> ParametricChannel:
    """The interleaved step W_eps U_tau (event after the kick) at the same (tau, eps, hbar).

    It is the mixture channel of the Kraus set {N_r U_tau}.  In the
    eigenbasis U_tau is diagonal, so N_r U_tau scales column m of N_r by
    exp(-i*tau*E_m/hbar).  The channel's pair is already in the eigenbasis,
    so `replace` swaps in that Kraus set and rotates nothing.
    """
    u = np.exp(-1j * channel.tau * channel.energies / channel.hbar)
    return replace(channel, kraus=KrausSet(channel.kraus_ops * u, seed=channel.kraus.seed))


def _kraus_sum(channel: ParametricChannel, m: np.ndarray) -> np.ndarray:
    """sum_r N_r m N_r^dag as two GEMMs, with no copy between them.

    The block [N_1 | ... | N_K] read as (d*K, d) has row n*K + r equal to
    row n of N_r, so one GEMM with m gives [N_1 m | ... | N_K m] as a
    (d, K*d) matrix by reshape alone.  It is multiplied by the stacked
    adjoints [N_1^dag; ...; N_K^dag]; the inner product runs over r as well.
    """
    k, d = channel.kraus_ops.shape[0], channel.kraus_ops.shape[1]
    bm = channel.kraus_ops.transpose(1, 0, 2).reshape(d * k, d) @ m
    return bm.reshape(d, k * d) @ channel.kraus_adjoints


def _as_state(channel: ParametricChannel, rho: np.ndarray) -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.shape != (channel.dim, channel.dim):
        raise ValueError(f"state shape {m.shape} does not fit channel dimension {channel.dim}")
    return m


def apply_channel(channel: ParametricChannel, rho: np.ndarray) -> np.ndarray:
    """One step of the mixture (1-eps) U rho U^dag + eps sum_r N_r rho N_r^dag.

    The unitary part is the elementwise phase twist `mask * rho` in the
    eigenbasis; the Kraus part is two GEMMs, O(K d^3), and is skipped at eps = 0.
    """
    m = _as_state(channel, rho)
    out = channel.mask * m
    if channel.epsilon > 0.0:
        kick = _kraus_sum(channel, m)
        kick *= channel.epsilon
        out += kick
    return out


def evolve_discrete(channel: ParametricChannel, rho0: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Yield rho_0, rho_1, ..., rho_steps under repeated `apply_channel` steps.

    Streaming generator: memory stays O(d^2) no matter how long the run is,
    so diagnostics can be accumulated on the fly.  The interleaved form is
    stepped by handing in `interleaved(channel)`.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    state = np.array(rho0, dtype=complex)
    yield state
    for _ in range(steps):
        state = apply_channel(channel, state)
        yield state


def build_superoperator(channel: ParametricChannel) -> Superoperator:
    """Dense matrix of Lambda_{tau,eps} in the H eigenbasis.

    The diagonal is the flattened `mask`, (1-eps) times the phases
    exp(i*tau*(E_m - E_n)/hbar) at n*d + m.  The Kraus part
    eps * sum_r N_r (x) conj(N_r) is added into it in place: read as
    (d, d, d, d), entry (i*d + k, j*d + l) is [i, k, j, l], so row block i
    of N (x) conj(N) is the d x d x d block N[i, j] * conj(N[k, l]).  Each
    block is formed, scaled by eps and added in operator order, the same
    products, scalings and sums as `m += eps * np.kron(N, N.conj())`, so the
    bytes are those of the kron sum, while the build holds one 16*d^3-byte
    block beyond its 16*d^4-byte result instead of three matrices.  The side
    d^2 is checked against the dense-matrix limit 4096 before anything is
    allocated.
    """
    _check_side(channel.dim**2, "the superoperator side d^2")
    d, eps = channel.dim, channel.epsilon
    m = np.diag(channel.mask.reshape(-1))
    rows = m.reshape(d, d, d, d)
    block = np.empty((d, d, d), dtype=complex)
    for n in channel.kraus_ops:
        nc = n.conj()[:, np.newaxis, :]
        for i in range(d):
            np.multiply(n[i, :, np.newaxis], nc, out=block)
            np.multiply(eps, block, out=block)
            rows[i] += block
    return Superoperator(m)


def lindblad_generator(
    hamiltonian: HamiltonianSpectrum,
    operators: np.ndarray,
    gamma: float,
    hbar: float = 1.0,
) -> Superoperator:
    """Generator of the continuous limit eps = 2*gamma*tau, tau -> 0.

    L = -(i/hbar)(H (x) 1 - 1 (x) H^T)
        + 2*gamma * sum_r [ N_r (x) conj(N_r)
                            - (N_r^dag N_r (x) 1 + 1 (x) (N_r^dag N_r)^T)/2 ]

    built in the H eigenbasis.  `operators` is a (K, d, d) stack N_1..N_K in
    the basis of H's matrix, and need not be trace preserving; with the single
    operator N_1 = H (`h.matrix[np.newaxis]`) the result is the
    energy-dephasing Liouvillian, diagonal with entries
    -(i/hbar)*(E_n - E_m) - gamma*(E_n - E_m)^2.
    """
    _check_scales(gammas=[gamma], hbar=hbar)
    d = hamiltonian.dim
    operators = np.asarray(operators, dtype=complex)
    if operators.ndim != 3 or operators.shape[1:] != (d, d):
        raise ValueError(f"operators must have shape (K, {d}, {d}), got {operators.shape}")
    e = as_energies(hamiltonian)
    ident = np.eye(d, dtype=complex)
    w = e[:, np.newaxis] - e[np.newaxis, :]  # w[n, m] = E_n - E_m
    gen = np.diag((-1j / hbar) * w.reshape(-1)).astype(complex)
    for n in _to_eigenbasis(hamiltonian, operators):
        ndn = n.conj().T @ n
        gen += 2.0 * gamma * (
            np.kron(n, n.conj())
            - 0.5 * (np.kron(ndn, ident) + np.kron(ident, ndn.T))
        )
    return Superoperator(gen)
