"""Property tests: the fused Kraus step against its references, the dense
channel builder against the kron loops and the kick-times-unitary
factorization, channels from a pre-rotated pair against channels from the
raw pair, the buffered observables against the one-state functions, the
two spacing-ratio paths against each other and the brute path
against a per-row lexsort ranking, the shared dephasing kernel against
one-gamma calls, small blocks, the written-out pair sums and the unskipped
exponentials, and the numpy log-sum-exp against scipy's."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from openchaos import dephasing, diagnostics
from openchaos.dephasing import ed_closed_forms
from openchaos.diagnostics import channel_diagnostics, cl1_norm, ed_diagnostics, purity, sff_fidelity
from openchaos.pqc import (
    ParametricChannel,
    apply_channel,
    build_superoperator,
    evolve_discrete,
    in_eigenbasis,
    interleaved,
)
from openchaos.rmt import rng_from_seed, sample_goe, sample_kraus_set
from openchaos.spectral import complex_spacing_ratios
from openchaos.states import cgs_density, make_cgs, plateau_value

seeds = st.integers(min_value=0, max_value=2**32 - 1)
epsilons = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))


@st.composite
def channels(draw):
    d = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(4, d * d - 2)))
    offset = draw(st.integers(1, d * (k - 1))) if k > 1 else 1
    return ParametricChannel(
        tau=draw(st.floats(0.0, 3.0)),
        epsilon=draw(epsilons),
        hamiltonian=sample_goe(d, 1.0, draw(seeds)),
        kraus=sample_kraus_set(d, k, draw(seeds), column_offset=offset),
    )


def _density(d, seed):
    """Full-rank random density matrix G G^dag / Tr(G G^dag)."""
    rng = rng_from_seed(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _loop_step(ch, rho):
    """The mixture step written out term by term: phase twist plus one conjugation per operator."""
    u = np.exp(-1j * ch.tau * ch.energies / ch.hbar)
    out = (1.0 - ch.epsilon) * (np.outer(u, u.conj()) * rho)
    for n in ch.kraus_ops:
        out = out + ch.epsilon * (n @ rho @ n.conj().T)
    return out


@given(channels(), seeds)
def test_fused_step_matches_superoperator_and_operator_loop(ch, seed):
    rho = _density(ch.dim, seed)
    tol = 1e-13 * np.linalg.norm(rho)
    out = apply_channel(ch, rho)
    assert np.max(np.abs(out - build_superoperator(ch).apply(rho))) <= tol
    assert np.max(np.abs(out - _loop_step(ch, rho))) <= tol


@given(channels(), seeds)
def test_fused_step_preserves_trace_and_hermiticity(ch, seed):
    rho = _density(ch.dim, seed)
    tol = 1e-13 * np.linalg.norm(rho)
    for form in (ch, interleaved(ch)):
        out = apply_channel(form, rho)
        assert abs(np.trace(out) - np.trace(rho)) <= tol
        assert np.max(np.abs(out - out.conj().T)) <= tol


def _kron_loop_matrices(ch):
    """The mixture and W_eps U_tau matrices written out with one kron loop each."""
    d = ch.dim
    w = ch.energies[np.newaxis, :] - ch.energies[:, np.newaxis]
    diag = np.exp(1j * ch.tau * w / ch.hbar).reshape(-1)
    mixture = np.diag((1.0 - ch.epsilon) * diag)
    for n in ch.kraus_ops:
        mixture += ch.epsilon * np.kron(n, n.conj())
    kick = (1.0 - ch.epsilon) * np.eye(d * d, dtype=complex)
    for n in ch.kraus_ops:
        kick += ch.epsilon * np.kron(n, n.conj())
    return mixture, kick * diag[np.newaxis, :]


@given(channels(), seeds)
def test_interleaved_step_matches_wu_matrix(ch, seed):
    # W_eps U_tau written out term by term: sigma = U rho U^dag is the phase
    # twist of rho, then (1-eps) sigma + eps sum_r N_r sigma N_r^dag
    rho = _density(ch.dim, seed)
    tol = 1e-13 * np.linalg.norm(rho)
    e = ch.energies
    sigma = np.exp(-1j * ch.tau * (e[:, np.newaxis] - e[np.newaxis, :]) / ch.hbar) * rho
    expect = (1.0 - ch.epsilon) * sigma
    for n in ch.kraus_ops:
        expect = expect + ch.epsilon * (n @ sigma @ n.conj().T)
    out = apply_channel(interleaved(ch), rho)
    assert np.max(np.abs(out - expect)) <= tol
    wu = _kron_loop_matrices(ch)[1]
    assert np.max(np.abs(out.reshape(-1) - wu @ rho.reshape(-1))) <= tol


@given(channels())
def test_shared_builder_matches_the_kron_loops_bytewise(ch):
    assert np.array_equal(build_superoperator(ch).matrix, _kron_loop_matrices(ch)[0])


@given(channels())
def test_channel_matrices_factor_into_kick_and_unitary(ch):
    # U_tau is the mixture at eps = 0, W_eps the mixture at tau = 0
    def at(tau, eps):
        return build_superoperator(ParametricChannel(
            tau=tau, epsilon=eps, hamiltonian=ch.hamiltonian, kraus=ch.kraus, hbar=ch.hbar,
        )).matrix

    u, w = at(ch.tau, 0.0), at(0.0, ch.epsilon)
    one = np.eye(ch.dim**2)
    assert np.max(np.abs(build_superoperator(interleaved(ch)).matrix - w @ u)) <= 1e-13
    mixture = (1.0 - ch.epsilon) * u + w - (1.0 - ch.epsilon) * one
    assert np.max(np.abs(build_superoperator(ch).matrix - mixture)) <= 1e-13


@given(st.integers(2, 16), st.integers(1, 4), seeds, seeds, st.floats(0.0, 3.0), epsilons)
def test_channel_from_rotated_pair_has_the_raw_pair_constants_bytewise(d, k, hseed, kseed, tau, eps):
    h = sample_goe(d, 1.0, hseed)
    kraus = sample_kraus_set(d, min(k, d * d - 2), kseed)
    rh, rk = in_eigenbasis(h, kraus)
    assert rh.matrix is None and rh.eigenvectors is None
    assert (rh.dim, rh.sigma, rh.seed, rk.seed) == (h.dim, h.sigma, h.seed, kraus.seed)
    assert np.array_equal(rh.energies, h.energies)
    raw = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=kraus)
    pre = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=rh, kraus=rk)
    for name in ("kraus_ops", "mask", "kraus_adjoints"):
        assert np.array_equal(getattr(raw, name), getattr(pre, name)), name
    assert np.array_equal(build_superoperator(raw).matrix, build_superoperator(pre).matrix)


@given(
    st.integers(2, 40), seeds, seeds, epsilons, st.sampled_from([0.0, 0.7]),
    st.integers(0, 3), st.integers(1, 2), st.integers(-1, 1), st.one_of(st.none(), seeds),
)
@example(40, 0, 0, 0.3, 0.0, 0, 2, 1, None)
@example(40, 0, 0, 0.3, 0.7, 0, 1, 0, 5)
def test_batched_observables_match_the_one_state_functions_bytewise(
    d, hseed, kseed, eps, beta, per_buffer, fills, offset, sparse_seed,
):
    """The buffered reductions give the bytes of sff_fidelity, cl1_norm and purity per state.

    The buffer holds `per_buffer` states (at 0 one state is over the budget
    and the buffer holds it alone), and the record count falls one below, on
    or one above a buffer boundary.  Sparse records skip up to 3 steps in 4.
    """
    state_bytes = 16 * d * d
    budget = per_buffer * state_bytes if per_buffer else state_bytes - 1
    n = max(1, fills * max(per_buffer, 1) + offset)
    if sparse_seed is None:
        record = np.arange(n)
    else:
        record = np.sort(rng_from_seed(sparse_seed).choice(4 * n, n, replace=False))
    ch = ParametricChannel(
        tau=0.3, epsilon=eps, hamiltonian=sample_goe(d, 1.0, hseed),
        kraus=sample_kraus_set(d, min(3, d * d - 2), kseed),
    )
    with mock.patch.object(diagnostics, "_OBSERVE_BYTES", budget):
        series = channel_diagnostics(ch, beta, int(record[-1]), record_steps=record)
    cgs = make_cgs(ch.energies, beta)
    states = list(evolve_discrete(ch, cgs_density(cgs), int(record[-1])))
    recorded = [states[j] for j in record]
    assert np.array_equal(series.sff, [sff_fidelity(cgs, rho) for rho in recorded])
    assert np.array_equal(series.cl1, [cl1_norm(rho) for rho in recorded])
    assert np.array_equal(series.purity, [purity(rho) for rho in recorded])


def _assert_paths_agree(points):
    brute = complex_spacing_ratios(points, method="brute")
    fast = complex_spacing_ratios(points, method="kdtree")
    assert np.array_equal(brute.nn_indices, fast.nn_indices)
    assert np.array_equal(brute.nnn_indices, fast.nnn_indices)
    assert np.array_equal(brute.ratios, fast.ratios, equal_nan=True)


coords = st.floats(-2.0, 2.0, allow_subnormal=False)


@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=80))
def test_csr_paths_agree_on_random_clouds(xy):
    _assert_paths_agree(np.array([complex(x, y) for x, y in xy]))


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=80))
def test_csr_paths_agree_on_degenerate_clouds(xy):
    # a small lattice: coincident points and many equal distances
    _assert_paths_agree(np.array([complex(x, y) for x, y in xy]))


@given(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=40),
    st.integers(1, 12),
)
def test_csr_paths_agree_on_conjugate_symmetric_clouds(xy, ones):
    # a channel spectrum's shape: conjugate pairs plus a stack of eigenvalues at 1
    z = np.array([complex(x, y) for x, y in xy])
    _assert_paths_agree(np.concatenate([z, z.conj(), np.ones(ones, dtype=complex)]))


def _lexsort_neighbours(points):
    """nn and nnn of every point, one full lexsort per row: distance first, then index."""
    n = points.size
    nn, nnn = np.empty(n, dtype=int), np.empty(n, dtype=int)
    for r in range(n):
        row = (points[r].real - points.real) ** 2 + (points[r].imag - points.imag) ** 2
        row[r] = np.inf
        order = np.lexsort((np.arange(n), row))
        nn[r], nnn[r] = order[0], order[1]
    return nn, nnn


@given(seeds, st.integers(0, 300), st.integers(0, 300), st.integers(0, 40), st.booleans())
def test_brute_neighbours_match_a_per_row_lexsort_on_tied_clouds(seed, lattice, reals, scattered, shuffle):
    # a lattice (coincident points, many equal distances), exact reals, an
    # 8-fold degenerate eigenvalue and a few generic points; up to ~650 points,
    # so the 256-row blocks are crossed
    rng = rng_from_seed(seed)
    z = np.concatenate([
        rng.integers(-4, 5, lattice) + 1j * rng.integers(-4, 5, lattice),
        rng.integers(-8, 9, reals) / 4.0 + 0j,
        np.full(8, 0.5 + 0.25j),
        rng.normal(size=scattered) + 1j * rng.normal(size=scattered),
    ])
    if shuffle:
        z = rng.permutation(z)
    nn, nnn = _lexsort_neighbours(z)
    brute = complex_spacing_ratios(z, method="brute")
    assert np.array_equal(brute.nn_indices, nn)
    assert np.array_equal(brute.nnn_indices, nnn)


gammas = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=4)
betas = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
hbars = st.sampled_from([1.0, 0.7, 2.5])
times = st.one_of(
    st.floats(0.0, 50.0),
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30).map(np.array),
)


def _pair_sums(e, beta, gamma, hbar, t):
    """The four closed forms of one gamma as whole-grid pair sums, without blocks or buffers."""
    w, sqpp, _ = dephasing._pair_data(e, beta)
    pp = sqpp * sqpp
    fp = plateau_value(e, beta)
    ts = np.atleast_1d(t).reshape(-1)[:, np.newaxis]
    damp = np.exp(-gamma * ts * w**2)
    sums = (
        fp + 2.0 * np.sum(pp * damp * np.cos(w * ts / hbar), axis=1),
        2.0 * np.sum(sqpp * damp, axis=1),
        -2.0 * np.sum(sqpp * ts * w**2 * damp, axis=1),
        fp + 2.0 * np.sum(pp * np.exp(-2.0 * gamma * ts * w**2), axis=1),
    )
    return [x.reshape(np.shape(t)) for x in sums]


@given(st.integers(2, 24), seeds, gammas, betas, times, hbars, st.integers(1, 64))
def test_shared_kernel_matches_one_gamma_calls_bytewise(d, seed, gs, beta, t, hbar, block):
    """Shared, one-gamma and small-block calls agree bytewise; the pair sums to roundoff.

    The kernel takes the pair cosines from per-level phases t*E/hbar, whose
    rounding grows with t*max|E|/hbar, and sums rows with `np.vecdot`, so
    against the written-out sums SFF and purity are bounded by
    1e-13 * (1 + t*max|E|/hbar).  The terms of C_l1 and of its derivative
    all have one sign, so the sum of their absolute values is |sum| and
    those two are bounded by 1e-13 * |sum|.  Below the normal range (a
    subnormal t) the written-out products t * ... round absolutely, so the
    bound also allows the smallest normal float.
    """
    e = sample_goe(d, 1.0, seed).energies
    shared = ed_closed_forms(e, beta, gs, t, hbar)
    with mock.patch.object(dephasing, "_PAIR_BLOCK", block):
        tiny = ed_closed_forms(e, beta, gs, t, hbar)
    assert len(shared) == len(tiny) == len(gs)
    phase = 1.0 + np.asarray(t) * np.max(np.abs(e)) / hbar
    for g, forms, tiny_forms in zip(gs, shared, tiny):
        (one,) = ed_closed_forms(e, beta, [g], t, hbar)
        sums = _pair_sums(e, beta, g, hbar, t)
        scales = (phase, np.abs(sums[1]), np.abs(sums[2]), phase)
        for field, x, y, z, r, scale in zip(forms._fields, forms, one, tiny_forms, sums, scales):
            assert np.shape(x) == np.shape(t), field
            assert np.array_equal(x, y) and np.array_equal(x, z), field
            assert np.all(np.abs(x - r) <= 1e-13 * scale + np.finfo(float).tiny), field


@given(
    st.integers(2, 24), seeds, gammas, betas, st.lists(st.floats(0.0, 1e4), min_size=1, max_size=30),
    st.lists(st.floats(700.0, 760.0), max_size=8), hbars, st.integers(1, 64),
)
@example(2, 0, [1.0], 0.0, [0.0], [744.5], 1.0, 1)
@example(24, 0, [0.3], 0.0, [1.0], [735.0], 1.0, 8)
def test_underflow_skip_matches_exponentiating_every_pair_bytewise(d, seed, gs, beta, t, edges, hbar, block):
    """Zero-filling the pair terms past gamma*t*w^2 = 746 gives the bytes of exponentiating them.

    Times up to 1e4 underflow whole blocks.  The `edges` put gamma*t*w^2 of
    the closest level pair near the threshold, where every other pair term
    is smaller still; there a threshold below 745 zeroes terms whose
    exponential is not 0.0 (the examples: d = 2 at 744.5, whose one term is
    a subnormal, and d = 24 at 735).
    """
    e = sample_goe(d, 1.0, seed).energies
    gap2 = float(np.min(np.diff(e))) ** 2
    t = t + [x / (g * gap2) for g in gs if g >= 1e-3 and gap2 > 0.0 for x in edges]
    with mock.patch.object(dephasing, "_PAIR_BLOCK", block):
        skipped = ed_closed_forms(e, beta, gs, np.array(t), hbar)
        with mock.patch.object(dephasing, "_UNDERFLOW", math.inf):
            full = ed_closed_forms(e, beta, gs, np.array(t), hbar)
    for forms, reference in zip(skipped, full):
        for field, x, y in zip(forms._fields, forms, reference):
            assert np.array_equal(x, y), field


@given(st.integers(2, 12), seeds, gammas, betas)
def test_shared_series_match_one_gamma_series(d, seed, gs, beta):
    h = sample_goe(d, 1.0, seed)
    t = np.geomspace(0.1, 30.0, 9)
    for g, s in zip(gs, ed_diagnostics(h, beta, gs, t, 0.7)):
        (one,) = ed_diagnostics(h, beta, [g], t, 0.7)
        for field in ("sff", "cl1", "purity", "lower_bound"):
            assert np.array_equal(getattr(s, field), getattr(one, field)), field
        assert s.plateau == one.plateau

