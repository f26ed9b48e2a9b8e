"""Property tests: the fused Kraus step against its references, and the two
spacing-ratio paths against each other, over generated channels and clouds."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from openchaos.pqc import (
    ParametricChannel,
    apply_channel,
    apply_interleaved,
    build_superoperator,
    build_wu_channel,
)
from openchaos.rmt import rng_from_seed, sample_goe, sample_kraus_set
from openchaos.spectral import complex_spacing_ratios

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
    for step in (apply_channel, apply_interleaved):
        out = step(ch, rho)
        assert abs(np.trace(out) - np.trace(rho)) <= tol
        assert np.max(np.abs(out - out.conj().T)) <= tol


@given(channels(), seeds)
def test_interleaved_step_matches_wu_matrix(ch, seed):
    rho = _density(ch.dim, seed)
    out = apply_interleaved(ch, rho)
    assert np.max(np.abs(out - build_wu_channel(ch).apply(rho))) <= 1e-13 * np.linalg.norm(rho)


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
