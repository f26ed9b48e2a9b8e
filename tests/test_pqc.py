"""Discrete channel: Kraus form vs superoperator matrix, limits and fixed points."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from openchaos import pqc
from openchaos.dephasing import ed_liouvillian
from openchaos.pqc import (
    ParametricChannel,
    Superoperator,
    apply_channel,
    build_superoperator,
    evolve_discrete,
    interleaved,
    lindblad_generator,
)
from openchaos.rmt import derive_seed, sample_goe, sample_kraus_set
from openchaos.states import cgs_density, make_cgs, vectorize


def _channel(d=8, tau=0.1, eps=0.2, seed=31, idx=0, k=3):
    h = sample_goe(d, 1.0, derive_seed(seed, 0, idx))
    ks = sample_kraus_set(d, k, derive_seed(seed, 1, idx))
    return ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=ks)


def test_kraus_and_superoperator_routes_agree():
    # the central dual-path identity, over several random channels and steps
    for idx in range(5):
        ch = _channel(idx=idx, tau=0.3, eps=0.35)
        sup = build_superoperator(ch)
        rho = cgs_density(make_cgs(ch.hamiltonian, 0.1))
        for _ in range(5):
            via_kraus = apply_channel(ch, rho)
            via_matrix = sup.apply(rho)
            assert np.max(np.abs(via_kraus - via_matrix)) < 1e-12
            rho = via_kraus


def test_superoperator_is_trace_preserving():
    for idx in range(5):
        ch = _channel(idx=idx, tau=0.7, eps=0.6)
        assert build_superoperator(ch).trace_defect() < 1e-12
        assert build_superoperator(interleaved(ch)).trace_defect() < 1e-12
    assert build_superoperator(ch).hilbert_dim == ch.dim == 8
    # a 6 x 6 matrix acts on no d x d operator, so it has no trace to keep
    with pytest.raises(ValueError, match="perfect-square side"):
        Superoperator(np.eye(6))


def _kron_superoperator(ch):
    """The superoperator as the sum of Kronecker products: the oracle of the in-place row-block build."""
    m = np.diag(ch.mask.reshape(-1))
    for n in ch.kraus_ops:
        m += ch.epsilon * np.kron(n, n.conj())
    return m


@pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 5, 12, 20) for k in (1, 3, 5) if k <= d * d - 2])
def test_superoperator_build_is_byte_equal_to_the_kron_sum(d, k):
    for eps in (0.0, 0.2, 1.0):
        ch = _channel(d=d, tau=0.7, eps=eps, k=k, idx=d)
        for form in (ch, interleaved(ch)):
            assert build_superoperator(form).matrix.tobytes() == _kron_superoperator(form).tobytes()


@pytest.mark.parametrize("d", [20, 32])
def test_superoperator_build_holds_little_beyond_its_result(d):
    # the kron sum peaks at 3.00x the matrix; the row-block build at 1 + 1/d plus the ufunc buffers
    ch = _channel(d=d, tau=1.0, eps=0.2)
    tracemalloc.start()
    try:
        build_superoperator(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * d**4


def _factors(ch):
    """U_tau (the channel at eps = 0) and W_eps (the channel at tau = 0)."""
    def at(tau, eps):
        return build_superoperator(ParametricChannel(
            tau=tau, epsilon=eps, hamiltonian=ch.hamiltonian, kraus=ch.kraus, hbar=ch.hbar,
        )).matrix

    return at(ch.tau, 0.0), at(0.0, ch.epsilon)


def test_channel_factorizes_into_unitary_and_kick():
    ch = _channel(tau=0.2, eps=0.3)
    u, kick = _factors(ch)
    d2 = ch.dim**2
    expect = (1 - ch.epsilon) * u + kick - (1 - ch.epsilon) * np.eye(d2)
    assert np.max(np.abs(build_superoperator(ch).matrix - expect)) < 1e-12


def test_wu_channel_is_kick_times_unitary():
    ch = _channel(tau=0.2, eps=0.3)
    u, kick = _factors(ch)
    expect = kick @ u
    assert np.max(np.abs(build_superoperator(interleaved(ch)).matrix - expect)) < 1e-12


def test_channel_forms_coincide_at_tau_zero():
    # U_tau = 1 exactly, so the dressed operators N_r U_tau are the N_r themselves
    ch = _channel(tau=0.0, eps=0.4)
    a = build_superoperator(ch).matrix
    b = build_superoperator(interleaved(ch)).matrix
    assert np.array_equal(a, b)


def test_channel_forms_differ_at_first_order_in_tau():
    # mixture and interleaved products differ by eps*M*(U-1) = O(eps*tau)
    h = sample_goe(16, 1.0, derive_seed(31, 0, 9))
    ks = sample_kraus_set(16, 3, derive_seed(31, 1, 9))
    gaps = []
    taus = (1e-2, 1e-3, 1e-4)
    for tau in taus:
        ch = ParametricChannel(tau=tau, epsilon=0.5, hamiltonian=h, kraus=ks)
        gap = build_superoperator(ch).matrix - build_superoperator(interleaved(ch)).matrix
        gaps.append(np.max(np.abs(gap)))
    slope = np.polyfit(np.log(taus), np.log(gaps), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_isolated_channel_phases_on_unit_circle():
    ch = _channel(tau=0.4, eps=0.0)
    ev = np.linalg.eigvals(build_superoperator(ch).matrix)
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-10
    # phases are exactly the gap angles tau*(E_m - E_n)
    e = ch.hamiltonian.energies
    expect = np.sort(np.angle(np.exp(1j * ch.tau * (e[None, :] - e[:, None])).reshape(-1)))
    assert np.max(np.abs(np.sort(np.angle(ev)) - expect)) < 1e-10


def test_isolated_sff_matches_partition_function_ratio():
    # eps=0 evolution of the coherent Gibbs state reproduces |Z(it)/Z|^2 at beta=0
    ch = _channel(tau=0.25, eps=0.0)
    d = ch.dim
    cgs = make_cgs(ch.hamiltonian, 0.0)
    rho = cgs_density(cgs)
    e = ch.hamiltonian.energies
    for j, state in enumerate(evolve_discrete(ch, rho, 6)):
        z = np.sum(np.exp(-1j * j * ch.tau * e)) / d
        direct = float(np.real(cgs.amplitudes @ state @ cgs.amplitudes))
        assert direct == pytest.approx(abs(z) ** 2, abs=1e-12)


def test_sff_equals_superoperator_entry_sum():
    # at beta=0 the fidelity is the plain mean of all d^2 superoperator-power entries
    ch = _channel(tau=0.15, eps=0.25)
    d = ch.dim
    cgs = make_cgs(ch.hamiltonian, 0.0)
    rho = cgs_density(cgs)
    m = build_superoperator(ch).matrix
    power = np.eye(d * d, dtype=complex)
    for j, state in enumerate(evolve_discrete(ch, rho, 8)):
        if j > 0:
            power = m @ power
        via_sum = float(np.real(np.sum(power))) / d**2
        direct = float(np.real(cgs.amplitudes @ state @ cgs.amplitudes))
        assert direct == pytest.approx(via_sum, abs=1e-10)


def test_unital_single_kraus_channel_fixes_maximally_mixed():
    ch = _channel(tau=0.3, eps=0.45, k=1)
    d = ch.dim
    rho = np.eye(d, dtype=complex) / d
    out = apply_channel(ch, rho)
    assert np.max(np.abs(out - rho)) < 1e-13


def test_fixed_point_eigenvalue_exists():
    ch = _channel(tau=0.6, eps=0.3, idx=2)
    ev = np.linalg.eigvals(build_superoperator(ch).matrix)
    assert np.min(np.abs(ev - 1.0)) < 1e-8


def test_markov_generator_with_hamiltonian_kraus_is_dephasing():
    # N_1 = H makes the dissipator the double commutator: exactly the
    # dephasing Liouvillian, entry by entry
    d, gamma = 8, 0.3
    h = sample_goe(d, 1.0, derive_seed(31, 0, 5))
    gen = lindblad_generator(h, h.matrix[np.newaxis], gamma)
    led = ed_liouvillian(h, gamma)
    assert np.max(np.abs(gen.matrix - led.matrix)) < 1e-12


def test_markov_generator_preserves_trace():
    d = 6
    h = sample_goe(d, 1.0, derive_seed(31, 0, 6))
    ks = sample_kraus_set(d, 3, derive_seed(31, 1, 6))
    gen = lindblad_generator(h, ks.operators, 0.4)
    one = np.eye(d, dtype=complex).reshape(-1)
    assert np.max(np.abs(one @ gen.matrix)) < 1e-12


def test_markov_limit_fixed_horizon_first_order():
    d, gamma, t = 6, 0.5, 1.0
    h = sample_goe(d, 1.0, derive_seed(31, 0, 7))
    ks = sample_kraus_set(d, 3, derive_seed(31, 1, 7))
    target = expm(t * lindblad_generator(h, ks.operators, gamma).matrix)
    errs, taus = [], (1e-2, 1e-3, 1e-4)
    for tau in taus:
        ch = ParametricChannel(tau=tau, epsilon=2 * gamma * tau, hamiltonian=h, kraus=ks)
        prop = np.linalg.matrix_power(build_superoperator(ch).matrix, round(t / tau))
        errs.append(np.max(np.abs(prop - target)))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_channel_parameter_validation():
    h = sample_goe(4, 1.0, derive_seed(31, 0, 8))
    ks = sample_kraus_set(4, 2, derive_seed(31, 1, 8))
    with pytest.raises(ValueError):
        ParametricChannel(tau=-0.1, epsilon=0.1, hamiltonian=h, kraus=ks)
    with pytest.raises(ValueError):
        ParametricChannel(tau=0.1, epsilon=1.5, hamiltonian=h, kraus=ks)
    with pytest.raises(ValueError):
        ParametricChannel(tau=0.1, epsilon=0.1, hamiltonian=h, kraus=ks, hbar=0.0)
    with pytest.raises(ValueError, match=r"operators must have shape \(K, 4, 4\)"):
        lindblad_generator(h, ks.operators[:, :3, :3], 0.1)
    # a nan gamma gave a nan generator, and an infinite hbar passed
    for gamma, hbar, name in [(math.nan, 1.0, "gamma"), (math.inf, 1.0, "gamma"), (-0.1, 1.0, "gamma"),
                              (0.1, math.inf, "hbar"), (0.1, math.nan, "hbar"), (0.1, 0.0, "hbar")]:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            lindblad_generator(h, ks.operators, gamma, hbar)


@pytest.mark.parametrize("field, value", [
    ("tau", math.nan), ("tau", math.inf), ("tau", -math.inf), ("epsilon", math.nan), ("epsilon", math.inf),
    ("epsilon", -math.inf), ("hbar", math.nan), ("hbar", math.inf), ("hbar", -math.inf),
])
def test_channel_parameters_must_be_finite(field, value):
    h = sample_goe(4, 1.0, derive_seed(31, 0, 8))
    ks = sample_kraus_set(4, 2, derive_seed(31, 1, 8))
    kwargs = dict(tau=0.1, epsilon=0.1, hamiltonian=h, kraus=ks)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must"):
        ParametricChannel(**kwargs)


def test_evolve_discrete_yields_states_inclusive():
    ch = _channel(tau=0.2, eps=0.1)
    rho = cgs_density(make_cgs(ch.hamiltonian, 0.0))
    states = list(evolve_discrete(ch, rho, 4))
    assert len(states) == 5
    assert np.array_equal(states[0], rho)
    for s in states:
        assert np.trace(s).real == pytest.approx(1.0, abs=1e-12)


def test_step_reads_the_kraus_operators_without_copying():
    # the first GEMM reads [N_1 | ... | N_K] as a (d*K, d) view of kraus_ops
    h = sample_goe(7, 1.0, derive_seed(31, 0, 9))
    ks = sample_kraus_set(7, 3, derive_seed(31, 1, 9))
    raw = ParametricChannel(tau=0.3, epsilon=0.4, hamiltonian=h, kraus=ks)
    for ch in (raw, replace(raw, tau=0.7, epsilon=0.1), interleaved(raw)):
        ops = ch.kraus_ops
        assert ops.shape == (3, 7, 7)
        assert np.shares_memory(ops.transpose(1, 0, 2).reshape(7 * 3, 7), ops)
        assert np.array_equal(ch.kraus_adjoints, ops.conj().transpose(0, 2, 1).reshape(3 * 7, 7))


def test_an_overflowing_phase_raises_naming_tau_and_hbar_before_any_warning():
    # at hbar = 5e-324 tau*(E_m - E_n)/hbar was inf, and at tau = 1e308 as well; both scales lie outside the
    # range of a scale, and the channel names each before it forms a mask
    h = sample_goe(4, 1.0, derive_seed(31, 0, 8))
    ks = sample_kraus_set(4, 2, derive_seed(31, 1, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^hbar=5e-324 lies outside \[1e-30, 1e\+30\]"):
            ParametricChannel(tau=0.5, epsilon=0.3, hamiltonian=h, kraus=ks, hbar=5e-324)
        ch = ParametricChannel(tau=0.5, epsilon=0.3, hamiltonian=h, kraus=ks)
        with pytest.raises(ValueError, match=r"^tau=1e\+308 lies outside \[1e-30, 1e\+30\]"):
            replace(ch, tau=1e308)
        # tau = 0 makes no phase at all, and the smallest phase of the range leaves the mask real to the bit
        assert np.all(replace(ch, tau=0.0).mask == 1.0 - 0.3)
        assert np.all(replace(ch, tau=1e-30, hbar=1e30).mask.real == 1.0 - 0.3)
        # the largest, tau*spread/hbar ~ 1e61, is finite
        assert np.isfinite(replace(ch, tau=1e30, hbar=1e-30).mask).all()


def test_a_reciprocal_hbar_that_overflows_raises_before_any_warning():
    # every phase tau*(E_m - E_n)/hbar is finite at sigma = hbar = 5e-324, but numpy divides the complex
    # phases by hbar as a product with 1/hbar = inf: the mask was nan, with a warning.  Such an hbar lies
    # outside the range of a scale; at the range's end, sigma = hbar = 1e-30, 1/hbar is 1e30
    h = sample_goe(4, 1e-30, derive_seed(31, 0, 9))
    ks = sample_kraus_set(4, 2, derive_seed(31, 1, 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^hbar=5e-324 lies outside \[1e-30, 1e\+30\]"):
            ParametricChannel(tau=1.0, epsilon=0.3, hamiltonian=h, kraus=ks, hbar=5e-324)
        assert np.isfinite(ParametricChannel(tau=1.0, epsilon=0.3, hamiltonian=h, kraus=ks, hbar=1e-30).mask).all()


@pytest.mark.parametrize("tau", [1e10, 1e14, 1e30])
def test_a_mask_of_large_phases_stays_positive(tau):
    # each pair's phase tau*(E_m - E_n)/hbar carried its own rounding, about |phase|*1e-16 radians, so past
    # about 1e14 the mask's smallest eigenvalue reached -1.8 and a coherent Gibbs state stepped to SFF -0.05
    ch = _channel(d=4, tau=tau, eps=0.1, idx=2)
    assert np.linalg.eigvalsh(ch.mask).min() >= -1e-14
    assert np.all(np.diagonal(ch.mask) == 1.0 - 0.1)
    u = np.exp(-1j * tau * ch.energies)
    assert np.allclose(ch.mask, 0.9 * np.outer(u, u.conj()), rtol=0, atol=1e-15)
    psi = make_cgs(ch.hamiltonian, 0.0).amplitudes
    rho = cgs_density(make_cgs(ch.hamiltonian, 0.0))
    for _ in range(5):
        rho = apply_channel(ch, rho)
        assert np.linalg.eigvalsh(rho).min() >= -1e-14
        assert np.real(psi @ rho @ psi) >= 0.0


def test_a_mask_of_small_phases_takes_each_pair_from_its_gap():
    ch = _channel(d=6, tau=0.7, eps=0.2)
    w = ch.energies[np.newaxis, :] - ch.energies[:, np.newaxis]
    assert np.array_equal(ch.mask, 0.8 * np.exp(1j * 0.7 * w / 1.0))


def test_a_channel_keeps_its_pair_in_the_eigenbasis_and_rotates_once(monkeypatch):
    h = sample_goe(5, 1.0, derive_seed(31, 0, 4))
    ks = sample_kraus_set(5, 2, derive_seed(31, 1, 4))
    calls = []
    rotate = pqc._to_eigenbasis
    monkeypatch.setattr(pqc, "_to_eigenbasis", lambda *a: calls.append(a) or rotate(*a))
    ch = ParametricChannel(tau=0.3, epsilon=0.4, hamiltonian=h, kraus=ks)
    assert ch.hamiltonian.matrix is None and ch.hamiltonian.eigenvectors is None
    assert np.array_equal(ch.kraus.operators, rotate(h, ks.operators)) and ch.kraus.seed == ks.seed
    for moved in (replace(ch, tau=0.9, epsilon=0.8), interleaved(ch)):
        assert moved.hamiltonian is ch.hamiltonian
    assert len(calls) == 1


def test_superoperator_side_is_checked_before_anything_is_allocated(monkeypatch):
    # d = 65: a 4225 x 4225 complex matrix, 286 MB
    ch = ParametricChannel(tau=0.1, epsilon=0.2, hamiltonian=sample_goe(65, 1.0, 3),
                           kraus=sample_kraus_set(65, 1, 4))

    def allocate(*args, **kwargs):
        raise AssertionError("np.diag was called")

    monkeypatch.setattr(np, "diag", allocate)
    message = (r"^the superoperator side d\^2 must lie in \[1, 4096\]"
               r" \(a complex 4096 x 4096 matrix holds 256 MiB\), got 4225$")
    with pytest.raises(ValueError, match=message):
        build_superoperator(ch)
