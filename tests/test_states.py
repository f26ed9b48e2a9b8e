"""Coherent Gibbs states, partition functions and vectorization."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from openchaos.rmt import derive_seed, rng_from_seed, sample_goe
from openchaos.states import (
    CoherentGibbsState,
    cgs_density,
    devectorize,
    make_cgs,
    plateau_value,
    vectorize,
)


def test_plateau_value_frozen():
    e = np.array([-1.0, 1.0])
    expect = 2 * math.cosh(2.0) / (2 * math.cosh(1.0)) ** 2
    assert plateau_value(e, 1.0) == pytest.approx(expect, rel=1e-14)
    assert plateau_value(e, 1.0) == pytest.approx(0.790012829192987, rel=1e-12)


def test_plateau_is_uniform_at_infinite_temperature():
    h = sample_goe(12, 1.0, derive_seed(10, 0, 0))
    assert plateau_value(h, 0.0) == pytest.approx(1 / 12, rel=1e-14)


def test_plateau_matches_exact_partition_ratio():
    # Z(2*beta)/Z(beta)^2 at 40 digits; beta = 50 at sigma = 300 puts beta*|E| at
    # 2e4-1e5, far past where exp(-beta*E) overflows in floats
    for d in (4, 8, 16, 32):
        for sigma in (1.0, 30.0, 300.0):
            e = sample_goe(d, sigma, derive_seed(7, 0, d)).energies
            for beta in (0.0, 0.5, 5.0, 50.0):
                with mpmath.workdps(40):
                    levels = [mpmath.mpf(x) for x in e]
                    z1 = mpmath.fsum(mpmath.exp(-beta * x) for x in levels)
                    z2 = mpmath.fsum(mpmath.exp(-2 * beta * x) for x in levels)
                    exact = float(z2 / z1**2)
                got = plateau_value(e, beta)
                assert math.isfinite(got), (d, sigma, beta)
                assert abs(got - exact) <= 2e-15 * exact, (d, sigma, beta, got, exact)


def test_cgs_amplitudes_are_boltzmann():
    h = sample_goe(10, 1.0, derive_seed(10, 0, 1))
    beta = 0.7
    cgs = make_cgs(h, beta)
    p = np.exp(-beta * h.energies)
    p /= p.sum()
    assert np.max(np.abs(cgs.amplitudes**2 - p)) < 1e-14
    assert np.sum(cgs.amplitudes**2) == pytest.approx(1.0, abs=1e-14)


def test_cgs_at_the_largest_beta_is_the_ground_state():
    # beta*(E_n - E_min) overflowed to inf with a warning; its limit exp(-inf) = 0 leaves the ground state.
    # Such a beta lies outside the range of a scale; the range's largest, 1e30, leaves the ground state too
    h = sample_goe(5, 1.0, derive_seed(10, 0, 3))
    with pytest.raises(ValueError, match=r"^beta=1.7976931348623157e\+308 lies outside \[1e-30, 1e\+30\]"):
        make_cgs(h, np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(make_cgs(h, 1e30).amplitudes, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_cgs_uniform_at_beta_zero():
    h = sample_goe(9, 1.0, derive_seed(10, 0, 2))
    cgs = make_cgs(h, 0.0)
    assert np.max(np.abs(cgs.amplitudes - 1 / 3.0)) < 1e-14


def test_cgs_rejects_bad_amplitudes():
    with pytest.raises(ValueError):
        CoherentGibbsState(beta=0.0, amplitudes=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        CoherentGibbsState(beta=0.0, amplitudes=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="1-D"):
        CoherentGibbsState(beta=0.0, amplitudes=np.array([[1.0, 0.0]]))
    # NaN slips past both an ordered sign test and an ordered norm test
    with pytest.raises(ValueError, match="^amplitudes must be non-negative"):
        CoherentGibbsState(beta=0.0, amplitudes=np.array([math.nan, math.nan]))
    with pytest.raises(ValueError, match="^beta must be finite"):
        CoherentGibbsState(beta=math.nan, amplitudes=np.array([1.0, 0.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [make_cgs, plateau_value])
def test_beta_must_be_finite(call, value):
    # make_cgs(e, inf) gave NaN amplitudes, and the state accepted them
    with pytest.raises(ValueError, match="^beta must be finite and >= 0"):
        call(np.array([0.0, 1.0]), value)


@pytest.mark.parametrize("energies", [[0.0, math.nan], [math.inf, 0.0], [0.0, -math.inf]])
@pytest.mark.parametrize("call", [make_cgs, plateau_value])
def test_energies_must_be_finite(call, energies):
    with pytest.raises(ValueError, match=r"^energies=(nan|inf|-inf) lies outside \[-1e\+40, 1e\+40\]"):
        call(energies, 0.0)


def test_cgs_density_is_pure_projector():
    h = sample_goe(8, 1.0, derive_seed(10, 0, 3))
    m = cgs_density(make_cgs(h, 0.5))
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    assert np.max(np.abs(m @ m - m)) < 1e-13
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-13)


def test_vectorize_round_trip():
    rng = rng_from_seed(12)
    m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    assert np.array_equal(devectorize(vectorize(m)), m)
    with pytest.raises(ValueError):
        devectorize(np.zeros(5))  # not a perfect square
    with pytest.raises(ValueError):
        vectorize(np.zeros((2, 3)))  # not square


def test_vectorization_kron_identity():
    # row-major convention: vec(A rho B) = (A kron B^T) vec(rho)
    rng = rng_from_seed(13)
    a, b, rho = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(3))
    lhs = vectorize(a @ rho @ b)
    rhs = np.kron(a, b.T) @ vectorize(rho)
    assert np.max(np.abs(lhs - rhs)) < 1e-12

