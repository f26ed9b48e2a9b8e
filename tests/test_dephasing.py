"""Closed-form dephasing dynamics against independent integrators."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from openchaos.dephasing import ed_closed_forms, ed_evolve, ed_liouvillian
from openchaos.diagnostics import ed_diagnostics
from openchaos.rmt import derive_seed, sample_goe
from openchaos.states import cgs_density, make_cgs, plateau_value, vectorize, devectorize


def _rk4(deriv, rho0, t, steps):
    """Classic fixed-step RK4; the independent route for the closed form."""
    h = t / steps
    rho = rho0.astype(complex).copy()
    for _ in range(steps):
        k1 = deriv(rho)
        k2 = deriv(rho + 0.5 * h * k1)
        k3 = deriv(rho + 0.5 * h * k2)
        k4 = deriv(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def test_ed_evolve_matches_rk4_in_matrix_basis():
    # integrate d rho/dt = -i[H,rho] - gamma [H,[H,rho]] with the full
    # non-diagonal H, then rotate; exercises both the kernel and the basis
    # conventions at once
    d, gamma, t = 6, 0.13, 0.8
    h = sample_goe(d, 1.0, derive_seed(21, 0, 0))
    q = h.eigenvectors
    rho0_eig = cgs_density(make_cgs(h, 0.2))
    rho0_mat = q @ rho0_eig @ q.conj().T

    def deriv(rho):
        c1 = h.matrix @ rho - rho @ h.matrix
        c2 = h.matrix @ c1 - c1 @ h.matrix
        return -1j * c1 - gamma * c2

    coarse = q.conj().T @ _rk4(deriv, rho0_mat, t, 80) @ q
    fine = q.conj().T @ _rk4(deriv, rho0_mat, t, 160) @ q
    # Richardson sanity: halving the step must shrink the defect ~16x,
    # confirming the defect measures the integrator and not the closed form
    closed = ed_evolve(rho0_eig, h, gamma, t)
    err_coarse = np.max(np.abs(coarse - closed))
    err_fine = np.max(np.abs(fine - closed))
    assert err_coarse < 1e-6
    assert err_fine < err_coarse / 8
    assert err_fine < 1e-9


def test_ed_evolve_matches_liouvillian_exponential():
    d, gamma, t = 8, 0.4, 1.7
    h = sample_goe(d, 1.0, derive_seed(21, 0, 1))
    rho0 = cgs_density(make_cgs(h, 0.0))
    gen = ed_liouvillian(h, gamma)
    propagated = devectorize(expm(t * gen.matrix) @ vectorize(rho0))
    closed = ed_evolve(rho0, h, gamma, t)
    assert np.max(np.abs(propagated - closed)) < 1e-10


def test_ed_evolve_rejects_a_state_of_another_dimension():
    h = sample_goe(4, 1.0, derive_seed(21, 0, 1))
    with pytest.raises(ValueError, match="^state dimension 3 != spectrum size 4$"):
        ed_evolve(np.eye(3) / 3, h, 0.1, 1.0)


def test_ed_sff_matches_fidelity_of_evolved_state():
    d, gamma, beta = 8, 0.25, 0.3
    h = sample_goe(d, 1.0, derive_seed(21, 0, 2))
    cgs = make_cgs(h, beta)
    rho0 = cgs_density(cgs)
    for t in (0.0, 0.4, 2.0, 10.0):
        rho_t = ed_evolve(rho0, h, gamma, t)
        direct = float(np.real(cgs.amplitudes @ rho_t @ cgs.amplitudes))
        assert ed_closed_forms(h, beta, [gamma], t)[0].sff[0] == pytest.approx(direct, abs=1e-12)


def test_ed_sff_gamma_zero_is_isolated_form_factor():
    # no dephasing: SFF reduces to |Z(beta + it)|^2 / Z(beta)^2
    d, beta = 10, 0.3
    h = sample_goe(d, 1.0, derive_seed(21, 0, 3))
    p = np.exp(-beta * h.energies)
    p /= p.sum()
    for t in (0.1, 1.0, 7.0):
        z = np.sum(p * np.exp(-1j * t * h.energies))
        assert ed_closed_forms(h, beta, [0.0], t)[0].sff[0] == pytest.approx(abs(z) ** 2, abs=1e-12)


def _mp_closed_forms(energies, beta, gamma, hbar, times):
    """SFF, C_l1, dC_l1/dgamma and purity as double sums over all levels, at 40 digits.

    The inputs are the kernel's floats, taken exactly; only the result is rounded.
    """
    with mpmath.workdps(40):
        levels = [mpmath.mpf(x) for x in energies]
        weights = [mpmath.exp(-mpmath.mpf(beta) * x) for x in levels]
        p = [x / mpmath.fsum(weights) for x in weights]
        gamma, hbar = mpmath.mpf(gamma), mpmath.mpf(hbar)
        out = []
        for t in map(mpmath.mpf, times):
            sff, cl1, slope, purity = [], [], [], []
            for n, (pn, en) in enumerate(zip(p, levels)):
                for m, (pm, em) in enumerate(zip(p, levels)):
                    w = en - em
                    damp = mpmath.exp(-gamma * t * w**2)
                    sff.append(pn * pm * damp * mpmath.cos(w * t / hbar))
                    purity.append(pn * pm * damp**2)
                    if n != m:
                        cl1.append(mpmath.sqrt(pn * pm) * damp)
                        slope.append(-mpmath.sqrt(pn * pm) * t * w**2 * damp)
            out.append([float(mpmath.fsum(x)) for x in (sff, cl1, slope, purity)])
    return np.array(out).T


@pytest.mark.parametrize("gamma, hbar", [(0.0, 1.0), (0.3, 0.7), (2.0, 2.5)])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("d", [6, 16])
def test_closed_forms_match_40_digit_sums(d, beta, gamma, hbar):
    # times up to 400 put the phases w*t/hbar far past 2*pi, where their rounding grows
    e = sample_goe(d, 1.0, derive_seed(21, 0, 13)).energies
    t = np.array([0.0, 0.3, 2.0, 11.0, 50.0, 400.0])
    sff, cl1, slope, purity = _mp_closed_forms(e, beta, gamma, hbar, t)
    (forms,) = ed_closed_forms(e, beta, [gamma], t, hbar)
    assert np.max(np.abs(forms.sff - sff)) <= 1e-12
    assert np.max(np.abs(forms.purity - purity)) <= 1e-12
    assert np.all(np.abs(forms.cl1 - cl1) <= 1e-13 * np.abs(cl1))
    assert np.all(np.abs(forms.cl1_gamma_derivative - slope) <= 1e-13 * np.abs(slope))


@pytest.mark.parametrize("t", [0.5, [0.5], np.array([[0.0, 0.5], [1.0, 2.0]])])
def test_closed_forms_are_1d_arrays_for_any_shape_of_t(t):
    # t is read flattened: one entry per time, a scalar t included
    h = sample_goe(6, 1.0, derive_seed(21, 0, 14))
    flat = np.ravel(t)
    for gamma, forms in zip((0.0, 0.3), ed_closed_forms(h, 0.2, [0.0, 0.3], t)):
        for field, x in zip(forms._fields, forms):
            assert isinstance(x, np.ndarray) and x.shape == flat.shape, field
        # a time's row does not depend on the rest of the grid
        (last,) = ed_closed_forms(h, 0.2, [gamma], flat[-1])
        assert np.array_equal(np.asarray(forms)[:, -1:], last)


def test_ed_cl1_initial_value_and_decay():
    d = 12
    h = sample_goe(d, 1.0, derive_seed(21, 0, 4))
    assert ed_closed_forms(h, 0.0, [0.3], 0.0)[0].cl1[0] == pytest.approx(d - 1, abs=1e-10)
    ts = np.linspace(0.0, 5.0, 40)
    c = ed_closed_forms(h, 0.0, [0.3], ts)[0].cl1
    assert np.all(np.diff(c) <= 1e-12)  # pure gaussian damping, no revivals


def test_ed_cl1_gamma_derivative_matches_finite_difference():
    d, beta, t = 9, 0.2, 1.3
    h = sample_goe(d, 1.0, derive_seed(21, 0, 5))
    gamma, dg = 0.5, 1e-6
    grad = ed_closed_forms(h, beta, [gamma], t)[0].cl1_gamma_derivative[0]
    up = ed_closed_forms(h, beta, [gamma + dg], t)[0].cl1[0]
    down = ed_closed_forms(h, beta, [gamma - dg], t)[0].cl1[0]
    fd = (up - down) / (2 * dg)
    assert grad == pytest.approx(fd, rel=1e-6)


def test_ed_purity_closed_form():
    d, beta, gamma = 7, 0.4, 0.2
    h = sample_goe(d, 1.0, derive_seed(21, 0, 6))
    rho0 = cgs_density(make_cgs(h, beta))
    for t in (0.3, 2.0):
        rho_t = ed_evolve(rho0, h, gamma, t)
        direct = float(np.real(np.vdot(rho_t, rho_t)))
        assert ed_closed_forms(h, beta, [gamma], t)[0].purity[0] == pytest.approx(direct, abs=1e-12)


def test_ed_long_time_plateau():
    d, beta, gamma = 8, 0.3, 1.0
    h = sample_goe(d, 1.0, derive_seed(21, 0, 7))
    fp = plateau_value(h, beta)
    (late,) = ed_closed_forms(h, beta, [gamma], 1e4)
    assert late.sff[0] == pytest.approx(fp, abs=1e-12)
    assert late.purity[0] == pytest.approx(fp, abs=1e-12)
    assert late.cl1[0] == pytest.approx(0.0, abs=1e-12)


def test_extreme_finite_rates_raise_no_warning():
    # gamma*t from 0 (a subnormal time at gamma = 1e-30) through subnormal (1e-30 * 1e-280), where
    # 746/(gamma*t) overflows, to 1e95 at the ends of the gamma and time domains, where every pair term
    # underflows and the forms sit exactly on the plateau; one time per call makes each the smallest time of
    # its block
    d, beta = 8, 0.3
    h = sample_goe(d, 1.0, derive_seed(21, 0, 17))
    gammas = [0.0, 1e-30, 1.0, 1e30]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.0, 5e-324, 1e-280, 1.1e-307, 1e-300, 1.0, 1e65):
            for forms in ed_closed_forms(h, beta, gammas, t):
                assert np.isfinite(forms).all(), (t, forms)
    (late,) = ed_closed_forms(h, beta, gammas[-1:], 1e65)
    assert late.sff[0] == late.purity[0] == plateau_value(h, beta)
    assert late.cl1[0] == late.cl1_gamma_derivative[0] == 0.0


@pytest.mark.parametrize("levels, gamma, t, hbar, outside", [
    pytest.param([-1.0, 0.5, 2.0], 1e300, [0.1, 1e10], 1.0, "gamma=1e+300", id="gamma*t"),
    # the degenerate pair's -inf*0 made all four forms nan
    pytest.param([-1.0, 0.5, 0.5], 1e300, 1e10, 1.0, "gamma=1e+300", id="gamma*t-degenerate"),
    pytest.param([-1.0, 0.5, 2.0], 100.0, [1e-300, 1e306], 1.0, "times=1e+306", id="gamma*t*w^2"),
    pytest.param([-1.0, 0.5, 2.0], 0.0, 1e307, 1.0, "times=1e+307", id="t*w^2*d"),  # the derivative's scale
    pytest.param([1e10, 1e10 + 0.5, 1e10 + 2.0], 0.1, 1e300, 1.0, "times=1e+300", id="t*E"),  # the phases
    pytest.param([-1.0, 0.5, 2.0], 0.1, 3.0, 5e-324, "hbar=5e-324", id="t*E/hbar"),
])
def test_overflowing_products_raise_before_the_kernel_runs(levels, gamma, t, hbar, outside):
    # each product overflowed at an input that now lies outside its domain, and the error names that input
    with pytest.raises(ValueError, match=f"^{re.escape(outside)} lies outside"):
        ed_closed_forms(np.array(levels), 0.0, [gamma], t, hbar)


def test_the_derivative_at_the_largest_time_is_finite():
    # -2*t overflowed to -inf at t = max before it met a sum u.w^2 of order 1e-300, so the derivative was
    # -inf (and nan where the sum is 0); the largest time is now 1e65, and the energies span the whole domain
    t = 1e65
    (forms,) = ed_closed_forms(np.array([0.0, 1e-150, 3e-150]), 0.0, [0.0], t)
    # beta = 0, gamma = 0: -2t sum_{n<m} w^2/d over the pair gaps 1, 3 and 2 (times 1e-150)
    assert forms.cl1_gamma_derivative[0] == pytest.approx(-2.0 * (t * (14e-300 / 3)), rel=1e-12)
    (forms,) = ed_closed_forms(np.array([-1e40, 1e40]), 0.0, [0.0], t)
    assert forms.cl1_gamma_derivative[0] == pytest.approx(-t * 4e80, rel=1e-12)


def test_lower_bound_at_time_zero_is_one():
    h = sample_goe(8, 1.0, derive_seed(21, 0, 8))
    assert ed_diagnostics(h, 0.0, [0.7], np.array([0.0]))[0].lower_bound == pytest.approx([1.0], abs=1e-12)


def test_lower_bound_divides_by_hbar_once_per_factor():
    # hbar^2 = 1e-340 underflowed to 0, where t*dC_l1/dgamma/(2*hbar^2) was -inf; such an hbar lies outside the
    # range of a scale.  The bound is formed as (t/hbar)*(dC_l1/dgamma/hbar)/2, which fixes its bytes.
    h = sample_goe(8, 1.0, derive_seed(21, 0, 9))
    t = np.array([1e-20, 3.0])
    (forms,) = ed_closed_forms(h, 0.0, [0.7], t, 1e-30)
    bound = ed_diagnostics(h, 0.0, [0.7], t, 1e-30)[0].lower_bound
    assert np.isfinite(bound).all()
    assert np.array_equal(bound, (1.0 + forms.cl1 + (t / 1e-30) * (forms.cl1_gamma_derivative / 1e-30) / 2.0) / 8)
    for hbar in (1e-170, 1e-200):
        with pytest.raises(ValueError, match=f"^hbar={hbar} lies outside"):
            ed_diagnostics(h, 0.0, [0.7], np.array([3.0]), hbar)


def test_lower_bound_holds_pointwise():
    h = sample_goe(16, 1.0, derive_seed(21, 0, 10))
    ts = np.geomspace(0.01, 50.0, 200)
    sff = ed_closed_forms(h, 0.0, [0.8], ts)[0].sff
    bound = ed_diagnostics(h, 0.0, [0.8], ts)[0].lower_bound
    assert np.all(sff >= bound - 1e-12)


def test_ed_liouvillian_is_diagonal_kernel():
    d, gamma = 5, 0.3
    h = sample_goe(d, 1.0, derive_seed(21, 0, 11))
    gen = ed_liouvillian(h, gamma)
    w = h.energies[:, None] - h.energies[None, :]
    expect = np.diag((-1j * w - gamma * w**2).reshape(-1))
    assert np.max(np.abs(gen.matrix - expect)) < 1e-14


def _entry_points(h):
    """The public dephasing calls that take (gamma, hbar), each at t = 1 where it takes a time."""
    rho0 = cgs_density(make_cgs(h, 0.0))
    return [
        lambda gamma, hbar: ed_closed_forms(h, 0.0, [gamma], 1.0, hbar),
        lambda gamma, hbar: ed_evolve(rho0, h, gamma, 1.0, hbar),
        lambda gamma, hbar: ed_liouvillian(h, gamma, hbar),
    ]


def test_negative_gamma_rejected():
    h = sample_goe(4, 1.0, derive_seed(21, 0, 12))
    for call in _entry_points(h):
        with pytest.raises(ValueError, match="^gamma must be finite and >= 0"):
            call(-0.1, 1.0)
        with pytest.raises(ValueError, match="^hbar must be finite and > 0"):
            call(0.1, 0.0)


@pytest.mark.parametrize("field, value", [
    ("gamma", math.nan), ("gamma", math.inf), ("gamma", -math.inf),
    ("hbar", math.nan), ("hbar", math.inf), ("hbar", -math.inf),
])
def test_params_must_be_finite(field, value):
    # NaN slips through every ordered comparison, and an infinite gamma gives NaN at t = 0
    h = sample_goe(4, 1.0, derive_seed(21, 0, 12))
    kwargs = dict(gamma=0.1, hbar=1.0)
    kwargs[field] = value
    # ed_diagnostics forms the Taylor lower bound with the hbar ed_closed_forms, the first entry point, checks
    for call in _entry_points(h):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            call(**kwargs)


@pytest.mark.parametrize("energies", [[0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]])
def test_energies_must_be_finite(energies):
    # ed_closed_forms([0, nan], ...) blamed an overflow of gamma*t*w^2
    rho0 = np.eye(2, dtype=complex) / 2
    for call in (lambda: ed_closed_forms(energies, 0.0, [0.1], [1.0]),
                 lambda: ed_evolve(rho0, energies, 0.1, 1.0),
                 lambda: ed_liouvillian(energies, 0.1)):
        with pytest.raises(ValueError, match=r"^energies=(nan|inf|-inf) lies outside \[-1e\+40, 1e\+40\]"):
            call()


def test_params_sequence_must_be_nonempty_with_one_hbar():
    # one hbar per call is now the signature; a shared pass equals the one-gamma passes
    h = sample_goe(5, 1.0, 3)
    with pytest.raises(ValueError, match="at least one"):
        ed_closed_forms(h, 0.0, [], 1.0)
    shared = ed_closed_forms(h, 0.0, (0.1, 0.4), 1.0)
    assert isinstance(shared, list)
    assert np.array_equal(shared, [ed_closed_forms(h, 0.0, [g], 1.0)[0] for g in (0.1, 0.4)])


def test_negative_time_rejected():
    # a nan time gave an all-nan state and a misleading "overflows" from the closed forms
    h = sample_goe(4, 1.0, derive_seed(21, 0, 12))
    rho0 = cgs_density(make_cgs(h, 0.0))
    for t in (-1.0, math.nan, math.inf, -math.inf):
        message = rf"^times={t} lies outside \[0, 1e\+65\], the range of every time$"
        with pytest.raises(ValueError, match=message):
            ed_closed_forms(h, 0.0, [0.1], t)
        with pytest.raises(ValueError, match=message):
            ed_closed_forms(h, 0.0, [0.1], np.array([0.5, t]))
        with pytest.raises(ValueError, match=message):
            ed_evolve(rho0, h, 0.1, t)
