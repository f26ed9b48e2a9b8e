"""Input domains: every public entry point at both ends of each domain, and just outside them.

`rmt` states each domain once: every nonzero sigma, hbar, beta, tau and gamma
in [1e-30, 1e30], 2 <= d < 2**63, every energy within +-1e40 and every time
in [0, 1e65].  Inside, nothing a call returns overflows or warns; just
outside, each call raises a ValueError naming the argument.
"""

import itertools
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from openchaos.dephasing import ed_closed_forms, ed_evolve, ed_liouvillian
from openchaos.diagnostics import (
    channel_diagnostics,
    ed_diagnostics,
    effective_depth,
    estimate_thouless,
)
from openchaos.pqc import (
    ParametricChannel,
    apply_channel,
    build_superoperator,
    evolve_discrete,
    interleaved,
    lindblad_generator,
)
from openchaos.rmt import (
    HamiltonianSpectrum,
    critical_tau,
    heisenberg_time,
    mean_level_spacing,
    sample_goe,
    sample_kraus_set,
)
from openchaos.spectral import audit_bulk, classify_phase, eigenvalues, phase_boundary, phi_max, split_bulk
from openchaos.states import as_energies, cgs_density, make_cgs, plateau_value

LO, HI = 1e-30, 1e30  # the range of every nonzero scale
E_MAX, T_MAX, D_MAX = 1e40, 1e65, 2**63 - 1


def _finite(*values):
    """Every number in `values` (floats, arrays, sequences of them, dataclasses and named tuples) is finite."""
    for v in values:
        if hasattr(v, "__dataclass_fields__"):
            _finite(*(getattr(v, f.name) for f in fields(v)))
        elif isinstance(v, (list, tuple)):
            _finite(*v)
        elif v is not None and not isinstance(v, str):
            assert np.isfinite(v).all(), v


# sigma and hbar at either end of the range; tau, gamma and beta at 0 or either end; the spectrum a GOE draw at
# sigma (d = 4) or the two energies -1e40 and 1e40 (d = 2): 216 corners
_CORNERS = list(itertools.product((LO, HI), (LO, HI), (0.0, LO, HI), (0.0, LO, HI), (0.0, LO, HI), ("goe", "edge")))


@pytest.mark.parametrize("sigma, hbar, tau, gamma, beta, levels", _CORNERS)
def test_every_entry_point_at_the_corners_of_the_domains_is_finite_without_a_warning(
    sigma, hbar, tau, gamma, beta, levels,
):
    times = np.array([0.0, LO, 1.0, T_MAX])
    eps, k = 0.5, 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if levels == "goe":
            h = sample_goe(4, sigma, 11)
        else:
            h = HamiltonianSpectrum(sigma, np.array([-E_MAX, E_MAX]), seed=0)
        d, e = h.dim, as_energies(h)
        _finite(e, make_cgs(e, beta).amplitudes, plateau_value(e, beta))
        for dim in (2, d, D_MAX):
            _finite(mean_level_spacing(dim, sigma), heisenberg_time(dim, sigma, hbar), critical_tau(dim, sigma, hbar),
                    phi_max(tau, dim, sigma, hbar))
            phase = classify_phase(eps, tau, k, dim, sigma, hbar)
            _finite(phase_boundary(phase, eps, k, tau=tau, d=dim, sigma=sigma, hbar=hbar))

        kraus = sample_kraus_set(d, k, 12)
        ch = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=kraus, hbar=hbar)
        rho0 = cgs_density(make_cgs(e, beta))
        for form in (ch, interleaved(ch)):
            _finite(form.mask, apply_channel(form, rho0), list(evolve_discrete(form, rho0, 3)))
            bulk, fixed = split_bulk(eigenvalues(build_superoperator(form)))
            _finite(bulk, fixed, audit_bulk(bulk, tau, eps, k, d, sigma, hbar)[2])
        series = channel_diagnostics(ch, beta, 4)
        _finite(series, estimate_thouless(series, heisenberg_time(d, sigma, hbar)))
        if tau > 0.0:
            _finite(effective_depth(series, tau, 2 * tau, tau))
        _finite(lindblad_generator(h, kraus.operators, gamma, hbar).matrix, ed_liouvillian(e, gamma, hbar).matrix)

        for t in times:
            _finite(ed_evolve(rho0, e, gamma, t, hbar))
        # ed_diagnostics's series carry the Taylor lower bound at beta = 0
        _finite(ed_closed_forms(e, beta, [gamma], times, hbar), ed_diagnostics(e, beta, [gamma], times, hbar))


def test_the_largest_lower_bound_term_is_finite():
    # gamma = 0 keeps every pair term at t = 1e65, hbar = 1e-30 and |E| = 1e40: the term
    # t*dC_l1/dgamma/(2*hbar^2) is -2e270*(d-1) at d = 2, and the bound divides it by d
    bound = ed_diagnostics(np.array([-E_MAX, E_MAX]), 0.0, [0.0], [T_MAX], LO)[0].lower_bound
    assert bound[0] * 2 == pytest.approx(-2e270, rel=1e-12)


_H = HamiltonianSpectrum(1.0, np.array([-1.0, 0.5, 2.0]), seed=0)
_KRAUS = sample_kraus_set(3, 2, 5)
_RHO = np.eye(3, dtype=complex) / 3

# per argument, the calls that take it, each with the argument as its one parameter
_TAKERS = {
    "sigma": [lambda v: sample_goe(4, v, 1), lambda v: HamiltonianSpectrum(v, np.array([0.0, 1.0]), 0),
              lambda v: heisenberg_time(4, v), lambda v: phi_max(0.1, 4, v),
              lambda v: classify_phase(0.2, 1.0, 2, 4, v)],
    "hbar": [lambda v: ParametricChannel(tau=0.1, epsilon=0.2, hamiltonian=_H, kraus=_KRAUS, hbar=v),
             lambda v: critical_tau(4, 1.0, v), lambda v: ed_closed_forms(_H, 0.0, [0.1], 1.0, v),
             lambda v: ed_diagnostics(_H, 0.0, [0.1], [1.0], v),  # the hbar of its Taylor lower bound
             lambda v: lindblad_generator(_H, _KRAUS.operators, 0.1, v)],
    "beta": [lambda v: make_cgs(_H, v), lambda v: plateau_value(_H, v), lambda v: ed_closed_forms(_H, v, [0.1], 1.0)],
    "tau": [lambda v: ParametricChannel(tau=v, epsilon=0.2, hamiltonian=_H, kraus=_KRAUS),
            lambda v: phi_max(v, 4, 1.0), lambda v: classify_phase(0.2, v, 2, 4, 1.0)],
    "gamma": [lambda v: ed_closed_forms(_H, 0.0, [0.1, v], 1.0), lambda v: ed_evolve(_RHO, _H, v, 1.0),
              lambda v: ed_liouvillian(_H, v), lambda v: lindblad_generator(_H, _KRAUS.operators, v)],
}


@pytest.mark.parametrize("arg, value, call", [
    pytest.param(arg, value, call, id=f"{arg}={value:g}-{i}")
    for arg, calls in _TAKERS.items() for value in (1e-31, 1e31) for i, call in enumerate(calls)
])
def test_a_scale_just_outside_the_range_raises_naming_it(arg, value, call):
    with pytest.raises(ValueError, match=f"^{arg}={re.escape(str(value))} lies outside"
                                         r" \[1e-30, 1e\+30\], the range of every nonzero scale$"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda e: HamiltonianSpectrum(1.0, np.array(e), 0),
    lambda e: as_energies(e),
    lambda e: make_cgs(e, 0.0),
    lambda e: ed_closed_forms(e, 0.0, [0.1], 1.0),
    lambda e: ed_liouvillian(e, 0.1),
], ids=["HamiltonianSpectrum", "as_energies", "make_cgs", "ed_closed_forms", "ed_liouvillian"])
@pytest.mark.parametrize("energy", [1.01e40, -1.01e40])
def test_an_energy_just_outside_the_domain_raises_naming_energies(call, energy):
    with pytest.raises(ValueError, match=f"^energies={re.escape(str(energy))} lies outside"
                                         r" \[-1e\+40, 1e\+40\], the range of every energy$"):
        call([-1.0, energy] if energy > 0 else [energy, 1.0])


@pytest.mark.parametrize("call", [
    lambda t: ed_closed_forms(_H, 0.0, [0.1], [0.0, t]),
    lambda t: ed_evolve(_RHO, _H, 0.1, t),
    # the lower bound's times are its series' times: the ed_diagnostics case
    lambda t: ed_diagnostics(_H, 0.0, [0.1], np.array([1.0, t])),
], ids=["ed_closed_forms", "ed_evolve", "ed_diagnostics"])
def test_a_time_just_outside_the_domain_raises_naming_it(call):
    with pytest.raises(ValueError, match=r"^times=1.01e\+65 lies outside \[0, 1e\+65\], the range of every time$"):
        call(1.01e65)


def test_a_time_edge_just_outside_the_domain_raises_naming_it():
    series = channel_diagnostics(ParametricChannel(tau=0.5, epsilon=0.2, hamiltonian=_H, kraus=_KRAUS), 0.0, 4)
    with pytest.raises(ValueError, match=r"^t_heisenberg=1.01e\+65 lies outside \[0, 1e\+65\]"):
        effective_depth(series, 0.5, 1.01e65, 0.5)
    with pytest.raises(ValueError, match=r"^t_heisenberg=1.01e\+65 lies outside \[0, 1e\+65\]"):
        estimate_thouless(series, 1.01e65)


@pytest.mark.parametrize("call", [
    lambda d: mean_level_spacing(d, 1.0),
    lambda d: heisenberg_time(d, 1.0),
    lambda d: critical_tau(d, 1.0),
    lambda d: phi_max(0.1, d, 1.0),
    lambda d: classify_phase(0.2, 0.1, 2, d, 1.0),
], ids=["mean_level_spacing", "heisenberg_time", "critical_tau", "phi_max", "classify_phase"])
def test_a_dimension_just_outside_the_domain_raises_naming_d(call):
    with pytest.raises(ValueError, match=r"^d must be >= 2 and below 2\*\*63, got 9223372036854775808$"):
        call(2**63)
