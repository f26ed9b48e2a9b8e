"""Spectral phases: boundary formulas, classification, containment, spacing ratios."""

import math

import numpy as np
import pytest

from openchaos import spectral
from openchaos.pqc import ParametricChannel, Superoperator, build_superoperator
from openchaos.rmt import critical_tau, derive_seed, rng_from_seed, sample_goe, sample_kraus_set
from openchaos.spectral import (
    Boundary,
    EigensolverError,
    annular_boundaries,
    audit_bulk,
    classify_phase,
    complex_spacing_ratios,
    containment_fraction,
    critical_epsilon,
    density_grid,
    eigenvalues,
    phase_boundary,
    phi_max,
    shifted_disk_boundary,
    spectral_report,
    split_bulk,
)


# ---------------------------------------------------------------------------
# analytic boundary formulas


def test_annular_radii_values():
    outer, inner = annular_boundaries(0.2, 3)
    assert outer == pytest.approx(0.8082903768654761, rel=1e-12)
    assert inner == pytest.approx(0.7916228058025279, rel=1e-12)
    outer0, inner0 = annular_boundaries(0.0, 3)
    assert outer0 == 1.0 and inner0 == 1.0


def test_inner_radius_vanishes_at_critical_epsilon():
    eps_c = critical_epsilon(3)
    assert eps_c == pytest.approx(0.6339745962155614, rel=1e-12)
    outer, inner = annular_boundaries(eps_c, 3)
    assert inner == 0.0  # discriminant snapped to zero at the crossover
    assert annular_boundaries(eps_c + 1e-6, 3)[1] is None
    assert annular_boundaries(0.9, 3)[1] is None


def test_disk_boundary_values():
    assert phase_boundary("disk", 1.0, 4).outer == pytest.approx(0.5, rel=1e-14)
    assert phase_boundary("disk", 0.0, 7).outer == pytest.approx(1.0, rel=1e-14)
    # the disk radius is the annular outer radius, to the bit
    assert phase_boundary("disk", 0.37, 5).outer == annular_boundaries(0.37, 5)[0]


def test_shifted_disk_values():
    center, radius = shifted_disk_boundary(0.7, 3)
    assert center == pytest.approx(0.3, rel=1e-12)
    assert radius == pytest.approx(0.40414518843273806, rel=1e-12)
    assert shifted_disk_boundary(0.0, 3) == (1.0, 0.0)
    c1, r1 = shifted_disk_boundary(1.0, 3)
    assert c1 == 0.0 and r1 == pytest.approx(annular_boundaries(1.0, 3)[0], rel=1e-12)


def test_phi_max_values():
    assert phi_max(1.0, 64, 1.0) == pytest.approx(math.sqrt(512), rel=1e-12)
    assert phi_max(0.0, 64, 1.0) == 0.0
    for tau, hbar in ((1.0, 1e-310), (1e308, 1.0)):
        with pytest.raises(ValueError, match="overflows"):
            phi_max(tau, 4, 1.0, hbar)
    # at the critical period the sector closes exactly
    for d in (8, 32, 64):
        assert phi_max(critical_tau(d, 1.0, 1.0), d, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)


def test_parameter_validation():
    for eps in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^epsilon must lie in"):
            annular_boundaries(eps, 3)
        with pytest.raises(ValueError, match="^epsilon must lie in"):
            classify_phase(eps, 1.0, 3, 8, 1.0)
    with pytest.raises(ValueError, match="^K must"):
        annular_boundaries(0.2, 0)
    with pytest.raises(ValueError, match="^K must"):
        critical_epsilon(0)
    with pytest.raises(ValueError, match="^K must"):
        classify_phase(0.2, 1.0, 63, 8, 1.0)  # K > d^2 - 2


def test_classify_phase_raises_where_tau_c_overflows():
    # tau_c = pi*hbar/(sigma*sqrt(2d)) overflowed to inf with a numpy warning, and the label followed from it
    with pytest.raises(ValueError, match=r"^tau_c=.* overflows at dim=8, sigma=1e-320, hbar=1.0: tau_c=inf"):
        classify_phase(0.2, 1.0, 3, 8, 1e-320)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["tau", "d", "sigma", "hbar"])
def test_phi_max_scales_must_be_finite(arg, value):
    # a nan hbar was reported as an overflow at hbar=nan, and an infinite hbar gave 0
    kwargs = dict(tau=0.1, d=4, sigma=1.0, hbar=1.0)
    with pytest.raises(ValueError, match=f"^{arg} must"):
        phi_max(**dict(kwargs, **{arg: value}))


# ---------------------------------------------------------------------------
# classifier


def test_classify_phase_examples():
    d, sigma, k = 64, 1.0, 3
    # tau_c(64) ~ 0.2777
    assert classify_phase(0.7, 1.0, k, d, sigma) == "disk"
    assert classify_phase(0.2, 1.0, k, d, sigma) == "annular"
    assert classify_phase(0.7, 1e-4, k, d, sigma) == "shifted-disk"
    assert classify_phase(0.2, 0.05, k, 32, sigma) == "crescent"


def test_classifier_is_continuous_at_critical_epsilon():
    # at tau >= tau_c the disk label takes over exactly where the inner
    # radius stops existing
    k, d = 3, 32
    eps_c = critical_epsilon(k)
    assert classify_phase(eps_c - 1e-9, 1.0, k, d, 1.0) == "annular"
    assert classify_phase(eps_c, 1.0, k, d, 1.0) == "disk"


def test_classifier_shifted_disk_onset():
    # tiny angles suppress the bulk into the shifted disk even at small eps
    assert classify_phase(0.2, 1e-3, 3, 8, 1.0) == "shifted-disk"
    assert classify_phase(0.01, 1e-3, 3, 8, 1.0) == "crescent"


# ---------------------------------------------------------------------------
# containment geometry


def test_disk_containment():
    b = phase_boundary("disk", 1.0, 4)  # radius 1/2
    pts = np.array([0.0, 0.49, 0.5 + 0.01j, 0.52 + 0.0j, -0.55])
    inside = b.contains(pts, margin=0.0)
    assert list(inside) == [True, True, False, False, False]
    assert list(b.contains(pts, margin=0.05)) == [True, True, True, True, True]


def test_annular_containment():
    b = phase_boundary("annular", 0.2, 3)  # outer 0.8083, inner 0.7916
    pts = np.array([0.8, 0.79 + 0.0j, 0.82, 0.5, 1j * 0.8])
    assert list(b.contains(pts)) == [True, False, False, False, True]


def test_shifted_disk_containment():
    b = phase_boundary("shifted-disk", 0.7, 3)  # center 0.3 radius 0.404
    pts = np.array([0.3, 0.3 + 0.4j, -0.2, 0.3 - 0.41j])
    assert list(b.contains(pts)) == [True, True, False, False]
    assert list(b.contains(pts, margin=0.02)) == [True, True, False, True]


def test_crescent_containment():
    b = phase_boundary("crescent", 0.2, 3, tau=0.05, d=32, sigma=1.0)  # half-angle 0.8
    pts = np.array([
        0.9 * np.exp(0.75j), 0.9 * np.exp(-0.75j),  # inside the sector
        0.9 * np.exp(0.9j),                         # past the edge
        -0.5,                                       # opposite side
        1.05,                                       # past the arc
    ])
    assert list(b.contains(pts)) == [True, True, False, False, False]
    # margin measures euclidean distance to the sector, not angle
    edge = 0.5 * np.exp(1j * (0.8 + 0.01))
    assert b.contains(np.array([edge]), margin=0.02)[0]


def test_containment_fraction_and_empty_error():
    b = phase_boundary("disk", 1.0, 4)
    pts = np.array([0.1, 0.2, 0.9])
    assert containment_fraction(pts, b) == pytest.approx(2 / 3, rel=1e-12)
    # the same chain from the parameters: tau = 1 > tau_c(8) and eps = 1 > eps_c give the disk
    phase, boundary, frac = audit_bulk(pts, 1.0, 1.0, 4, 8, 1.0)
    assert (phase, boundary.outer, frac) == ("disk", b.outer, containment_fraction(pts, b))
    with pytest.raises(ValueError):
        containment_fraction(np.array([]), b)


def test_unknown_boundary_kind_raises():
    with pytest.raises(ValueError, match="unknown boundary kind"):
        Boundary("curve", ()).contains(np.array([0.0]))


# ---------------------------------------------------------------------------
# eigensolve plumbing


def test_eigenvalues_error_carries_context():
    bad = Superoperator(np.full((4, 4), np.nan))
    with pytest.raises(EigensolverError, match="tau=0.3"):
        eigenvalues(bad, context="tau=0.3, eps=0.1")


def _channel_superoperator(seed, d=6, tau=0.4, eps=0.3):
    ch = ParametricChannel(
        tau=tau, epsilon=eps,
        hamiltonian=sample_goe(d, 1.0, derive_seed(seed, 0, 0)),
        kraus=sample_kraus_set(d, 2, derive_seed(seed, 1, 0)),
    )
    return build_superoperator(ch)


def _count_solves(monkeypatch):
    calls = []
    solve = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or solve(a))
    return calls


def test_eigenvalues_reuse_the_solve_of_an_equal_matrix(monkeypatch):
    calls = _count_solves(monkeypatch)
    op = _channel_superoperator(70)
    first = eigenvalues(op)
    again = eigenvalues(Superoperator(op.matrix.copy(order="F")))
    assert len(calls) == 1
    assert np.array_equal(first, again) and first is not again
    changed = op.matrix.copy()
    changed[0, 1] += 1e-15
    eigenvalues(Superoperator(changed))
    assert len(calls) == 2


def test_writing_to_returned_eigenvalues_leaves_the_memo_unchanged(monkeypatch):
    calls = _count_solves(monkeypatch)
    op = _channel_superoperator(71)
    solved = eigenvalues(op)
    expected = solved.copy()
    solved[:] = 0.0  # the array of the solve that filled the memo
    hit = eigenvalues(op)
    assert np.array_equal(hit, expected)
    hit[:] = 0.0  # the array of a hit
    assert np.array_equal(eigenvalues(op), expected)
    assert len(calls) == 1


def test_failed_eigensolve_is_not_stored(monkeypatch):
    calls = _count_solves(monkeypatch)
    bad = Superoperator(np.full((4, 4), np.nan))
    for _ in range(2):
        with pytest.raises(EigensolverError, match=r"failed at tau=0\.3, eps=0\.1: "):
            eigenvalues(bad, context="tau=0.3, eps=0.1")
    assert len(calls) == 2
    assert spectral._memo == {}


def test_full_memo_empties_before_the_next_spectrum(monkeypatch):
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(spectral, "_MEMO_SPECTRA", 2)
    ops = [_channel_superoperator(seed) for seed in (72, 73, 74)]
    for op in ops[:2]:
        eigenvalues(op)
    assert len(spectral._memo) == 2 and len(calls) == 2
    third = eigenvalues(ops[2])  # the memo is full: it empties, then holds only this one
    assert len(spectral._memo) == 1 and len(calls) == 3
    assert np.array_equal(eigenvalues(ops[2]), third) and len(calls) == 3
    eigenvalues(ops[0])  # dropped when the memo emptied, so solved again
    assert len(spectral._memo) == 2 and len(calls) == 4


def test_split_bulk_picks_nearest_to_one():
    ev = np.array([0.2 + 0.1j, 0.999999 + 1e-7j, -0.5, 0.3j])
    bulk, fp = split_bulk(ev)
    assert fp == ev[1]
    assert bulk.size == 3
    assert ev[1] not in bulk


def test_spectral_report_end_to_end():
    h = sample_goe(8, 1.0, derive_seed(61, 0, 1))
    ks = sample_kraus_set(8, 3, derive_seed(61, 1, 1))
    ch = ParametricChannel(tau=1.0, epsilon=0.7, hamiltonian=h, kraus=ks)
    rep = spectral_report(ch)
    assert rep.phase == "disk"
    assert rep.bulk.size == 63
    assert abs(rep.fixed_point - 1.0) < 1e-8
    assert 0.0 <= rep.containment <= 1.0
    assert np.max(np.abs(rep.bulk)) <= 1.0 + 1e-8


def test_density_grid_layout():
    rng = rng_from_seed(62)
    pts = rng.normal(size=200) + 1j * rng.normal(size=200)
    g = density_grid(pts, bins=32)
    counts = np.asarray(g["counts"])
    assert counts.shape == (32, 32)
    assert counts.sum() <= 200
    assert g["extent"] == 1.05
    assert g["re_edges"][0] == g["im_edges"][0] == -1.05 and g["re_edges"][-1] == 1.05


# ---------------------------------------------------------------------------
# complex spacing ratios


def test_csr_three_collinear_points():
    pts = np.array([0.0, 1.0, 2.0], dtype=complex)
    ratios = complex_spacing_ratios(pts).ratios
    assert ratios[0] == pytest.approx(0.5)
    assert ratios[2] == pytest.approx(0.5)
    assert abs(ratios[1]) == pytest.approx(1.0)


def test_csr_requires_three_points():
    with pytest.raises(ValueError):
        complex_spacing_ratios(np.array([1.0, 2.0], dtype=complex))


def test_csr_modulus_bounded_by_one():
    rng = rng_from_seed(63)
    pts = rng.normal(size=400) + 1j * rng.normal(size=400)
    ratios = complex_spacing_ratios(pts).ratios
    assert np.max(np.abs(ratios)) <= 1.0 + 1e-12


def test_csr_dual_paths_agree_exactly():
    rng = rng_from_seed(64)
    for n in (50, 1100):  # below and above the auto kdtree threshold
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        brute = complex_spacing_ratios(pts, method="brute")
        fast = complex_spacing_ratios(pts, method="kdtree")
        assert np.array_equal(brute.ratios, fast.ratios)
        assert np.array_equal(brute.nn_indices, fast.nn_indices)
        assert np.array_equal(brute.nnn_indices, fast.nnn_indices)


def test_csr_handles_degenerate_points():
    # coincident next-nearest neighbors give a zero denominator; the ratio is
    # pinned at 1 by convention instead of dividing by zero
    pts = np.array([0.0, 1.0, 1.0, 1.0], dtype=complex)
    ratios = complex_spacing_ratios(pts).ratios
    assert np.all(np.isfinite(ratios))
    assert abs(ratios[1]) == pytest.approx(1.0)


def test_csr_dual_paths_agree_on_degenerate_channel_spectrum():
    # at eps = 0 the eigenvalue 1 is d-fold degenerate: more exact ties than
    # the kdtree's first candidate window holds, so it has to be widened
    d = 16
    ch = ParametricChannel(
        tau=0.3, epsilon=0.0,
        hamiltonian=sample_goe(d, 1.0, derive_seed(65, 0, 0)),
        kraus=sample_kraus_set(d, 2, derive_seed(65, 1, 0)),
    )
    ev = eigenvalues(build_superoperator(ch))
    assert np.sum(ev == 1.0) >= 8
    brute = complex_spacing_ratios(ev, method="brute")
    fast = complex_spacing_ratios(ev, method="kdtree")
    assert np.array_equal(brute.nn_indices, fast.nn_indices)
    assert np.array_equal(brute.nnn_indices, fast.nnn_indices)
    assert np.array_equal(brute.ratios, fast.ratios)
