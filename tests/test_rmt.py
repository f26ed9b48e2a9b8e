"""Ensemble sampling, seed derivation and spectral time scales."""

import math

import numpy as np
import pytest

from openchaos import rmt
from openchaos.rmt import (
    HamiltonianSpectrum,
    KrausSet,
    critical_tau,
    derive_seed,
    heisenberg_time,
    mean_level_spacing,
    rng_from_seed,
    sample_cue,
    sample_goe,
    sample_kraus_set,
)
from openchaos.spectral import phi_max


# ---------------------------------------------------------------------------
# seeds


def test_derive_seed_frozen_values():
    # frozen against the SeedSequence-based derivation; any change here breaks
    # reproducibility of every published run
    assert derive_seed(7) == 15046820036808536180
    assert derive_seed(7, 0, 0) == 9154835513664400320
    assert derive_seed(7, 1, 3) == 3400020914553366542
    assert derive_seed(7, 0) == 7905850624224205987


def test_derive_seed_path_sensitivity():
    seen = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 0, 0),
            derive_seed(7, 1), derive_seed(7, 0, 1), derive_seed(7, 1, 0),
            derive_seed(8)}
    assert len(seen) == 7  # trailing zeros and order must all matter


def test_rng_reproducible():
    a = rng_from_seed(123).standard_normal(8)
    b = rng_from_seed(123).standard_normal(8)
    c = rng_from_seed(124).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# GOE


def test_goe_matrix_is_symmetric_and_validates():
    h = sample_goe(16, 1.0, derive_seed(1, 0, 0))
    assert np.allclose(h.matrix, h.matrix.T)
    assert np.all(np.diff(h.energies) >= 0)
    assert np.max(np.abs(np.linalg.eigvalsh(h.matrix) - h.energies)) < 1e-10 * np.max(np.abs(h.energies))
    assert h.dim == 16
    for energies in (h.energies[np.newaxis], h.energies[:1]):
        with pytest.raises(ValueError, match="1-D with at least 2 levels"):
            HamiltonianSpectrum(sigma=1.0, energies=energies, seed=h.seed)


def test_a_goe_draw_that_overflows_raises_naming_sigma():
    # (A + A^T)/2 overflowed with a warning, and the eigensolver failed on the inf; such a sigma lies outside
    # the range of a scale, so it is rejected before anything is drawn
    with pytest.raises(ValueError, match=r"^sigma=1.7976931348623157e\+308 lies outside \[1e-30, 1e\+30\]"):
        sample_goe(4, np.finfo(float).max, 3)


def test_goe_eigendecomposition_consistent():
    h = sample_goe(12, 0.7, derive_seed(2, 0, 0))
    recon = h.eigenvectors @ np.diag(h.energies) @ h.eigenvectors.T
    assert np.max(np.abs(recon - h.matrix)) < 1e-12


def test_goe_variance_structure():
    # entry variances: sigma^2 on the diagonal, sigma^2/2 off the diagonal
    d, sigma, n = 16, 1.3, 600
    diag, off = [], []
    for i in range(n):
        h = sample_goe(d, sigma, derive_seed(5, 0, i))
        diag.append(np.diag(h.matrix))
        off.append(h.matrix[np.triu_indices(d, k=1)])
    v_diag = np.var(np.concatenate(diag))
    v_off = np.var(np.concatenate(off))
    assert abs(v_diag - sigma**2) < 0.08 * sigma**2
    assert abs(v_off - sigma**2 / 2) < 0.04 * sigma**2


def test_goe_semicircle_distribution():
    # empirical CDF of pooled eigenvalues vs the semicircle law; the radius
    # sigma*sqrt(2d) is the convention every time scale in the package uses
    d, sigma = 64, 1.0
    pool = np.concatenate(
        [sample_goe(d, sigma, derive_seed(3, 0, i)).energies for i in range(200)]
    )
    r = sigma * np.sqrt(2 * d)
    # edge fluctuations overshoot the radius by O(d^-2/3) at this size
    assert np.max(np.abs(pool)) < 1.15 * r
    x = np.sort(pool)
    ecdf = (np.arange(x.size) + 0.5) / x.size
    u = np.clip(x / r, -1.0, 1.0)
    cdf = 0.5 + (u * np.sqrt(1 - u**2) + np.arcsin(u)) / np.pi
    assert np.max(np.abs(ecdf - cdf)) < 0.02


# ---------------------------------------------------------------------------
# CUE and Kraus truncations


def test_cue_unitarity():
    u = sample_cue(24, derive_seed(4, 1, 0))
    err = np.max(np.abs(u.conj().T @ u - np.eye(24)))
    assert err < 1e-12


def test_cue_eigenphase_uniformity():
    # Haar eigenphases are uniform on the circle in distribution
    phases = []
    for i in range(150):
        u = sample_cue(16, derive_seed(4, 1, i))
        phases.append(np.angle(np.linalg.eigvals(u)))
    x = np.sort(np.concatenate(phases))
    ecdf = (np.arange(x.size) + 0.5) / x.size
    cdf = (x + np.pi) / (2 * np.pi)
    assert np.max(np.abs(ecdf - cdf)) < 0.03


def test_cue_trace_statistic():
    # E|tr U|^2 = 1 for Haar; catches the missing-phase-fix QR bug that
    # biases the distribution toward real positive diagonals
    vals = [abs(np.trace(sample_cue(8, derive_seed(9, 1, i)))) ** 2 for i in range(2000)]
    assert abs(np.mean(vals) - 1.0) < 0.1


def test_kraus_truncation_is_trace_preserving():
    for offset in (1, 5):
        ks = sample_kraus_set(8, 3, derive_seed(6, 1, 0), column_offset=offset)
        assert ks.trace_defect() < 1e-12
        assert ks.operators.shape == (3, 8, 8)


@pytest.mark.parametrize("offset", [1, 5, 16])
def test_kraus_set_is_the_offset_slab_of_one_cue_draw(offset):
    # operator r is rows r*d .. (r+1)*d - 1 of CUE(K*d), columns offset .. offset+d-1
    seed = derive_seed(6, 1, 5)
    u = sample_cue(24, seed)
    ks = sample_kraus_set(8, 3, seed, column_offset=offset)
    for r in range(3):
        assert np.array_equal(ks.operators[r], u[r * 8:(r + 1) * 8, offset:offset + 8])
    assert ks.seed == seed and ks.operators.flags.c_contiguous


def test_kraus_single_operator_is_the_whole_unitary():
    seed = derive_seed(6, 1, 1)
    u = sample_cue(8, seed)
    for offset in (1, 5):  # ignored for K = 1
        ks = sample_kraus_set(8, 1, seed, column_offset=offset)
        assert np.array_equal(ks.operators[0], u)
        assert ks.trace_defect() < 1e-12


def test_kraus_offset_bounds():
    seed = derive_seed(6, 1, 2)
    with pytest.raises(ValueError, match=r"^column_offset=0 outside allowed range \[1, 16\]$"):
        sample_kraus_set(8, 3, seed, column_offset=0)
    with pytest.raises(ValueError, match=r"^column_offset=17 outside allowed range \[1, 16\]$"):
        sample_kraus_set(8, 3, seed, column_offset=17)
    # largest legal offset still gives exact column orthonormality
    ks = sample_kraus_set(8, 2, derive_seed(6, 1, 4), column_offset=8)
    assert ks.trace_defect() < 1e-12


def test_cue_side_is_checked_before_anything_is_allocated(monkeypatch):
    # the Ginibre draw starts at `rng_from_seed`; a side past 4096 never reaches it
    class Drawn(Exception):
        pass

    def draw(seed):
        raise Drawn

    monkeypatch.setattr(rmt, "rng_from_seed", draw)
    for call, n in ((lambda: sample_cue(0, 1), 0), (lambda: sample_cue(4097, 1), 4097),
                    (lambda: sample_kraus_set(64, 65, 1), 4160), (lambda: sample_kraus_set(32, 1022, 1), 32704)):
        with pytest.raises(ValueError, match=rf"^the CUE side n=K\*d must lie in \[1, 4096\] .* got {n}$"):
            call()
    with pytest.raises(Drawn):
        sample_cue(4096, 1)


def test_kraus_set_count_bounds():
    with pytest.raises(ValueError):
        sample_kraus_set(4, 15, derive_seed(6, 1, 3))  # K > d^2 - 2
    with pytest.raises(ValueError):
        sample_kraus_set(4, 0, derive_seed(6, 1, 3))


def test_kraus_set_rejects_a_stack_that_is_not_trace_preserving():
    ops = np.zeros((1, 4, 4))
    ops[0] = np.diag([1.0, 2.0, 3.0, 4.0])
    # a NaN stack has a NaN defect, which no ordered comparison rejects
    for bad in (ops, np.full((1, 3, 3), math.nan)):
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausSet(bad)
    ks = KrausSet(np.eye(4)[np.newaxis])
    assert (ks.dim, ks.count) == (4, 1)


@pytest.mark.parametrize("shape", [(4, 4), (1, 4, 3), (1, 1, 4, 4)])
def test_kraus_set_rejects_a_stack_that_is_not_k_by_d_by_d(shape):
    with pytest.raises(ValueError, match=rf"^operators must have shape \(K, d, d\), got \({shape[0]}, "):
        KrausSet(np.zeros(shape))


def test_spectrum_energies_must_be_sorted():
    with pytest.raises(ValueError, match="^energies must be sorted ascending$"):
        HamiltonianSpectrum(1.0, [0.0, 2.0, 1.0], 0)


# ---------------------------------------------------------------------------
# time scales


def test_mean_level_spacing_values():
    assert mean_level_spacing(64, 1.0) == pytest.approx(0.3591653491741194, rel=1e-12)
    assert mean_level_spacing(2, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_heisenberg_time_value():
    assert heisenberg_time(64, 1.0, 1.0) == pytest.approx(17.493851568998565, rel=1e-12)


def test_critical_tau_values():
    assert critical_tau(64, 1.0, 1.0) == pytest.approx(0.2776801836348979, rel=1e-12)
    assert critical_tau(2, 1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-12)


def test_heisenberg_critical_tau_relation():
    # t_H = (d-1) * tau_c ties the channel's angular crossover to the
    # Hamiltonian's plateau onset
    for d in (2, 8, 64):
        assert heisenberg_time(d, 1.3, 0.7) == pytest.approx(
            (d - 1) * critical_tau(d, 1.3, 0.7), rel=1e-12
        )


# ---------------------------------------------------------------------------
# input domains


_SCALE_CALLS = {
    "heisenberg_time": (heisenberg_time, dict(d=4, sigma=1.0, hbar=1.0)),
    "critical_tau": (critical_tau, dict(d=4, sigma=1.0, hbar=1.0)),
    "mean_level_spacing": (mean_level_spacing, dict(d=4, sigma=1.0)),
    "sample_goe": (sample_goe, dict(d=4, sigma=1.0, seed=3)),
    "HamiltonianSpectrum": (HamiltonianSpectrum, dict(sigma=1.0, energies=[0.0, 1.0], seed=0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry, arg", [
    (entry, arg) for entry, (_, kwargs) in _SCALE_CALLS.items() for arg in kwargs if arg in ("d", "sigma", "hbar")
])
def test_non_finite_scales_raise_naming_the_argument(entry, arg, value):
    # heisenberg_time(4, 1.0, nan) returned nan, and sample_goe(inf, ...) failed inside numpy
    call, kwargs = _SCALE_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{arg} must"):
        call(**dict(kwargs, **{arg: value}))


@pytest.mark.parametrize("call, args, message", [
    (heisenberg_time, (4, 1e-320), "sigma=1e-320 lies outside"),
    (heisenberg_time, (4, 1e300, 1e-300), "hbar=1e-300 lies outside"),
    (critical_tau, (4, 1e-320), "sigma=1e-320 lies outside"),
    (mean_level_spacing, (4, 1e308), "sigma=1e+308 lies outside"),
], ids=["t_H=inf", "t_H=0", "tau_c=inf", "Delta=inf"])
def test_derived_scales_that_overflow_raise_naming_the_scale(call, args, message):
    # heisenberg_time returned inf and 0.0; critical_tau and mean_level_spacing returned inf with a numpy warning.
    # Each scale that did so lies outside the range of a scale, and the error names it.
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == f"{message} [1e-30, 1e+30], the range of every nonzero scale"


@pytest.mark.parametrize("call, args", [
    (heisenberg_time, (10**400, 1.0)),
    (mean_level_spacing, (10**400, 1.0)),
    (critical_tau, (10**400, 1.0)),
    (phi_max, (1.0, 10**400, 1.0)),
], ids=["heisenberg_time", "mean_level_spacing", "critical_tau", "phi_max"])
def test_a_dimension_no_float_holds_raises_naming_d(call, args):
    # 2 <= 10**400 < inf held, and math.sqrt(8.0 * d) raised OverflowError "int too large to convert to float"
    with pytest.raises(ValueError, match=r"^d must be >= 2 and below 2\*\*63, got 1000"):
        call(*args)


@pytest.mark.parametrize("energies", [[1.0, math.nan, 0.0], [0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]])
def test_spectrum_energies_must_be_finite(energies):
    # the sorted check compares against NaN, so [1, nan, 0] passed as sorted
    with pytest.raises(ValueError, match=r"^energies=(nan|inf|-inf) lies outside \[-1e\+40, 1e\+40\]"):
        HamiltonianSpectrum(1.0, energies, 0)
