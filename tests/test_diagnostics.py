"""Series diagnostics: sandwich bounds, hole depth, ensemble reduction, CSV."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from openchaos.diagnostics import (
    DiagnosticSeries,
    SeriesAccumulator,
    _steps_to,
    channel_diagnostics,
    cl1_norm,
    columns_to_csv,
    ed_diagnostics,
    effective_depth,
    ensemble_average,
    estimate_thouless,
    purity,
    sandwich_bounds,
    series_to_csv,
    sff_cl1_sandwich,
    sff_fidelity,
)
from openchaos.pqc import ParametricChannel, build_superoperator, interleaved
from openchaos.rmt import derive_seed, rng_from_seed, sample_goe, sample_kraus_set
from openchaos.states import cgs_density, devectorize, make_cgs, vectorize


def _series(rng, n=12, dim=8, beta=0.0, with_bound=False):
    times = np.linspace(0.0, 3.0, n)
    sff = rng.uniform(0.01, 1.0, n)
    cl1 = rng.uniform(0.0, dim - 1.0, n)
    pur = rng.uniform(1.0 / dim, 1.0, n)
    bound = rng.uniform(-1.0, 0.5, n) if with_bound else None
    return DiagnosticSeries(
        dim=dim, beta=beta, times=times, sff=sff, cl1=cl1, purity=pur,
        plateau=1.0 / dim, lower_bound=bound,
    )


# ---------------------------------------------------------------------------
# pointwise observables


def test_sandwich_is_an_algebraic_identity():
    # for ANY trace-one hermitian matrix (positivity not even needed) the
    # uniform-state fidelity sits inside (1 +- C_l1)/d
    rng = rng_from_seed(41)
    d = 6
    e = np.sort(rng.normal(size=d))
    psi = make_cgs(e, 0.0)
    for _ in range(50):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = (m + m.conj().T) / 2
        m += np.eye(d) * (1.0 - np.trace(m).real) / d
        f = sff_fidelity(psi, m)
        c = cl1_norm(m)
        lo, hi = sandwich_bounds(c, d)
        assert lo - 1e-12 <= f <= hi + 1e-12


def test_pointwise_observables_on_known_matrix():
    m = np.array([[0.5, 0.25j], [-0.25j, 0.5]], dtype=complex)
    assert cl1_norm(m) == pytest.approx(0.5, abs=1e-14)
    assert purity(m) == pytest.approx(0.625, abs=1e-14)
    psi = make_cgs(np.array([0.0, 1.0]), 0.0)
    assert sff_fidelity(psi, m) == pytest.approx(0.5, abs=1e-14)


def test_sandwich_report_flags_violations():
    s = _series(rng_from_seed(42))
    s.sff = (1.0 + s.cl1) / s.dim + 1e-6  # push above the upper bound
    rep = sff_cl1_sandwich(s)
    assert not rep.ok
    assert rep.count == s.times.size
    assert rep.max_violation == pytest.approx(1e-6, rel=1e-6)


def test_sandwich_requires_infinite_temperature():
    s = _series(rng_from_seed(43), beta=0.5)
    with pytest.raises(ValueError):
        sff_cl1_sandwich(s)


# ---------------------------------------------------------------------------
# depth window


def _flat_series(values, tau, plateau):
    n = len(values)
    return DiagnosticSeries(
        dim=8, beta=0.0, times=np.arange(n) * tau, sff=np.asarray(values, float),
        cl1=np.zeros(n), purity=np.full(n, plateau), plateau=plateau,
    )


def test_effective_depth_hand_computed():
    # window is the first step reaching t_Th .. the first reaching t_H, inclusive
    tau, plateau = 0.1, 0.125
    sff = [plateau * f for f in (1.0, 1.0, 1.0, 1.0, 0.5, 0.4, 0.5, 0.8, 0.9, 1.0, 1.0)]
    s = _flat_series(sff, tau, plateau)
    d = effective_depth(s, 0.35, 0.75, tau)
    expect = math.sqrt(-sum(math.log(f) for f in (0.5, 0.4, 0.5, 0.8, 0.9)))
    assert d == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.01, 0.02, 0.2, 0.3, 0.05, 0.07])
def test_steps_to_a_grid_time_is_its_step(tau):
    # ceil(k*tau/tau) is k + 1 for about 1 product in 12, 3*0.1 and 29*0.1 among them
    assert [_steps_to(k * tau, tau, "t") for k in range(2000)] == list(range(2000))
    assert [_steps_to(k * tau + 1e-9 * tau, tau, "t") for k in range(2000)] == list(range(1, 2001))


def test_effective_depth_window_opens_at_a_grid_thouless_time():
    # estimate_thouless returns a grid time, 29*0.1 = 2.9000000000000004, whose quotient by 0.1 rounds up to 30;
    # the window is steps 29..33 (32*0.1 < t_H = 3.25 <= 33*0.1), not 30..33
    tau, plateau = 0.1, 0.125
    factors = (0.3, 0.5, 0.6, 0.8, 0.9)
    s = _flat_series([plateau] * 29 + [plateau * f for f in factors] + [plateau], tau, plateau)
    assert math.ceil(s.times[29] / tau) == 30
    expect = math.sqrt(-sum(math.log(f) for f in factors))
    assert effective_depth(s, s.times[29], 3.25, tau) == pytest.approx(expect, rel=1e-12)


def test_effective_depth_clamps_at_zero():
    s = _flat_series([0.2] * 8, 0.1, 0.125)  # sff above plateau everywhere
    assert effective_depth(s, 0.1, 0.5, 0.1) == 0.0


def test_effective_depth_missing_steps_raises():
    s = _flat_series([0.125] * 5, 0.1, 0.125)
    with pytest.raises(ValueError):
        effective_depth(s, 0.1, 1.0, 0.1)  # window reaches past the grid
    with pytest.raises(ValueError):
        effective_depth(s, 0.4, 0.2, 0.1)  # empty window
    # ceil(nan) and ceil(inf) raised errors that named no argument
    with pytest.raises(ValueError, match=r"^t_thouless=nan lies outside \[0, 1e\+65\], the range of every time$"):
        effective_depth(s, math.nan, 0.3, 0.1)
    with pytest.raises(ValueError, match=r"^t_heisenberg=inf lies outside \[0, 1e\+65\], the range of every time$"):
        effective_depth(s, 0.1, math.inf, 0.1)
    # a finite edge whose quotient by tau overflowed to inf, where ceil(inf) raised OverflowError; such an edge
    # lies outside the time domain, and at its ends the quotient is 1e95, past the 2**53 steps
    s = _flat_series([0.125] * 5, 1e-10, 0.125)
    with pytest.raises(ValueError, match=r"^t_heisenberg=1e\+300 lies outside \[0, 1e\+65\]"):
        effective_depth(s, 1e-10, 1e300, 1e-10)
    s = _flat_series([0.125] * 5, 1e-30, 0.125)
    with pytest.raises(ValueError, match=r"^tau=1e-30 takes more than 2\*\*53 steps to reach t_heisenberg=1e\+65$"):
        effective_depth(s, 1e-30, 1e65, 1e-30)


def test_effective_depth_nan_sff_raises():
    # max(0.0, nan) is 0.0, so a NaN inside the window must not read as no hole
    s = _flat_series([0.125, 0.1, float("nan"), 0.1, 0.125], 0.1, 0.125)
    with pytest.raises(ValueError, match="not finite"):
        effective_depth(s, 0.1, 0.3, 0.1)


def test_effective_depth_subnormal_sff_raises():
    # plateau / 5e-324 overflows to inf
    s = _flat_series([0.125, 0.1, 5e-324, 0.1, 0.125], 0.1, 0.125)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        effective_depth(s, 0.1, 0.3, 0.1)


def test_effective_depth_off_grid_times_raise():
    s = _flat_series([0.125] * 5, 0.1, 0.125)
    s.times = s.times + 0.03
    with pytest.raises(ValueError):
        effective_depth(s, 0.1, 0.3, 0.1)


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf])
def test_effective_depth_needs_a_finite_positive_period(tau):
    # tau = 0 divided by zero and a nan tau failed converting ceil(nan) before the period was checked
    s = _flat_series([0.125] * 5, 0.1, 0.125)
    with pytest.raises(ValueError, match="tau"):
        effective_depth(s, 0.1, 0.3, tau)


@pytest.mark.parametrize("name", ["sff", "purity", "cl1"])
def test_validate_rejects_nan(name):
    # NaN fails no ordered comparison, so a NaN series passed its range check
    s = _flat_series([0.125] * 5, 0.1, 0.125)
    getattr(s, name)[2] = math.nan
    with pytest.raises(ValueError, match=f"^{name} leaves"):
        s.validate()


def test_estimate_thouless_finds_the_hole_minimum():
    n = 200
    times = np.linspace(0.01, 20.0, n)
    plateau = 0.125
    sff = plateau * (1.0 - 0.8 * np.exp(-((times - 6.0) ** 2) / 2.0))
    s = DiagnosticSeries(dim=8, beta=0.0, times=times, sff=sff, cl1=np.zeros(n),
                         purity=sff, plateau=plateau)
    t_th = estimate_thouless(s, 15.0)
    assert abs(t_th - 6.0) < 0.25
    with pytest.raises(ValueError):
        estimate_thouless(s, 0.001)


# ---------------------------------------------------------------------------
# ensemble reduction


def test_accumulator_mean_and_stderr_match_numpy():
    rng = rng_from_seed(44)
    batch = [_series(rng) for _ in range(7)]
    acc = SeriesAccumulator()
    for s in batch:
        acc.add(s)
    mean = acc.finalize()
    stack = np.stack([s.sff for s in batch])
    assert np.max(np.abs(mean.sff - stack.mean(axis=0))) < 1e-14
    expect_se = stack.std(axis=0, ddof=1) / math.sqrt(7)
    assert np.max(np.abs(mean.sff_stderr - expect_se)) < 1e-13
    assert mean.n_realizations == 7


def test_stderr_on_a_plateau_matches_an_exact_oracle():
    # eight series of mean 1 and spread 1e-9, like an SFF settled on its
    # plateau: sum(x^2) - n*mean^2 cancels all but a few bits there, the sums
    # about the first series do not
    rng = rng_from_seed(48)
    batch = [
        DiagnosticSeries(dim=2, beta=0.0, times=np.arange(5.0), sff=1.0 + 1e-9 * rng.standard_normal(5),
                         cl1=np.zeros(5), purity=np.full(5, 0.5), plateau=0.5)
        for _ in range(8)
    ]
    got = ensemble_average(batch).sff_stderr
    for k in range(5):
        xs = [Fraction(s.sff[k]) for s in batch]
        mean = sum(xs) / 8
        exact = math.sqrt(sum((x - mean) ** 2 for x in xs) / (7 * 8))
        assert abs(got[k] - exact) <= 1e-14 * exact, k


def test_accumulator_means_keep_their_kahan_compensation():
    # fifty 1e-17 terms vanish against 1.0 in a plain sum; Kahan keeps them in
    # the compensation term, so every mean, the lower bound's row of the stack
    # too, equals the correctly rounded sum / n
    def point(x):
        return DiagnosticSeries(dim=2, beta=0.0, times=np.zeros(1), sff=[x], cl1=[x], purity=[x], plateau=0.5,
                                lower_bound=np.array([x]))

    values = [1.0] + [1e-17] * 50
    acc = SeriesAccumulator()
    for x in values:
        acc.add(point(x))
    mean = acc.finalize()
    exact = math.fsum(values) / 51
    assert sum(values) / 51 != exact
    assert mean.sff[0] == mean.cl1[0] == mean.purity[0] == mean.lower_bound[0] == exact


def test_accumulator_is_deterministic_in_fixed_order():
    rng1, rng2 = rng_from_seed(46), rng_from_seed(46)
    a, b = SeriesAccumulator(), SeriesAccumulator()
    for _ in range(5):
        a.add(_series(rng1))
        b.add(_series(rng2))
    ra, rb = a.finalize(), b.finalize()
    assert np.array_equal(ra.sff, rb.sff)
    assert np.array_equal(ra.sff_stderr, rb.sff_stderr)


def test_accumulator_identical_series_zero_stderr():
    s = _series(rng_from_seed(47))
    acc = SeriesAccumulator()
    for _ in range(4):
        acc.add(s)
    out = acc.finalize()
    assert np.array_equal(out.sff, s.sff)
    assert np.all(out.sff_stderr == 0.0)


def test_accumulator_rejects_mismatched_grids():
    rng = rng_from_seed(48)
    acc = SeriesAccumulator()
    acc.add(_series(rng, n=12))
    with pytest.raises(ValueError):
        acc.add(_series(rng, n=13))
    with pytest.raises(ValueError):
        acc.add(_series(rng, n=12, beta=0.7))


def test_accumulator_bound_presence_must_be_uniform():
    rng = rng_from_seed(49)
    acc = SeriesAccumulator()
    acc.add(_series(rng, with_bound=True))
    with pytest.raises(ValueError):
        acc.add(_series(rng, with_bound=False))


def test_accumulator_rejects_a_bound_after_series_without_one():
    # either order raises before any sum moves, so the rejected series leaves no trace
    rng = rng_from_seed(49)
    for first, second in ((False, True), (True, False)):
        acc, first_series = SeriesAccumulator(), _series(rng, with_bound=first)
        acc.add(first_series)
        with pytest.raises(ValueError, match="with and without lower bounds"):
            acc.add(_series(rng, with_bound=second))
        assert acc.count == 1
        assert np.array_equal(acc.finalize().sff, first_series.sff)


def test_ensemble_average_two_point():
    rng = rng_from_seed(50)
    a, b = _series(rng), _series(rng)
    mean = ensemble_average([a, b])
    assert np.max(np.abs(mean.sff - (a.sff + b.sff) / 2)) < 1e-15
    # stderr of two samples is half their separation
    assert np.max(np.abs(mean.sff_stderr - np.abs(a.sff - b.sff) / 2)) < 1e-13


# ---------------------------------------------------------------------------
# pipelines


def test_ed_diagnostics_consistency():
    h = sample_goe(10, 1.0, derive_seed(51, 0, 0))
    times = np.geomspace(0.05, 30.0, 60)
    (s,) = ed_diagnostics(h, 0.0, [0.3], times)
    s.validate()
    assert s.lower_bound is not None
    assert sff_cl1_sandwich(s).ok
    assert np.all(s.sff >= s.lower_bound - 1e-12)
    (s2,) = ed_diagnostics(h, 0.4, [0.3], times)
    assert s2.lower_bound is None  # bound only proven at beta=0


def test_channel_diagnostics_against_markov_limit():
    # eps = 2*gamma*tau at small tau: the discrete series must track the
    # exponential of its own Lindblad generator on the shared step grid
    from scipy.linalg import expm

    from openchaos.diagnostics import cl1_norm as _cl1, sff_fidelity as _sff
    from openchaos.pqc import lindblad_generator
    from openchaos.states import cgs_density, devectorize, vectorize

    d, gamma, tau = 8, 0.5, 1e-3
    h = sample_goe(d, 1.0, derive_seed(51, 0, 1))
    ks = sample_kraus_set(d, 3, derive_seed(51, 1, 1))
    ch = ParametricChannel(tau=tau, epsilon=2 * gamma * tau, hamiltonian=h, kraus=ks)
    steps = 400
    rec = np.arange(0, steps + 1, 50)
    s = channel_diagnostics(ch, 0.0, steps, record_steps=rec)
    gen = lindblad_generator(h, ks.operators, gamma).matrix
    cgs = make_cgs(h, 0.0)
    vec0 = vectorize(cgs_density(cgs))
    for pos, t in enumerate(s.times):
        rho_t = devectorize(expm(t * gen) @ vec0)
        # discretization gap is O(tau); the convergence order itself is
        # pinned down in test_pqc
        assert abs(s.sff[pos] - _sff(cgs, rho_t)) < 2e-3
        assert abs(s.cl1[pos] - _cl1(rho_t)) < 2e-2


def test_channel_diagnostics_records_requested_steps():
    ch = ParametricChannel(
        tau=0.2, epsilon=0.1,
        hamiltonian=sample_goe(6, 1.0, derive_seed(51, 0, 2)),
        kraus=sample_kraus_set(6, 2, derive_seed(51, 1, 2)),
    )
    rec = np.array([0, 3, 7])
    s = channel_diagnostics(ch, 0.0, 7, record_steps=rec)
    assert np.array_equal(s.times, rec * 0.2)
    assert s.sff[0] == pytest.approx(1.0, abs=1e-12)
    # whole steps given as a list or as floats record the same steps
    for same in ([0, 3, 7], [0.0, 3.0, 7.0], np.array([7.0, 0.0, 3.0])):
        assert np.array_equal(channel_diagnostics(ch, 0.0, 7, record_steps=same).sff, s.sff)


@pytest.mark.parametrize("record, entry", [
    ([0.5, 1.7, 2.2], "0.5"),
    (np.array([0.0, 1.5]), "1.5"),
    ([True, False, True], "True"),
    (np.array([False, True]), "False"),
    ([0, True, 2], "True"),
    ([0, math.nan], "nan"),
    ([0, math.inf], "inf"),
])
def test_channel_diagnostics_rejects_record_steps_that_are_not_whole(record, entry):
    # they were truncated to integers: [0.5, 1.7, 2.2] recorded steps 0, 1 and 2 (times 0, 0.5 and 1.0), and
    # [True, False, True] steps 0 and 1
    ch = ParametricChannel(
        tau=0.5, epsilon=0.1,
        hamiltonian=sample_goe(4, 1.0, derive_seed(51, 0, 4)),
        kraus=sample_kraus_set(4, 2, derive_seed(51, 1, 4)),
    )
    with pytest.raises(ValueError, match=f"^record_steps must be whole step numbers, got {entry}$"):
        channel_diagnostics(ch, 0.0, 3, record_steps=record)


@pytest.mark.parametrize("record, message", [
    ([], "record_steps must not be empty"),
    ([0, 4], r"record_steps outside \[0, steps\]"),
    ([-1, 2], r"record_steps outside \[0, steps\]"),
])
def test_channel_diagnostics_rejects_record_steps_it_cannot_record(record, message):
    ch = ParametricChannel(
        tau=0.5, epsilon=0.1,
        hamiltonian=sample_goe(4, 1.0, derive_seed(51, 0, 4)),
        kraus=sample_kraus_set(4, 2, derive_seed(51, 1, 4)),
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        channel_diagnostics(ch, 0.0, 3, record_steps=record)


def test_sff_fidelity_rejects_a_state_of_another_dimension():
    cgs = make_cgs(sample_goe(4, 1.0, derive_seed(51, 0, 4)), 0.0)
    with pytest.raises(ValueError, match=r"^state shape \(3, 3\) does not fit CGS dimension 4$"):
        sff_fidelity(cgs, np.eye(3) / 3)


def test_an_empty_accumulator_has_no_mean():
    with pytest.raises(ValueError, match="^cannot average an empty ensemble$"):
        SeriesAccumulator().finalize()


def test_channel_diagnostics_interleaved_step_matches_matrix_powers():
    # the interleaved form steps as the mixture channel of {N_r U_tau}; its series
    # must be the observables of (W_eps U_tau)^j vec(rho_0) at the recorded steps,
    # with U_tau the mixture at eps = 0 and W_eps the mixture at tau = 0
    beta = 0.3
    h = sample_goe(6, 1.0, derive_seed(51, 0, 3))
    kraus = sample_kraus_set(6, 2, derive_seed(51, 1, 3))

    def at(tau, eps):
        return ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=kraus)

    ch = at(0.4, 0.3)
    wu = build_superoperator(at(0.0, 0.3)).matrix @ build_superoperator(at(0.4, 0.0)).matrix
    rec = np.array([0, 1, 4, 9])
    s = channel_diagnostics(interleaved(ch), beta, 9, record_steps=rec)
    mixture = channel_diagnostics(ch, beta, 9, record_steps=rec)
    cgs = make_cgs(ch.energies, beta)
    vec0 = vectorize(cgs_density(cgs))
    for pos, j in enumerate(rec):
        rho_j = devectorize(np.linalg.matrix_power(wu, j) @ vec0)
        assert s.sff[pos] == pytest.approx(sff_fidelity(cgs, rho_j), abs=1e-12)
        assert s.cl1[pos] == pytest.approx(cl1_norm(rho_j), abs=1e-12)
        assert s.purity[pos] == pytest.approx(purity(rho_j), abs=1e-12)
    assert np.max(np.abs(s.sff - mixture.sff)) > 1e-6


# ---------------------------------------------------------------------------
# CSV artifact


def test_series_to_csv_layout_and_determinism():
    h = sample_goe(8, 1.0, derive_seed(52, 0, 0))
    times = np.geomspace(0.1, 10.0, 20)
    (s,) = ed_diagnostics(h, 0.0, [0.2], times)
    text = series_to_csv(s)
    lines = text.strip().split("\n")
    assert lines[0] == "t,sff,sff_stderr,cl1,purity,lower_bound,upper_bound"
    assert len(lines) == 21
    assert text == series_to_csv(s)  # same input, same bytes
    cols = lines[1].split(",")
    assert len(cols) == 7
    assert float(cols[1]) == pytest.approx(s.sff[0], rel=1e-15)


def test_series_to_csv_finite_temperature_blanks_sandwich():
    h = sample_goe(8, 1.0, derive_seed(52, 0, 1))
    (s,) = ed_diagnostics(h, 0.5, [0.2], np.array([0.5, 1.0]))
    rows = series_to_csv(s).strip().split("\n")[1:]
    for row in rows:
        cols = row.split(",")
        assert cols[5] == "nan" and cols[6] == "nan"


@pytest.mark.parametrize("name, value", [("lower_bound", np.zeros(2)), ("sff_stderr", [0.1])])
def test_series_rows_shorter_than_times_raise(name, value):
    # a 2-long lower bound gave a CSV of 2 of the 4 rows, with no error
    with pytest.raises(ValueError, match=f"{name} length does not match times length 4"):
        DiagnosticSeries(2, 0.0, np.arange(4.0), [.5] * 4, [.1] * 4, [.9] * 4, 0.5, **{name: value})


@pytest.mark.parametrize("call", [
    lambda d: DiagnosticSeries(d, 0.0, np.arange(2.0), [.5] * 2, [.1] * 2, [.9] * 2, 0.5),
    lambda d: sandwich_bounds([0.5], d),
], ids=["DiagnosticSeries", "sandwich_bounds"])
@pytest.mark.parametrize("d", [0, -3, 2**63])
def test_a_series_dimension_outside_its_domain_raises(call, d):
    # d = 0 gave inf bounds with a divide-by-zero warning, d = -3 negative ones
    with pytest.raises(ValueError, match=rf"^d must be >= 2 and below 2\*\*63, got {d}$"):
        call(d)


def test_a_one_level_spectrum_has_no_series():
    with pytest.raises(ValueError, match=r"^d must be >= 2 and below 2\*\*63, got 1$"):
        ed_diagnostics([0.0], 0.0, [0.1], np.array([0.0, 1.0]))


def test_series_optional_rows_become_float_arrays():
    s = DiagnosticSeries(2, 0.0, np.arange(2.0), [.5] * 2, [.1] * 2, [.9] * 2, 0.5,
                         sff_stderr=[0, 1], lower_bound=(0.25, 0.5))
    assert s.sff_stderr.dtype == s.lower_bound.dtype == np.float64
    assert series_to_csv(s).count("\n") == 3


def test_columns_to_csv_rejects_unequal_columns_and_keeps_an_empty_header():
    with pytest.raises(ValueError):  # zipped, the 3-row and 1-row columns gave one row
        columns_to_csv(("a", "b"), ([1.0, 2.0, 3.0], [1.0]))
    assert columns_to_csv(("a", "b"), ([], [])) == "a,b\n"
    assert columns_to_csv(("a", "b"), zip(*[])) == "a,b\n"  # a summary of no grid points


def test_golden_ensemble_checksum():
    # freeze the whole ed pipeline: sampling -> closed forms -> reduction ->
    # formatting; any numeric drift anywhere shows up here
    times = np.geomspace(0.1, 20.0, 25)
    acc = SeriesAccumulator()
    for i in range(20):
        h = sample_goe(16, 1.0, derive_seed(99, 0, i))
        acc.add(ed_diagnostics(h, 0.0, [0.5], times)[0])
    text = series_to_csv(acc.finalize())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "b1c6bd589cb124ca57ed9f5faeac7d23c404b9276eea8ae6e88615ebdcd2f3fd"
