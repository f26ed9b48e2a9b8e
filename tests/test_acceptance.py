"""End-to-end acceptance gate for the shipped guarantees.

Each test covers one numbered guarantee and prints a single verdict line
(bypassing capture, so it is visible in any pytest run) before asserting.
All randomness flows from one frozen master seed, so every number printed
here is reproducible bit for bit on any platform with the same BLAS.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.distance import cdist

from openchaos.dephasing import ed_closed_forms, ed_evolve, ed_liouvillian
from openchaos.diagnostics import (
    SeriesAccumulator,
    channel_diagnostics,
    ed_diagnostics,
    effective_depth,
    ensemble_average,
    estimate_thouless,
    sff_cl1_sandwich,
)
from openchaos.pqc import (
    ParametricChannel,
    apply_channel,
    build_superoperator,
    lindblad_generator,
)
from openchaos.rmt import (
    derive_seed,
    heisenberg_time,
    sample_goe,
    sample_kraus_set,
)
from openchaos.spectral import (
    annular_boundaries,
    classify_phase,
    complex_spacing_ratios,
    containment_fraction,
    eigenvalues,
    phase_boundary,
    phi_max,
    split_bulk,
)
from openchaos.states import cgs_density, make_cgs, plateau_value

from kdtree_ratios import kdtree_spacing_ratios

MASTER = 20260815
DIM = 32
SIGMA = 1.0
KRAUS = 3
T_H = heisenberg_time(DIM, SIGMA, 1.0)

# label -> (tau, eps); the four bulk geometries at K = 3
REGIMES = {
    "annular": (1.0, 0.2),
    "disk": (1.0, 0.7),
    "crescent": (0.05, 0.2),
    "shifted-disk": (1e-4, 0.7),
}


@pytest.fixture(scope="session")
def goe100():
    return [sample_goe(DIM, SIGMA, derive_seed(MASTER, 0, i)) for i in range(100)]


@pytest.fixture(scope="session")
def regime_draws():
    return [
        (
            sample_goe(DIM, SIGMA, derive_seed(MASTER, 0, i)),
            sample_kraus_set(DIM, KRAUS, derive_seed(MASTER, 1, i)),
        )
        for i in range(4)
    ]


@pytest.fixture(scope="session")
def regime_clouds(regime_draws):
    """Full superoperator spectra: 4 realizations per bulk geometry."""
    clouds = {}
    for name, (tau, eps) in REGIMES.items():
        clouds[name] = [
            eigenvalues(
                build_superoperator(
                    ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=ks)
                ),
                context=f"{name}, tau={tau}, eps={eps}",
            )
            for h, ks in regime_draws
        ]
    return clouds


@pytest.fixture
def verdict(capfd):
    def report(index, label, ok, detail):
        with capfd.disabled():
            print(f"\n[{index}/9] {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        assert ok, f"{label}: {detail}"

    return report


def test_coherence_sandwich_ed_and_channel(goe100, verdict):
    # (1 - C_l1)/d <= SFF <= (1 + C_l1)/d pointwise at beta = 0, for the
    # dephasing closed forms and for evolved channel trajectories alike.
    times = np.geomspace(0.1, 4.0 * T_H, 400)
    count, worst = 0, 0.0
    for gamma in (0.1, 4.0):
        for h in goe100[:50]:
            rep = sff_cl1_sandwich(ed_diagnostics(h, 0.0, [gamma], times)[0], tol=1e-10)
            count += rep.count
            worst = max(worst, rep.max_violation)
    steps = round(2.0 * T_H / 0.01)
    record = np.union1d(np.rint(np.geomspace(1, steps, 400)).astype(int), [0])
    for i, h in enumerate(goe100[:50]):
        ks = sample_kraus_set(DIM, KRAUS, derive_seed(MASTER, 1, i))
        ch = ParametricChannel(tau=0.01, epsilon=0.1, hamiltonian=h, kraus=ks)
        rep = sff_cl1_sandwich(
            channel_diagnostics(ch, 0.0, steps, record_steps=record), tol=1e-10
        )
        count += rep.count
        worst = max(worst, rep.max_violation)
    verdict(
        1,
        "coherence sandwich, dephasing + channel",
        count == 0,
        f"violations={count}, worst={worst:.3e}",
    )


def test_dephasing_taylor_lower_bound(goe100, verdict):
    # SFF >= (1/d)(1 + C_l1 + t dC_l1/dgamma / 2) pointwise at beta = 0
    times = np.geomspace(0.01, 4.0 * T_H, 400)
    worst = -np.inf
    for gamma in (0.1, 1.0, 4.0):
        for h in goe100[:50]:
            bound = ed_diagnostics(h, 0.0, [gamma], times)[0].lower_bound
            gap = bound - ed_closed_forms(h, 0.0, [gamma], times)[0].sff
            worst = max(worst, float(np.max(gap)))
    verdict(
        2,
        "dephasing lower bound, gamma in {0.1, 1, 4}",
        worst <= 1e-10,
        f"max(bound - sff)={worst:.3e}",
    )


def _double_commutator_rhs(hm, gamma):
    def rhs(r):
        comm = hm @ r - r @ hm
        dbl = hm @ (hm @ r) - 2.0 * (hm @ r @ hm) + (r @ hm) @ hm
        return -1j * comm - gamma * dbl

    return rhs


def test_dual_route_oracles(verdict):
    # Kraus route vs dense-matrix route, then closed form vs RK4 integration
    d = 8
    worst_dual = 0.0
    for i in range(20):
        h = sample_goe(d, 1.0, derive_seed(MASTER, 0, 200 + i))
        ks = sample_kraus_set(d, KRAUS, derive_seed(MASTER, 1, 200 + i))
        ch = ParametricChannel(tau=0.3, epsilon=0.35, hamiltonian=h, kraus=ks)
        sup = build_superoperator(ch)
        rho = cgs_density(make_cgs(h, 0.1))
        mat = rho.copy()
        for _ in range(20):
            rho = apply_channel(ch, rho)
            mat = sup.apply(mat)
            worst_dual = max(worst_dual, float(np.max(np.abs(rho - mat))))

    h = sample_goe(d, 1.0, derive_seed(MASTER, 0, 250))
    gamma, horizon, steps = 0.1, 1.0, 1000
    q = h.eigenvectors
    rho0 = cgs_density(make_cgs(h, 0.2))
    rhs = _double_commutator_rhs(h.matrix.astype(complex), gamma)
    r = (q @ rho0 @ q.T).astype(complex)  # integrate in the sampling basis
    dt = horizon / steps
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    closed = ed_evolve(rho0, h, gamma, horizon)
    worst_rk4 = float(np.max(np.abs(closed - q.T @ r @ q)))
    verdict(
        3,
        "dual-route oracles, Kraus/matrix + closed-form/RK4",
        worst_dual <= 1e-10 and worst_rk4 <= 1e-6,
        f"dual={worst_dual:.3e}, rk4={worst_rk4:.3e}",
    )


def test_markov_limit_first_order(verdict):
    # fixed horizon t = 1: || L_{tau,2*gamma*tau}^{t/tau} - exp(t L) ||_max
    # shrinks linearly in tau; with the Hamiltonian itself as the only jump
    # operator the generator is exactly the dephasing Liouvillian.
    d, gamma, horizon = 8, 0.5, 1.0
    h = sample_goe(d, 1.0, derive_seed(MASTER, 0, 300))
    ks = sample_kraus_set(d, KRAUS, derive_seed(MASTER, 1, 300))
    target = expm(horizon * lindblad_generator(h, ks.operators, gamma).matrix)
    taus = (1e-2, 1e-3, 1e-4)
    errs = []
    for tau in taus:
        ch = ParametricChannel(tau=tau, epsilon=2.0 * gamma * tau, hamiltonian=h, kraus=ks)
        prop = np.linalg.matrix_power(build_superoperator(ch).matrix, round(horizon / tau))
        errs.append(float(np.max(np.abs(prop - target))))
    slope = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    ed_gap = float(
        np.max(
            np.abs(
                lindblad_generator(h, h.matrix[np.newaxis], gamma).matrix
                - ed_liouvillian(h, gamma).matrix
            )
        )
    )
    verdict(
        4,
        "Markov limit, slope 1 + dephasing generator match",
        abs(slope - 1.0) <= 0.2 and ed_gap <= 1e-12,
        f"slope={slope:.4f}, generator gap={ed_gap:.3e}",
    )


def test_bulk_containment_in_analytic_boundaries(regime_draws, regime_clouds, verdict):
    details, ok = [], True
    for name, (tau, eps) in REGIMES.items():
        bulks = [split_bulk(ev)[0] for ev in regime_clouds[name]]
        pooled = np.concatenate(bulks)
        phase = classify_phase(eps, tau, KRAUS, DIM, SIGMA)
        boundary = phase_boundary(phase, eps, KRAUS, tau=tau, d=DIM, sigma=SIGMA)
        frac = containment_fraction(pooled, boundary, margin=0.02)
        ok = ok and phase == name and frac >= 0.99
        details.append(f"{name}={frac:.4f}")
    # eps = 0: the pure phase spectrum stays inside the analytic sector
    tau0 = 0.1
    cap = phi_max(tau0, DIM, SIGMA)
    worst = 0.0
    for h, ks in regime_draws:
        ch = ParametricChannel(tau=tau0, epsilon=0.0, hamiltonian=h, kraus=ks)
        ev = eigenvalues(build_superoperator(ch), context="eps=0 sector")
        worst = max(worst, float(np.max(np.abs(np.angle(ev)))))
    ok = ok and worst <= cap + 1e-10
    details.append(f"sector max|arg|={worst:.4f}<=phi_max={cap:.4f}")
    verdict(5, "bulk containment in analytic boundaries", ok, "; ".join(details))


def test_annulus_to_disk_crossover(regime_draws, verdict):
    inner = annular_boundaries(0.3, KRAUS)[1]
    fracs = []
    for h, ks in regime_draws:
        ch = ParametricChannel(tau=1.0, epsilon=0.3, hamiltonian=h, kraus=ks)
        bulk, _ = split_bulk(
            eigenvalues(build_superoperator(ch), context="crossover eps=0.3")
        )
        fracs.append(float(np.mean(np.abs(bulk) < 0.9 * inner)))
    frac = float(np.mean(fracs))
    hole_present = all(
        annular_boundaries(e, KRAUS)[1] is not None for e in (0.3, 0.6)
    )
    hole_gone = all(
        annular_boundaries(e, KRAUS)[1] is None for e in (0.634, 0.7, 1.0)
    )
    verdict(
        6,
        "annulus-to-disk crossover at eps_c",
        frac <= 0.01 and hole_present and hole_gone,
        f"frac inside 0.9*inner={frac:.4f}, hole below/above eps_c: "
        f"{hole_present}/{hole_gone}",
    )


def test_correlation_hole_suppression(goe100, verdict):
    # relative hole depth shrinks as the environment coupling grows (eps up
    # at fixed tau) and as the kick period shrinks (tau down at fixed eps)
    taus = (0.1, 0.01, 0.001)
    pairs = [(0.1, 0.01), (0.01, 0.01), (0.001, 0.01), (0.01, 0.1)]
    j_max = {t: math.ceil(T_H / t) + 1 for t in taus}
    iso_acc = {t: SeriesAccumulator() for t in taus}
    acc = {p: SeriesAccumulator() for p in pairs}
    for i, h in enumerate(goe100):
        ks = sample_kraus_set(DIM, KRAUS, derive_seed(MASTER, 1, i))
        for tau in taus:
            times = np.arange(j_max[tau] + 1) * tau
            iso_acc[tau].add(ed_diagnostics(h, 0.0, [0.0], times)[0])
        for tau, eps in pairs:
            ch = ParametricChannel(tau=tau, epsilon=eps, hamiltonian=h, kraus=ks)
            acc[(tau, eps)].add(channel_diagnostics(ch, 0.0, j_max[tau]))
    iso_mean = {t: iso_acc[t].finalize() for t in taus}
    t_th = {t: estimate_thouless(iso_mean[t], T_H) for t in taus}
    d_iso = {t: effective_depth(iso_mean[t], t_th[t], T_H, t) for t in taus}
    rel = {
        p: effective_depth(acc[p].finalize(), t_th[p[0]], T_H, p[0]) / d_iso[p[0]]
        for p in pairs
    }
    eps_sweep = [1.0, rel[(0.01, 0.01)], rel[(0.01, 0.1)]]
    tau_sweep = [rel[(0.1, 0.01)], rel[(0.01, 0.01)], rel[(0.001, 0.01)]]
    monotone = all(a >= b for a, b in zip(eps_sweep, eps_sweep[1:])) and all(
        a >= b for a, b in zip(tau_sweep, tau_sweep[1:])
    )
    positive = all(v > 0.0 for v in d_iso.values())
    verdict(
        7,
        "correlation-hole suppression, eps and tau sweeps",
        monotone and positive,
        "eps sweep " + "/".join(f"{v:.3f}" for v in eps_sweep)
        + ", tau sweep " + "/".join(f"{v:.3f}" for v in tau_sweep),
    )


def test_plateau_and_timescales(goe100, verdict):
    # late-time SFF mean vs F_p (paired per realization), Thouless growth
    # with gamma, and spectrum of a channel power vs power of the spectrum
    window = np.linspace(2.0 * T_H, 4.0 * T_H, 64)
    gammas = [0.01]
    tstats = []
    for beta in (0.0, 0.1):
        devs = np.array(
            [
                float(np.mean(ed_closed_forms(h, beta, gammas, window)[0].sff) - plateau_value(h, beta))
                for h in goe100
            ]
        )
        tstats.append(abs(devs.mean()) / (devs.std(ddof=1) / math.sqrt(devs.size)))

    times = np.geomspace(0.05, 1.2 * T_H, 400)
    t_ths = []
    for gamma in (0.0, 0.1, 1.0):
        mean = ensemble_average(
            ed_diagnostics(h, 0.0, [gamma], times)[0] for h in goe100
        )
        t_ths.append(estimate_thouless(mean, T_H))
    monotone = all(a <= b for a, b in zip(t_ths, t_ths[1:]))

    h = sample_goe(8, 1.0, derive_seed(MASTER, 0, 310))
    ks = sample_kraus_set(8, KRAUS, derive_seed(MASTER, 1, 310))
    m = build_superoperator(
        ParametricChannel(tau=0.1, epsilon=0.2, hamiltonian=h, kraus=ks)
    ).matrix
    direct = np.linalg.eigvals(np.linalg.matrix_power(m, 25))
    powered = np.linalg.eigvals(m) ** 25
    dm = cdist(
        np.column_stack([direct.real, direct.imag]),
        np.column_stack([powered.real, powered.imag]),
    )
    haus = float(max(dm.min(axis=0).max(), dm.min(axis=1).max()))
    verdict(
        8,
        "plateau t-test, Thouless growth, channel-power spectrum",
        max(tstats) <= 3.0 and monotone and haus <= 1e-8,
        f"|t|max={max(tstats):.2f}, t_th=" + "/".join(f"{v:.3f}" for v in t_ths)
        + f", hausdorff={haus:.2e}",
    )


def test_spacing_ratio_statistics(regime_clouds, verdict):
    # |z| <= 1 always; accelerated neighbour search is bit-identical to the
    # brute force on a pooled 4096-point cloud; and each regime shows the
    # repulsion hole: counts inside |z| <= 0.1 at least 3 sigma below the
    # flat-measure expectation. Ratios are computed per realization (pooling
    # spectra first would superpose independent clouds and wash out the hole).
    details, ok, max_mod = [], True, 0.0
    for name, clouds in REGIMES.items():
        ratios = np.concatenate(
            [complex_spacing_ratios(ev).ratios for ev in regime_clouds[name]]
        )
        mods = np.abs(ratios)
        max_mod = max(max_mod, float(mods.max()))
        n = ratios.size
        p_flat = 0.1**2
        mu = n * p_flat
        sd = math.sqrt(n * p_flat * (1.0 - p_flat))
        count = int(np.sum(mods <= 0.1))
        ok = ok and count <= mu - 3.0 * sd
        details.append(f"{name}={count} (flat {mu:.0f}+-{sd:.1f})")
    ok = ok and max_mod <= 1.0 + 1e-12
    pooled = np.concatenate(regime_clouds["annular"])
    brute = complex_spacing_ratios(pooled).ratios
    fast = kdtree_spacing_ratios(pooled).ratios
    dual = bool(np.array_equal(brute, fast))
    ok = ok and dual
    verdict(
        9,
        "spacing-ratio repulsion and dual-path identity",
        ok,
        f"max|z|={max_mod:.12f}, dual={dual}, " + ", ".join(details),
    )
