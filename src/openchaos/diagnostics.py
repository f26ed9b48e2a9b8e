"""Fidelity, coherence and purity diagnostics along evolutions, plus ensemble reduction.

The central observable is the fidelity of the evolved coherent Gibbs state
with its initial condition,

    SFF_beta(t) = <Psi_beta| rho_beta(t) |Psi_beta>,

the open-system spectral form factor.  At beta = 0 it is pinned by the l1
coherence C_l1 = sum_{n != m} |rho_nm| through the two-sided bound

    (1 - C_l1)/d <= SFF <= (1 + C_l1)/d,

which holds pointwise for any trace-preserving evolution; `sff_cl1_sandwich`
audits a whole series against it and reports the worst violation instead of
a bare boolean.

The correlation hole of an ensemble-averaged SFF is condensed into a single
number, the effective depth

    D_eff = sqrt( max(0, sum_{j=j_Th}^{j_H} ln(F_p / SFF(j*tau))) ),

summed over whole steps between the Thouless and Heisenberg times.  The sum
is clamped at zero: for a flat (fully dephased) series the hairline
fluctuations of SFF around F_p would otherwise push the argument of the
square root negative.  `estimate_thouless` fixes j_Th operationally as the
argmin of the 5-point smoothed ensemble mean restricted to t < t_H.

Reduction over realizations is done with compensated (Kahan) sums held in
`SeriesAccumulator`; only the SFF carries a standard error.  The CLI adds
realizations in index order, so its output is byte-identical for any worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .dephasing import _check_times, ed_closed_forms, taylor_lower_bound
from .pqc import ParametricChannel, evolve_discrete
from .rmt import _check_scales
from .states import (
    CoherentGibbsState,
    EnergiesLike,
    as_energies,
    cgs_density,
    make_cgs,
    plateau_value,
)

__all__ = [
    "sff_fidelity",
    "cl1_norm",
    "purity",
    "DiagnosticSeries",
    "SandwichReport",
    "sandwich_bounds",
    "sff_cl1_sandwich",
    "effective_depth",
    "estimate_thouless",
    "SeriesAccumulator",
    "ensemble_average",
    "ed_diagnostics",
    "channel_diagnostics",
    "columns_to_csv",
    "series_to_csv",
]


# Bytes of recorded states `channel_diagnostics` holds before reducing them.
_OBSERVE_BYTES = 1 << 20


def _sff_rows(psi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<psi| b_i |psi> for each state of a (B, d, d) stack, real part."""
    return np.real(np.vecdot((psi @ b).conj(), psi))


def _cl1_rows(b: np.ndarray) -> np.ndarray:
    """Off-diagonal l1 norm of each state of a (B, d, d) stack."""
    flat = b.reshape(b.shape[0], -1)
    return np.abs(flat).sum(axis=1) - np.abs(np.diagonal(b, axis1=1, axis2=2)).sum(axis=1)


def _purity_rows(b: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each state of a (B, d, d) stack."""
    flat = b.reshape(b.shape[0], -1)
    return np.real(np.vecdot(flat, flat))


def sff_fidelity(state: CoherentGibbsState, rho: np.ndarray) -> float:
    """Fidelity <Psi_beta| rho |Psi_beta>.

    The quadratic form is real for Hermitian rho up to roundoff; the real
    part is reported and rho is left untouched.
    """
    psi = state.amplitudes
    if rho.shape != (psi.size, psi.size):
        raise ValueError(f"state shape {rho.shape} does not fit CGS dimension {psi.size}")
    return float(_sff_rows(psi, rho[np.newaxis])[0])


def cl1_norm(rho: np.ndarray) -> float:
    """l1 coherence: sum of moduli of all off-diagonal entries."""
    return float(_cl1_rows(np.asarray(rho)[np.newaxis])[0])


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2] evaluated as the squared Frobenius norm (rho Hermitian)."""
    return float(_purity_rows(np.asarray(rho)[np.newaxis])[0])


@dataclass
class DiagnosticSeries:
    """SFF / coherence / purity sampled on a time grid, for one run or an ensemble mean.

    `plateau` carries F_p = Z(2 beta)/Z(beta)^2 of the underlying spectrum
    (ensemble mean thereof after reduction).  Only the SFF carries a standard
    error, attached by `ensemble_average`; it stays None for a single
    realization.  `lower_bound` holds the dephasing Taylor bound where one
    applies.
    """

    dim: int
    beta: float
    times: np.ndarray
    sff: np.ndarray
    cl1: np.ndarray
    purity: np.ndarray
    plateau: float
    n_realizations: int = 1
    sff_stderr: Optional[np.ndarray] = None
    lower_bound: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.sff = np.asarray(self.sff, dtype=float)
        self.cl1 = np.asarray(self.cl1, dtype=float)
        self.purity = np.asarray(self.purity, dtype=float)
        n = self.times.size
        for name in ("sff", "cl1", "purity"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} length does not match times length {n}")

    def validate(self, tol: float = 1e-9) -> None:
        """Range checks: sff and purity in [0, 1], cl1 in [0, d-1], up to tol; NaN fails them."""
        for name, arr, hi in (
            ("sff", self.sff, 1.0),
            ("purity", self.purity, 1.0),
            ("cl1", self.cl1, float(self.dim - 1)),
        ):
            if not np.all((arr >= -tol) & (arr <= hi + tol)):
                raise ValueError(f"{name} leaves [0, {hi}] beyond tolerance {tol:g}")


def sandwich_bounds(cl1, dim: int):
    """Lower and upper coherence bounds ((1 -+ C_l1)/d) for the beta = 0 fidelity."""
    c = np.asarray(cl1, dtype=float)
    return (1.0 - c) / dim, (1.0 + c) / dim


@dataclass(frozen=True)
class SandwichReport:
    """Worst-case audit of SFF against the coherence sandwich."""

    max_violation: float
    time: float
    count: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.count == 0


def sff_cl1_sandwich(series: DiagnosticSeries, tol: float = 1e-10) -> SandwichReport:
    """Check (1 - C_l1)/d <= SFF <= (1 + C_l1)/d pointwise along a beta = 0 series.

    Returns the largest violation and where it happened together with the
    number of grid points beyond `tol`; it never raises on a violation, so
    callers can decide how loud to be.
    """
    if series.beta != 0.0:
        raise ValueError("the coherence sandwich is stated at beta = 0")
    lo, hi = sandwich_bounds(series.cl1, series.dim)
    excess = np.maximum(lo - series.sff, series.sff - hi)
    worst = int(np.argmax(excess))
    return SandwichReport(
        max_violation=float(max(excess[worst], 0.0)),
        time=float(series.times[worst]),
        count=int(np.sum(excess > tol)),
        tol=tol,
    )


def _steps_to(t: float, tau: float, name: str) -> int:
    """ceil(t/tau), the first whole step of period tau that reaches time `name`=t; the one statement of this rule.

    t must be finite and >= 0, tau finite and > 0, and the count at most
    2**53, so that every step up to it is an exact double and fits an int64.
    """
    _check_times(t, name)
    _check_scales(tau=tau)
    if tau == 0.0:
        raise ValueError("a step series needs a period tau > 0")
    if not t / tau <= 2**53:
        raise ValueError(f"tau={tau} takes more than 2**53 steps to reach {name}={t}")
    return math.ceil(t / tau)


def _integer_steps(series: DiagnosticSeries, tau: float) -> np.ndarray:
    """Integer step labels of the series grid; raises if times are off-grid."""
    _steps_to(float(series.times.max(initial=0.0)), tau, "times")
    j = np.rint(series.times / tau).astype(int)
    if np.max(np.abs(series.times - j * tau)) > 1e-9 * max(tau, float(series.times.max(initial=tau))):
        raise ValueError("series is not sampled at integer multiples of tau")
    return j


def effective_depth(
    series: DiagnosticSeries,
    t_thouless: float,
    t_heisenberg: float,
    tau: float,
) -> float:
    """Correlation-hole depth of an (ensemble-averaged) step series.

    Sums ln(F_p / SFF(j*tau)) over whole steps j = ceil(t_Th/tau) ..
    ceil(t_H/tau); both edges follow the step rule of `_steps_to`, and every
    step in the window must be in the series.  The sum is clamped at zero
    before the square root; a non-finite sum raises.
    """
    j = _integer_steps(series, tau)
    j_th = _steps_to(t_thouless, tau, "t_thouless")
    j_h = _steps_to(t_heisenberg, tau, "t_heisenberg")
    if j_th > j_h:
        raise ValueError(f"empty depth window: ceil(t_Th/tau)={j_th} > ceil(t_H/tau)={j_h}")
    pos = np.searchsorted(j, np.arange(j_th, j_h + 1))
    if np.any(pos >= j.size) or np.any(j[pos] != np.arange(j_th, j_h + 1)):
        raise ValueError(f"series is missing steps in the window [{j_th}, {j_h}]")
    sff = series.sff[pos]
    if np.any(sff <= 0):
        raise ValueError("SFF must be positive inside the depth window")
    total = float(np.sum(np.log(series.plateau / sff)))
    if not math.isfinite(total):
        raise ValueError(f"log-ratio sum over the depth window is not finite: {total}")
    return math.sqrt(max(0.0, total))


def _smooth5(x: np.ndarray) -> np.ndarray:
    """Centered moving average over 5 points, window shrinking at the edges."""
    csum = np.concatenate(([0.0], np.cumsum(x)))
    n = x.size
    idx = np.arange(n)
    lo = np.maximum(idx - 2, 0)
    hi = np.minimum(idx + 2, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi + 1 - lo)


def estimate_thouless(series: DiagnosticSeries, t_heisenberg: float) -> float:
    """Operational Thouless time: argmin of the smoothed mean SFF before t_H.

    The ensemble mean is smoothed with a centered 5-point moving average and
    the minimum is searched strictly below the Heisenberg time.
    """
    mask = series.times < t_heisenberg
    if not np.any(mask):
        raise ValueError("no grid points below the Heisenberg time")
    smooth = _smooth5(series.sff)[mask]
    return float(series.times[mask][int(np.argmin(smooth))])


class SeriesAccumulator:
    """Streaming mean/stderr reducer over equally gridded DiagnosticSeries.

    The means of sff, cl1, purity and, when the series carry one, the lower
    bound are Kahan-compensated elementwise sums.  Only the SFF carries a
    spread: plain sums of d = sff - sff_first and d^2 about the first series
    added, which avoid the cancellation of sum(x^2) - n mean^2 where the
    spread is far below the mean (Chan, Golub & LeVeque, Am. Stat. 37, 242
    (1983)).  Adding the same series in the same order gives the same bytes.
    """

    def __init__(self) -> None:
        self.count = 0
        self._template: Optional[DiagnosticSeries] = None
        self._sum: dict = {}
        self._comp: dict = {}
        self._shift: Optional[np.ndarray] = None
        self._dev: Optional[np.ndarray] = None
        self._dev_sq: Optional[np.ndarray] = None
        self._plateau_sum = 0.0

    @staticmethod
    def _kahan_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray) -> None:
        y = x - comp
        t = total + y
        comp[...] = (t - total) - y
        total[...] = t

    def add(self, series: DiagnosticSeries) -> None:
        if self._template is None:
            self._template = series
            fields = ("sff", "cl1", "purity") + (("lower_bound",) if series.lower_bound is not None else ())
            n = series.times.size
            self._sum = {f: np.zeros(n) for f in fields}
            self._comp = {f: np.zeros(n) for f in fields}
            self._shift = series.sff.copy()
            self._dev = np.zeros(n)
            self._dev_sq = np.zeros(n)
        else:
            ref = self._template
            if not np.array_equal(series.times, ref.times):
                raise ValueError("all series in one ensemble must share the time grid")
            if series.beta != ref.beta or series.dim != ref.dim:
                raise ValueError("all series in one ensemble must share beta and dim")
            if (series.lower_bound is None) == ("lower_bound" in self._sum):
                raise ValueError("mixing series with and without lower bounds")
        for f, total in self._sum.items():
            self._kahan_add(total, self._comp[f], getattr(series, f))
        d = series.sff - self._shift
        self._dev += d
        self._dev_sq += d * d
        self._plateau_sum += series.plateau
        self.count += 1

    def finalize(self) -> DiagnosticSeries:
        if self.count == 0:
            raise ValueError("cannot average an empty ensemble")
        n = self.count
        ref = self._template
        means = {f: total / n for f, total in self._sum.items()}
        var = np.maximum(self._dev_sq - self._dev**2 / n, 0.0) / max(n - 1, 1)
        return DiagnosticSeries(
            dim=ref.dim,
            beta=ref.beta,
            times=ref.times.copy(),
            sff=means["sff"],
            cl1=means["cl1"],
            purity=means["purity"],
            plateau=self._plateau_sum / n,
            n_realizations=n,
            sff_stderr=np.sqrt(var / n),
            lower_bound=means.get("lower_bound"),
        )


def ensemble_average(series: Iterable[DiagnosticSeries]) -> DiagnosticSeries:
    """Mean and standard error over realizations sharing one time grid."""
    acc = SeriesAccumulator()
    for s in series:
        acc.add(s)
    return acc.finalize()


def ed_diagnostics(
    energies: EnergiesLike, beta: float, gammas: Sequence[float], times: np.ndarray, hbar: float = 1.0
) -> List[DiagnosticSeries]:
    """Closed-form dephasing series on an arbitrary time grid, one per gamma.

    The series come in the order of `gammas`, from one pass of
    `ed_closed_forms` over the level pairs; at beta = 0 each carries the
    Taylor lower bound.
    """
    e = as_energies(energies)
    t = np.asarray(times, dtype=float)
    fp = plateau_value(e, beta)
    return [
        DiagnosticSeries(
            dim=e.size,
            beta=beta,
            times=t,
            sff=forms.sff,
            cl1=forms.cl1,
            purity=forms.purity,
            plateau=fp,
            lower_bound=taylor_lower_bound(forms, e.size, t, hbar) if beta == 0.0 else None,
        )
        for forms in ed_closed_forms(e, beta, gammas, t, hbar)
    ]


def channel_diagnostics(
    channel: ParametricChannel,
    beta: float,
    steps: int,
    record_steps: Optional[Sequence[int]] = None,
) -> DiagnosticSeries:
    """Evolve the coherent Gibbs state through the channel and record diagnostics.

    The evolution streams through all j = 0..steps; observables are stored at
    `record_steps` only (default: every step).  Recorded states are copied
    into a buffer of about `_OBSERVE_BYTES` (1 MB, at least one state), and
    each full buffer is reduced by one batched call per observable, with the
    same reductions `sff_fidelity`, `cl1_norm` and `purity` apply to one
    state.  Memory stays about 1 MB plus O(d^2) however long the run is.
    Every step is `apply_channel`; for the interleaved form W_eps U_tau pass
    `interleaved(channel)`, itself a mixture channel.
    """
    cgs = make_cgs(channel.energies, beta)
    rho0 = cgs_density(cgs)
    if record_steps is None:
        record = np.arange(steps + 1)
    else:
        record = np.unique(np.asarray(record_steps, dtype=int))
        if record.size == 0:
            raise ValueError("record_steps must not be empty")
        if record[0] < 0 or record[-1] > steps:
            raise ValueError("record_steps outside [0, steps]")
    d = channel.dim
    buf = np.empty((min(record.size, max(1, _OBSERVE_BYTES // (16 * d * d))), d, d), dtype=complex)
    sff = np.empty(record.size)
    cl1 = np.empty(record.size)
    pur = np.empty(record.size)
    pos = held = 0
    for j, rho in enumerate(evolve_discrete(channel, rho0, int(record[-1]))):
        if j != record[pos + held]:
            continue
        buf[held] = rho
        held += 1
        if held == buf.shape[0] or pos + held == record.size:
            b = buf[:held]
            sff[pos : pos + held] = _sff_rows(cgs.amplitudes, b)
            cl1[pos : pos + held] = _cl1_rows(b)
            pur[pos : pos + held] = _purity_rows(b)
            pos += held
            held = 0
    return DiagnosticSeries(
        dim=channel.dim,
        beta=beta,
        times=record * channel.tau,
        sff=sff,
        cl1=cl1,
        purity=pur,
        plateau=plateau_value(channel.energies, beta),
    )


def columns_to_csv(header: Sequence[str], columns: Sequence, labels: Sequence[str] = ()) -> str:
    """CSV text of equally long columns: the one number format of every artifact.

    Columns named in `labels` (integers and text) are written with str; every
    other column is read as float64 and written with the shortest
    value-preserving scientific notation, so equal inputs give byte-identical
    files.  One header line, one line per row, each ending in a newline.
    """
    cells = [
        [str(v) for v in col] if name in labels
        else [np.format_float_scientific(v, unique=True) for v in np.asarray(col, dtype=float)]
        for name, col in zip(header, columns)
    ]
    return "\n".join([",".join(header)] + [",".join(row) for row in zip(*cells)]) + "\n"


def series_to_csv(series: DiagnosticSeries) -> str:
    """Render a series to CSV with the canonical column set.

    Columns: t, sff, sff_stderr, cl1, purity, lower_bound, upper_bound.  The
    bound columns hold the dephasing Taylor bound when the series carries
    one, otherwise the beta = 0 coherence sandwich; outside beta = 0 they are
    nan.
    """
    n = series.times.size
    err = series.sff_stderr if series.sff_stderr is not None else np.zeros(n)
    if series.beta == 0.0:
        lo, hi = sandwich_bounds(series.cl1, series.dim)
        if series.lower_bound is not None:
            lo = series.lower_bound
    else:
        lo = np.full(n, np.nan)
        hi = np.full(n, np.nan)
    return columns_to_csv(
        ("t", "sff", "sff_stderr", "cl1", "purity", "lower_bound", "upper_bound"),
        (series.times, series.sff, err, series.cl1, series.purity, lo, hi),
    )
