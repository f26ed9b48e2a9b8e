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

from .dephasing import ed_closed_forms
from .pqc import ParametricChannel, evolve_discrete
from .rmt import _check_scales, _check_times
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
    applies.  Every row present is a float array as long as `times`.
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
        _check_scales(d=self.dim)
        self.times = np.asarray(self.times, dtype=float)
        n = self.times.size
        for name in ("sff", "cl1", "purity", "sff_stderr", "lower_bound"):
            value = getattr(self, name)
            if value is None and name in ("sff_stderr", "lower_bound"):  # the two rows a series may lack
                continue
            setattr(self, name, np.asarray(value, dtype=float))
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
    """Lower and upper coherence bounds ((1 -+ C_l1)/d) for the beta = 0 fidelity; 2 <= d < 2**63."""
    _check_scales(d=dim)
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
    """The first whole step n of period tau whose time n*tau reaches `name`=t; the one statement of this rule.

    n is ceil(t/tau), moved by one where the rounded quotient misses: ceil(3*0.1/0.1) is 4, but 3*0.1 is step 3.
    t must lie in [0, 1e65], tau in its scale range and > 0, and the count at most
    2**53, so that every step up to it is an exact double and fits an int64.
    """
    _check_times(t, name)
    _check_scales(tau=tau)
    if tau == 0.0:
        raise ValueError("a step series needs a period tau > 0")
    if not t / tau <= 2**53:
        raise ValueError(f"tau={tau} takes more than 2**53 steps to reach {name}={t}")
    n = math.ceil(t / tau)
    if (n - 1) * tau >= t:  # never at n = 0, since t >= 0 > -tau
        return n - 1
    return n + 1 if n * tau < t else n


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

    Sums ln(F_p / SFF(j*tau)) over whole steps j from the first that reaches
    t_Th to the first that reaches t_H (`_steps_to`: a grid time k*tau is step
    k), and every step in the window must be in the series.  The sum is
    clamped at zero before the square root; a non-finite sum raises.
    """
    j = _integer_steps(series, tau)
    j_th = _steps_to(t_thouless, tau, "t_thouless")
    j_h = _steps_to(t_heisenberg, tau, "t_heisenberg")
    if j_th > j_h:
        raise ValueError(f"empty depth window: step {j_th} of t_Th > step {j_h} of t_H")
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
    _check_times(t_heisenberg, "t_heisenberg")
    mask = series.times < t_heisenberg
    if not np.any(mask):
        raise ValueError("no grid points below the Heisenberg time")
    smooth = _smooth5(series.sff)[mask]
    return float(series.times[mask][int(np.argmin(smooth))])


class SeriesAccumulator:
    """Streaming mean/stderr reducer over equally gridded DiagnosticSeries.

    The sff, cl1, purity and (when the series carry one) lower-bound rows are
    one stacked (F, T) Kahan sum with one (F, T) compensation array: one
    elementwise step per `add`, one division in `finalize`.  Only the SFF has
    a spread, from the plain (2, T) sums of d = sff - sff_first and d^2 about
    the first series added, which avoid the cancellation of sum(x^2) - n mean^2
    where the spread is far below the mean (Chan, Golub & LeVeque, Am. Stat.
    37, 242 (1983)).  Adding the same series in the same order gives the same bytes.
    """

    _ROWS = ("sff", "cl1", "purity", "lower_bound")  # the stack's rows; series without a lower bound have three

    def __init__(self) -> None:
        self.count = 0
        self._template: Optional[DiagnosticSeries] = None
        self._sum: Optional[np.ndarray] = None
        self._comp: Optional[np.ndarray] = None
        self._shift: Optional[np.ndarray] = None
        self._dev: Optional[np.ndarray] = None
        self._plateau_sum = 0.0

    def add(self, series: DiagnosticSeries) -> None:
        rows = np.stack([getattr(series, f) for f in self._ROWS if getattr(series, f) is not None])
        if self._template is None:
            self._template = series
            self._sum = np.zeros_like(rows)
            self._comp = np.zeros_like(rows)
            self._shift = rows[0]  # a copy of the first sff, since np.stack copies
            self._dev = np.zeros((2, series.times.size))
        else:
            ref = self._template
            if not np.array_equal(series.times, ref.times):
                raise ValueError("all series in one ensemble must share the time grid")
            if series.beta != ref.beta or series.dim != ref.dim:
                raise ValueError("all series in one ensemble must share beta and dim")
            if rows.shape != self._sum.shape:
                raise ValueError("mixing series with and without lower bounds")
        y = rows - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        d = series.sff - self._shift
        self._dev += (d, d * d)
        self._plateau_sum += series.plateau
        self.count += 1

    def finalize(self) -> DiagnosticSeries:
        if self.count == 0:
            raise ValueError("cannot average an empty ensemble")
        n = self.count
        ref = self._template
        dev, dev_sq = self._dev
        var = np.maximum(dev_sq - dev**2 / n, 0.0) / max(n - 1, 1)
        return DiagnosticSeries(
            dim=ref.dim,
            beta=ref.beta,
            times=ref.times.copy(),
            plateau=self._plateau_sum / n,
            n_realizations=n,
            sff_stderr=np.sqrt(var / n),
            **dict(zip(self._ROWS, self._sum / n)),
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
    `ed_closed_forms` over the level pairs.  At beta = 0 each carries the
    Taylor lower bound (1/d)(1 + C_l1 + t*dC_l1/dgamma/(2*hbar^2)), its last
    term formed as (t/hbar)*(dC_l1/dgamma/hbar)/2, in that order, which fixes
    the bytes of every written bound; it stays below 2e270*d in magnitude (the
    bound table of `rmt`).
    """
    e = as_energies(energies)
    t = np.asarray(times, dtype=float)
    fp = plateau_value(e, beta)
    closed = ed_closed_forms(e, beta, gammas, t, hbar)
    h = float(hbar)  # checked by ed_closed_forms
    return [
        DiagnosticSeries(
            dim=e.size,
            beta=beta,
            times=t,
            sff=forms.sff,
            cl1=forms.cl1,
            purity=forms.purity,
            plateau=fp,
            lower_bound=(1.0 + forms.cl1 + (t / h) * (forms.cl1_gamma_derivative / h) / 2.0) / e.size
            if beta == 0.0 else None,
        )
        for forms in closed
    ]


def channel_diagnostics(
    channel: ParametricChannel,
    beta: float,
    steps: int,
    record_steps: Optional[Sequence[int]] = None,
) -> DiagnosticSeries:
    """Evolve the coherent Gibbs state through the channel and record diagnostics.

    The evolution streams through all j = 0..steps; observables are stored at
    `record_steps` only (default: every step), whole step numbers: a
    fraction or a boolean raises ValueError.  Recorded states are copied
    into a buffer of about `_OBSERVE_BYTES` (1 MB, at least one state), and
    each full buffer is reduced into the columns of one (3, n) array by one
    batched call per observable, with the reductions `sff_fidelity`, `cl1_norm`
    and `purity` apply to one state.  Memory stays about 1 MB plus O(d^2)
    however long the run is.
    Every step is `apply_channel`; for the interleaved form W_eps U_tau pass
    `interleaved(channel)`, itself a mixture channel.
    """
    cgs = make_cgs(channel.energies, beta)
    rho0 = cgs_density(cgs)
    if record_steps is None:
        record = np.arange(steps + 1)
    else:
        if not (isinstance(record_steps, np.ndarray) and record_steps.dtype.kind in "iu"):
            for j in np.ravel(np.asarray(record_steps, dtype=object)):  # as given: a bool stays a bool
                if isinstance(j, (bool, np.bool_)) or not float(j).is_integer():
                    raise ValueError(f"record_steps must be whole step numbers, got {j!r}")
        record = np.unique(np.asarray(record_steps, dtype=int))
        if record.size == 0:
            raise ValueError("record_steps must not be empty")
        if record[0] < 0 or record[-1] > steps:
            raise ValueError("record_steps outside [0, steps]")
    d = channel.dim
    buf = np.empty((min(record.size, max(1, _OBSERVE_BYTES // (16 * d * d))), d, d), dtype=complex)
    obs = np.empty((3, record.size))  # sff, cl1 and purity rows
    k = 0  # states recorded so far; the buffer holds those past the last multiple of its size
    for j, rho in enumerate(evolve_discrete(channel, rho0, int(record[-1]))):
        if j != record[k]:
            continue
        buf[k % buf.shape[0]] = rho
        k += 1
        if k % buf.shape[0] == 0 or k == record.size:
            b = buf[: (k - 1) % buf.shape[0] + 1]
            obs[:, k - b.shape[0] : k] = _sff_rows(cgs.amplitudes, b), _cl1_rows(b), _purity_rows(b)
    return DiagnosticSeries(
        dim=d,
        beta=beta,
        times=record * channel.tau,
        sff=obs[0],
        cl1=obs[1],
        purity=obs[2],
        plateau=plateau_value(channel.energies, beta),
    )


def columns_to_csv(header: Sequence[str], columns: Sequence, labels: Sequence[str] = ()) -> str:
    """CSV text of equally long columns: the one number format of every artifact.

    Columns named in `labels` (integers and text) are written with str; every
    other column is read as float64 and written with the shortest
    value-preserving scientific notation, so equal inputs give byte-identical
    files.  One header line, one line per row, each ending in a newline; a
    table with no rows is its header alone, and columns of unequal length raise.
    """
    cells = [
        [str(v) for v in col] if name in labels
        else [np.format_float_scientific(v, unique=True) for v in np.asarray(col, dtype=float)]
        for name, col in zip(header, columns)
    ]
    return "\n".join([",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]) + "\n"


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
