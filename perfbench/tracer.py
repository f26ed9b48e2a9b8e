"""Span tracer that wraps openchaos functions at the sites their callers use.

Each wrapped call records one span (id, parent id, layer, function, start,
end, pid, thread id, note).  Spans stay in memory until the traced pass ends.
The library itself is never edited: the tracer replaces module attributes
(and a few class attributes) for the duration of a traced pass and restores
them afterwards.

A name is resolved where the caller looks it up.  `cli` does
`from .pqc import build_superoperator`, so the span has to wrap
`openchaos.cli.build_superoperator`; wrapping `openchaos.pqc` would see no
call.  A site that no longer exists is reported as missing, and a layer none
of whose sites was called is reported as absent with 0 calls.

Parents: a span started while another span is open on the same thread is its
child.  A span started on a thread with nothing open (a pool worker) is
adopted by the root span open on another thread, i.e. by `cli.run`.  Self
time is a span's duration minus the union of its children's intervals, so
children that overlap on different threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float
    pid: int
    tid: int
    note: object = None


# ---------------------------------------------------------------------------
# notes: per-call facts recorded with the span, aggregated after the pass


def _size(x) -> int:
    e = getattr(x, "energies", x)
    return int(getattr(e, "size", 1))


def _pair_note(args, kwargs):
    """(T, d(d-1)/2) of a closed-form pair kernel call f(energies, beta, params, t)."""
    energies = args[0] if args else kwargs["energies"]
    t = args[3] if len(args) > 3 else kwargs["t"]
    d = _size(energies)
    return (_size(t), d * (d - 1) // 2)


def _flop_note(args, kwargs):
    """Real flops of one Kraus-form step: 2*K complex d^3 GEMMs of 8 d^3 flops each."""
    channel = args[0] if args else kwargs["channel"]
    if channel.epsilon <= 0.0:
        return 0
    k, d = channel.kraus_ops.shape[0], channel.kraus_ops.shape[1]
    return 2 * k * 8 * d**3


def _rotation_note(args, kwargs):
    """Identity of the (Hamiltonian, Kraus set) pair a channel rotates."""
    channel = args[0]
    return (channel.hamiltonian.seed, channel.kraus.seed, channel.hamiltonian.dim)


def _matrix_note(args, kwargs):
    """Cheap fingerprint of the matrix handed to an eigensolve."""
    superop = args[0] if args else kwargs["superop"]
    m = superop.matrix
    return (m.shape, hash(m.ravel()[:: 4099].tobytes()), hash(m.diagonal().tobytes()))


# ---------------------------------------------------------------------------
# the layer table: (layer, owner, attribute, note)

SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("rmt.sample_goe", "openchaos.cli", "sample_goe", None),
    ("rmt.sample_kraus_set", "openchaos.cli", "sample_kraus_set", None),
    ("states", "openchaos.diagnostics", "make_cgs", None),
    ("states", "openchaos.diagnostics", "cgs_density", None),
    ("states", "openchaos.diagnostics", "plateau_value", None),
    ("states", "openchaos.dephasing", "plateau_value", None),
    ("states", "openchaos.states", "make_cgs", None),
    ("states", "openchaos.states", "cgs_density", None),
    ("states", "openchaos.states", "plateau_value", None),
    ("pqc.apply_channel", "openchaos.pqc", "apply_channel", _flop_note),
    ("pqc.channel_init", "openchaos.pqc:ParametricChannel", "__post_init__", _rotation_note),
    ("pqc.build_superoperator", "openchaos.cli", "build_superoperator", None),
    ("pqc.build_superoperator", "openchaos.cli", "build_wu_channel", None),
    ("spectral.eigenvalues", "openchaos.cli", "eigenvalues", _matrix_note),
    ("spectral.ratios", "openchaos.cli", "complex_spacing_ratios", None),
    ("spectral.containment", "openchaos.cli", "containment_fraction", None),
    ("spectral.density_grid", "openchaos.cli", "density_grid", None),
    ("spectral.classify", "openchaos.cli", "classify_phase", None),
    ("spectral.classify", "openchaos.cli", "phase_boundary", None),
    ("spectral.classify", "openchaos.cli", "phi_max", None),
    ("spectral.classify", "openchaos.spectral", "annular_boundaries", None),
    ("spectral.classify", "openchaos.spectral", "shifted_disk_boundary", None),
    ("dephasing.ed_sff", "openchaos.diagnostics", "ed_sff", _pair_note),
    ("dephasing.ed_cl1", "openchaos.diagnostics", "ed_cl1", _pair_note),
    ("dephasing.ed_cl1", "openchaos.dephasing", "ed_cl1", _pair_note),
    ("dephasing.ed_cl1_gamma_derivative", "openchaos.dephasing", "ed_cl1_gamma_derivative", _pair_note),
    ("dephasing.ed_purity", "openchaos.diagnostics", "ed_purity", _pair_note),
    ("dephasing.ed_sff_lower_bound", "openchaos.diagnostics", "ed_sff_lower_bound", None),
    ("diagnostics.observe", "openchaos.diagnostics", "sff_fidelity", None),
    ("diagnostics.observe", "openchaos.diagnostics", "cl1_norm", None),
    ("diagnostics.observe", "openchaos.diagnostics", "purity", None),
    ("diagnostics.channel_diagnostics", "openchaos.cli", "channel_diagnostics", None),
    ("diagnostics.ed_diagnostics", "openchaos.cli", "ed_diagnostics", None),
    ("diagnostics.reduce", "openchaos.diagnostics:SeriesAccumulator", "add", None),
    ("diagnostics.reduce", "openchaos.diagnostics:SeriesAccumulator", "merge", None),
    ("diagnostics.reduce", "openchaos.diagnostics:SeriesAccumulator", "finalize", None),
    ("diagnostics.series_to_csv", "openchaos.cli", "series_to_csv", None),
    ("cli.run", "openchaos.cli", "run", None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _, _ in SITES))
PAIR_KERNELS = (
    "dephasing.ed_sff",
    "dephasing.ed_cl1",
    "dephasing.ed_cl1_gamma_derivative",
    "dephasing.ed_purity",
)


def _resolve_owner(owner: str):
    """Module, or class inside a module for 'module:Class'; None if it has gone."""
    module_name, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Records spans for every call through the wrapped sites while installed."""

    def __init__(self, sites: Sequence[Tuple[str, str, str, Optional[Callable]]] = SITES):
        self.sites = tuple(sites)
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._stacks: Dict[int, List[int]] = {}
        self._root: Optional[Tuple[int, int]] = None
        self._root_lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every site that still exists; remember the missing ones."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer, owner, attr, note in self.sites:
            target = _resolve_owner(owner)
            original = None if target is None else target.__dict__.get(attr)
            if not callable(original):
                self.missing.append(f"{owner}.{attr}")
                continue
            setattr(target, attr, self._wrap(layer, attr, original, note))
            self._saved.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    def reset(self) -> None:
        self.spans = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        stacks = self._stacks
        ids = self._ids
        clock = time.perf_counter
        get_tid = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = get_tid()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._enter_root(sid, tid)
            info = note(args, kwargs) if note is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if not stack:
                    self._leave_root(sid)
                self.spans.append(Span(sid, parent, layer, name, start, end, os.getpid(), tid, info))

        return traced

    def _enter_root(self, sid: int, tid: int) -> Optional[int]:
        """Parent of a span opened on an idle thread: the root open elsewhere, if any."""
        with self._root_lock:
            if self._root is None:
                self._root = (sid, tid)
                return None
            return self._root[0] if self._root[1] != tid else None

    def _leave_root(self, sid: int) -> None:
        with self._root_lock:
            if self._root is not None and self._root[0] == sid:
                self._root = None


# ---------------------------------------------------------------------------
# arithmetic on finished spans


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals (clipped to it)."""
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {
        s.sid: (s.end - s.start) - union_length(children.get(s.sid, ()))
        for s in spans
    }


def _outermost(spans: Sequence[Span]) -> List[Span]:
    """Spans with no ancestor of the same layer (so nested same-layer calls count once)."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        p = by_id.get(s.parent) if s.parent is not None else None
        while p is not None and p.layer != s.layer:
            p = by_id.get(p.parent) if p.parent is not None else None
        if p is None:
            out.append(s)
    return out


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass; layers without calls read 0."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    by_layer: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
    outer_busy: Dict[str, float] = defaultdict(float)
    for s in _outermost(spans):
        outer_busy[s.layer] += s.end - s.start
    for layer in LAYERS:
        group = by_layer.get(layer, [])
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.busy_s"] = outer_busy.get(layer, 0.0)
        out[f"{layer}.self_s"] = sum(selfs[s.sid] for s in group)

    apply = by_layer.get("pqc.apply_channel", [])
    durations_us = [(s.end - s.start) * 1e6 for s in apply]
    out["pqc.apply_channel.p50_us"] = _percentile(durations_us, 50)
    out["pqc.apply_channel.p99_us"] = _percentile(durations_us, 99)
    flops = sum(s.note or 0 for s in apply)
    busy = out["pqc.apply_channel.busy_s"]
    out["pqc.step_gflops"] = flops / busy / 1e9 if busy > 0 else 0.0

    inits = by_layer.get("pqc.channel_init", [])
    out["pqc.rotation_reuse"] = len({s.note for s in inits}) / len(inits) if inits else 0.0

    solves = by_layer.get("spectral.eigenvalues", [])
    out["spectral.eigenvalues.s_per_call"] = (
        out["spectral.eigenvalues.busy_s"] / len(solves) if solves else 0.0
    )
    out["spectral.eigensolve_reuse"] = len({s.note for s in solves}) / len(solves) if solves else 0.0

    pair_spans = [s for k in PAIR_KERNELS for s in by_layer.get(k, [])]
    pairs = sum(t * p for t, p in (s.note for s in pair_spans))
    pair_busy = sum(s.end - s.start for s in pair_spans)
    out["dephasing.pair_evals"] = pairs
    out["dephasing.pair_evals_per_s"] = pairs / pair_busy if pair_busy > 0 else 0.0
    out["dephasing.max_temp_mb"] = max((t * p * 8 / 1e6 for t, p in (s.note for s in pair_spans)), default=0.0)

    runs = by_layer.get("cli.run", [])
    run_wall = sum(s.end - s.start for s in runs)
    run_ids = {s.sid for s in runs}
    child_time = sum(s.end - s.start for s in spans if s.parent in run_ids)
    out["cli.concurrency"] = child_time / run_wall if run_wall > 0 else 0.0
    return out
