"""The three benchmark workloads: generated `openchaos run` configs and their worker counts.

Each workload is a closed loop with one client: its configs run one after
another, each after the previous one finished, in one process.  The seed
reaches the library only as `master_seed` (see `pass_seed`).  Realization counts are scaled so
that one pass takes a few seconds and a run repeats several passes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple

DEFAULT_SEED = 20260815


class Workload(NamedTuple):
    name: str
    workers: int
    why: str
    configs: List[dict]


def _channel_ensemble() -> List[dict]:
    return [
        # Kraus-form stepping: apply_channel dominates, the Kraus rotation is next.
        dict(mode="pqc-sff", dim=32, kraus_count=3, realizations=6,
             tau=[0.02, 0.2], epsilon=[0.05, 0.5], points=200),
        # The second stepping loop, through the dense interleaved superoperator.
        dict(mode="pqc-sff", channel_form="interleaved", dim=16, kraus_count=3,
             realizations=4, tau=[0.1], epsilon=[0.1, 0.5], points=200),
        # Records every step, and mixes in the gamma = 0 closed form.
        dict(mode="depth-grid", dim=32, kraus_count=3, realizations=4,
             tau=[0.1], epsilon=[0.0, 0.1]),
    ]


def _dephasing_sweep() -> List[dict]:
    base = dict(mode="ed-sff", dim=192, allow_large=True, gamma=[0.01, 0.1, 1.0], points=400)
    return [
        dict(base, realizations=2, beta=0.0),
        # beta > 0 skips the Taylor lower bound.
        dict(base, realizations=2, beta=1.0),
    ]


def _spectra() -> List[dict]:
    return [
        # tau = 0.1 < tau_c gives the crescent, tau = 1.0 the annulus.
        dict(mode="spectrum", dim=20, kraus_count=3, realizations=3, tau=[0.1, 1.0], epsilon=[0.2]),
        # Repeats the tau = 1.0 eigensolves that `spectrum` already did.
        dict(mode="csr", dim=20, kraus_count=3, realizations=3, tau=[1.0], epsilon=[0.2]),
        dict(mode="phase-grid", dim=20, kraus_count=3, tau=[0.05, 0.2, 1.0], epsilon=[0.1, 0.5, 0.9]),
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "channel-ensemble", 2,
            "Kraus-form channel stepping, the thread pool and per-step recording dominate",
            _channel_ensemble(),
        ),
        Workload(
            "dephasing-sweep", 2,
            "closed-form pair kernels over T x d(d-1)/2 temporaries set time and peak memory",
            _dephasing_sweep(),
        ),
        Workload(
            "spectra", 1,
            "single-threaded dense d^2 x d^2 eigensolves, a third of them repeated; no stepping, no pool",
            _spectra(),
        ),
    )
}


def pass_seed(seed: int, pass_index: int) -> int:
    """master_seed of one pass: the seed itself first, then seeds hashed from (seed, pass).

    Each pass draws new realizations, so a run's median covers several
    ensembles instead of repeating one; the eigensolve time in particular
    depends on the matrix.  Pass 0 keeps the seed, so the reference recorded
    at the default seed applies to it.
    """
    if pass_index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{pass_index}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def configs(workload: Workload, seed: int, pass_index: int = 0) -> List[dict]:
    """The workload's configs for one pass (output_dir is set by the runner)."""
    return [dict(c, master_seed=pass_seed(seed, pass_index)) for c in workload.configs]
