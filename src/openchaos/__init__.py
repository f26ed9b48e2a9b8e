"""Open-system signatures of quantum chaos from seeded random-matrix ensembles.

Numerical toolkit for discrete parametric quantum channels built from a
Hamiltonian drawn from the Gaussian orthogonal ensemble and environment
operators truncated out of a Haar unitary, together with the continuous
energy-dephasing dynamics they limit to.  The package computes spectral form
factors and l1 coherence of the coherent Gibbs state, correlation-hole
depths, superoperator eigenvalue clouds with their analytic phase
boundaries, and complex spacing ratios; the command line driver sweeps
seeded ensembles of these and writes deterministic CSV artifacts.

Modules
-------
rmt
    Matrix ensembles, seed derivation and spectral time scales.
states
    Coherent Gibbs states and vectorization.
pqc
    The discrete channel, its superoperator forms and the Lindblad limit.
dephasing
    Energy dephasing: exact evolution, one closed-form kernel, the Liouvillian.
diagnostics
    Fidelity/coherence/purity series, ensemble reduction and hole depth.
spectral
    Eigenvalue clouds, phase classification, boundaries and spacing ratios.
cli
    JSON-config experiment driver with manifest and gnuplot output.
"""

__version__ = "0.1.0"

from .rmt import (
    HamiltonianSpectrum,
    KrausSet,
    critical_tau,
    derive_seed,
    heisenberg_time,
    kraus_from_truncation,
    mean_level_spacing,
    rng_from_seed,
    sample_cue,
    sample_goe,
    sample_kraus_set,
    semicircle_radius,
)
from .states import (
    CoherentGibbsState,
    cgs_density,
    devectorize,
    make_cgs,
    plateau_value,
    vectorize,
)
from .pqc import (
    ParametricChannel,
    Superoperator,
    apply_channel,
    build_superoperator,
    evolve_discrete,
    interleaved,
    lindblad_generator,
)
from .dephasing import (
    EDParams,
    ed_closed_forms,
    ed_evolve,
    ed_liouvillian,
    ed_sff_lower_bound,
)
from .diagnostics import (
    DiagnosticSeries,
    SeriesAccumulator,
    channel_diagnostics,
    cl1_norm,
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
from .spectral import (
    Boundary,
    EigensolverError,
    SpectralReport,
    annular_boundaries,
    boundary_power,
    classify_phase,
    complex_spacing_ratios,
    containment_fraction,
    critical_epsilon,
    density_grid,
    disk_boundary,
    eigenvalues,
    phase_boundary,
    phi_max,
    shifted_disk_boundary,
    spectral_report,
    split_bulk,
)

__all__ = [
    "__version__",
    # rmt
    "HamiltonianSpectrum", "KrausSet", "critical_tau", "derive_seed",
    "heisenberg_time", "kraus_from_truncation", "mean_level_spacing",
    "rng_from_seed", "sample_cue", "sample_goe", "sample_kraus_set",
    "semicircle_radius",
    # states
    "CoherentGibbsState", "cgs_density",
    "devectorize", "make_cgs", "plateau_value", "vectorize",
    # pqc
    "ParametricChannel", "Superoperator", "apply_channel", "build_superoperator",
    "evolve_discrete", "interleaved", "lindblad_generator",
    # dephasing
    "EDParams", "ed_closed_forms", "ed_evolve",
    "ed_liouvillian", "ed_sff_lower_bound",
    # diagnostics
    "DiagnosticSeries", "SeriesAccumulator", "channel_diagnostics",
    "cl1_norm", "ed_diagnostics", "effective_depth", "ensemble_average",
    "estimate_thouless", "purity", "sandwich_bounds", "series_to_csv",
    "sff_cl1_sandwich", "sff_fidelity",
    # spectral
    "Boundary", "EigensolverError", "SpectralReport", "annular_boundaries",
    "boundary_power", "classify_phase", "complex_spacing_ratios",
    "containment_fraction", "critical_epsilon", "density_grid",
    "disk_boundary", "eigenvalues", "phase_boundary", "phi_max",
    "shifted_disk_boundary", "spectral_report", "split_bulk",
]
