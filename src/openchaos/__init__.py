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

from . import rmt, states, pqc, dephasing, diagnostics, spectral
from .rmt import *
from .states import *
from .pqc import *
from .dephasing import *
from .diagnostics import *
from .spectral import *

# The public names are each library module's own `__all__`; `cli` is not re-exported.
__all__ = ["__version__", *rmt.__all__, *states.__all__, *pqc.__all__,
           *dephasing.__all__, *diagnostics.__all__, *spectral.__all__]
