"""Spectral-gap toolkit for the constant-rate zero range process.

Exact gaps and relaxation times on enumerable configuration spaces, the
multicommodity-flow comparison between torus and complete-graph dynamics,
a ranked-particle coupling with coupling-time tail estimation, and the
tagged-pair chain with its exactly verified stationary weights and time
reversal.  The package root exports the names of the README's library
sketch; everything else lives in the submodules.
"""

__version__ = "0.1.0"

from .coupling import estimate_relaxation, sample_coupling_times
from .errors import CapacityError, SolverConvergenceError
from .flow import comparison_certificate
from .graphs import Complete, Torus
from .reversal import balance_residuals, build_tagged_pair_chain, survival_agreement
from .spectral import build_generator, exact_gap, tv_curve
