"""Self-verifying toolkit for factorized (partner-potential) quantum mechanics.

Core objects: superpotentials and their partner pairs, ladder operators, a
catalog of algebraically solvable wells with parameter-shift recursions,
a tridiagonal bound-state solver, Fourier-Floquet-Hill band edges, reflection/transmission
recursions checked by a Magnus-4 transfer-matrix propagator, one-parameter
isospectral deformations, semiclassical quantization with exactness audits,
and elliptic periodic wells with their self-isospectral and new partners.
Run `susyqm check` (or `python -m susyqm.cli check`) for the built-in
invariant suite.
"""

__version__ = "0.1.0"

from .catalog import (
    CATALOG_NAMES,
    CatalogError,
    SipEntry,
    hierarchy_potential,
    numeric_grid,
    numeric_levels,
    shape_invariance_residual,
    sip_eigenfunction,
    sip_lookup,
    sip_spectrum,
    well_hierarchy_potential,
)
from .core import (
    AlgebraReport,
    Superpotential,
    SusyError,
    algebra_check,
    apply_A,
    apply_Adag,
    ground_state_from_w,
    map_to_partner,
    normalized,
)
from .eigensolver import EigenPair, SolverError, bound_states, bound_states_of
from .expressions import ExpressionError, compile_expression
from .grids import Grid, GridError, SampledFunction, integrate, sample
from .isospectral import (
    IsoFamily,
    IsospectralError,
    conserved_charges,
)
from .periodic import (
    BandEdge,
    LameSpec,
    PeriodicError,
    lame_band_edges,
    lame_partner,
    lame_potential,
    numeric_band_edges,
)
from .scattering import (
    ScatterAmplitudes,
    ScatterError,
    numeric_rt,
    partner_rt,
    propagate,
    reflectionless_T,
)

# swkb is compiled only by the commands that quantize, and the spectral engine
# only by `check`, the one command that solves a callable V (`figures` writes
# its box states in closed form): their names are imported on first access
# (PEP 562) rather than with the package. The engine's LAPACK is numpy's
# bundled OpenBLAS (see _lapack); only where numpy bundles none does it load
# scipy.linalg.
_SWKB_NAMES = ("Mode", "QuantizationProblem", "QuantizeError", "exactness_audit", "quantize")


def __getattr__(name):
    if name in _SWKB_NAMES:
        from . import swkb

        return getattr(swkb, name)
    if name == "spectral_bound_states":
        from .spectral import spectral_bound_states

        return spectral_bound_states
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "AlgebraReport",
    "BandEdge",
    "CATALOG_NAMES",
    "CatalogError",
    "EigenPair",
    "ExpressionError",
    "Grid",
    "GridError",
    "IsoFamily",
    "IsospectralError",
    "LameSpec",
    "Mode",
    "PeriodicError",
    "QuantizationProblem",
    "QuantizeError",
    "SampledFunction",
    "ScatterAmplitudes",
    "ScatterError",
    "SipEntry",
    "SolverError",
    "Superpotential",
    "SusyError",
    "algebra_check",
    "apply_A",
    "apply_Adag",
    "bound_states",
    "bound_states_of",
    "compile_expression",
    "conserved_charges",
    "exactness_audit",
    "ground_state_from_w",
    "hierarchy_potential",
    "integrate",
    "lame_band_edges",
    "lame_partner",
    "lame_potential",
    "map_to_partner",
    "normalized",
    "numeric_band_edges",
    "numeric_grid",
    "numeric_levels",
    "numeric_rt",
    "partner_rt",
    "propagate",
    "quantize",
    "reflectionless_T",
    "sample",
    "shape_invariance_residual",
    "sip_eigenfunction",
    "sip_lookup",
    "sip_spectrum",
    "spectral_bound_states",
    "well_hierarchy_potential",
]
