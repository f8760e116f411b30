"""Self-verifying toolkit for factorized (partner-potential) quantum mechanics.

Core objects: superpotentials and their partner pairs, ladder operators, a
catalog of algebraically solvable wells with parameter-shift recursions,
a tridiagonal bound-state solver, Fourier-Floquet-Hill band edges, reflection/transmission
recursions checked by an RK4 transfer-matrix propagator, one-parameter
isospectral deformations, semiclassical quantization with exactness audits,
and elliptic periodic wells.
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
    GroundStateSide,
    Superpotential,
    SusyError,
    SusyStatus,
    algebra_check,
    apply_A,
    apply_Adag,
    detect_breaking,
    ground_state_from_w,
    map_from_partner,
    map_to_partner,
    normalized,
    w_from_ground_state,
)
from .eigensolver import EigenPair, SolverError, bound_states, bound_states_of
from .expressions import ExpressionError, compile_expression
from .grids import Grid, GridError, SampledFunction, integrate, sample
from .isospectral import (
    IsoFamily,
    IsospectralError,
    conserved_charges,
    pursey_abraham_moses,
)
from .periodic import (
    BandEdge,
    LameSpec,
    PeriodicError,
    PeriodicSuperpotential,
    lame_band_edges,
    lame_partner,
    lame_potential,
    numeric_band_edges,
    self_isospectral_classify,
)
from .scattering import (
    ScatterAmplitudes,
    ScatterError,
    numeric_rt,
    partner_rt,
    propagate,
    reflectionless_T,
)

# swkb needs scipy.optimize, and no command solves a callable V with the
# spectral engine: their names are imported on first access (PEP 562) rather
# than with the package.
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
    "GroundStateSide",
    "IsoFamily",
    "IsospectralError",
    "LameSpec",
    "Mode",
    "PeriodicError",
    "PeriodicSuperpotential",
    "QuantizationProblem",
    "QuantizeError",
    "SampledFunction",
    "ScatterAmplitudes",
    "ScatterError",
    "SipEntry",
    "SolverError",
    "Superpotential",
    "SusyError",
    "SusyStatus",
    "algebra_check",
    "apply_A",
    "apply_Adag",
    "bound_states",
    "bound_states_of",
    "compile_expression",
    "conserved_charges",
    "detect_breaking",
    "exactness_audit",
    "ground_state_from_w",
    "hierarchy_potential",
    "integrate",
    "lame_band_edges",
    "lame_partner",
    "lame_potential",
    "map_from_partner",
    "map_to_partner",
    "normalized",
    "numeric_band_edges",
    "numeric_grid",
    "numeric_levels",
    "numeric_rt",
    "partner_rt",
    "propagate",
    "pursey_abraham_moses",
    "quantize",
    "reflectionless_T",
    "sample",
    "self_isospectral_classify",
    "shape_invariance_residual",
    "sip_eigenfunction",
    "sip_lookup",
    "sip_spectrum",
    "spectral_bound_states",
    "w_from_ground_state",
    "well_hierarchy_potential",
]
