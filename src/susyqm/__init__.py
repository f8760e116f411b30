"""Self-verifying toolkit for factorized (partner-potential) quantum mechanics.

Core objects: superpotentials and their partner pairs, ladder operators, a
catalog of algebraically solvable wells with parameter-shift recursions,
tridiagonal bound-state and Bloch band solvers, reflection/transmission
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
    PartnerPair,
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
    partner_potentials,
    w_from_ground_state,
)
from .eigensolver import EigenPair, SolverError, band_solve, bound_states, bound_states_of
from .expressions import ExpressionError, compile_expression
from .grids import Grid, GridError, SampledFunction, integrate, sample
from .isospectral import (
    IsoFamily,
    IsospectralError,
    conserved_charges,
    deformed_family,
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
from .swkb import Mode, QuantizationProblem, QuantizeError, exactness_audit, quantize

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
    "PartnerPair",
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
    "band_solve",
    "bound_states",
    "bound_states_of",
    "compile_expression",
    "conserved_charges",
    "deformed_family",
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
    "partner_potentials",
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
    "w_from_ground_state",
    "well_hierarchy_potential",
]
