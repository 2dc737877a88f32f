"""Exact decay exponents and width orders for anisotropic smoothness classes.

The package answers two tightly coupled questions, entirely in exact
arithmetic:

  * `params` / `exponent` / `closedform`: for a smoothness profile r̄,
    integrability profile p̄ and target exponent q, what power of n governs
    the best rank-n approximation error, is the embedding compact, and
    which closed-form regime applies;
  * `finitedim` / `oracle`: the finite-dimensional counterpart, orders of
    widths of ℓ_p ball intersections with verifiable lower-bound
    certificates, plus independent lattice and identity oracles that
    cross-check every route against the others.
"""

from .closedform import RegimeReport, classify_regime
from .exponent import (
    ExponentResult,
    PiecewiseMax,
    build_objective,
    minimize,
    render_provenance,
)
from .finitedim import (
    BallSpec,
    CheckedInequality,
    IntersectionSpec,
    LowerBoundCertificate,
    WidthOrder,
    block_profile,
    classify_branch,
    dyadic_block_order,
    intersection_order,
    phi_value,
    psi_value,
    single_ball_order,
    vk_vertex_norm,
)
from .oracle import (
    BRANCH_LABELS,
    GridBracket,
    IdentityReport,
    Lcg,
    ValidationReport,
    check_scaling_identities,
    cross_validate,
    grid_minimize,
    sample_branch,
)
from .params import (
    MAX_DIMENSION,
    ParameterError,
    ProblemSpec,
    RangeError,
    as_fraction,
)
from .values import INF, PowerProduct, decimal_str, inv_exponent, is_inf

__version__ = "0.1.0"

__all__ = [
    "RegimeReport",
    "classify_regime",
    "ExponentResult",
    "PiecewiseMax",
    "build_objective",
    "minimize",
    "render_provenance",
    "BallSpec",
    "CheckedInequality",
    "IntersectionSpec",
    "LowerBoundCertificate",
    "WidthOrder",
    "block_profile",
    "classify_branch",
    "dyadic_block_order",
    "intersection_order",
    "phi_value",
    "psi_value",
    "single_ball_order",
    "vk_vertex_norm",
    "BRANCH_LABELS",
    "GridBracket",
    "IdentityReport",
    "Lcg",
    "ValidationReport",
    "check_scaling_identities",
    "cross_validate",
    "grid_minimize",
    "sample_branch",
    "MAX_DIMENSION",
    "ParameterError",
    "ProblemSpec",
    "RangeError",
    "as_fraction",
    "INF",
    "PowerProduct",
    "decimal_str",
    "inv_exponent",
    "is_inf",
    "__version__",
]
