"""Exact linear systems of plane curves through fat points.

Computes dimensions of interpolation systems over Q and Q(zeta_n) with
exact arithmetic, detects unexpected curves, analyzes the incidence
structure and splitting types of point configurations, and ships a
verification harness plus CLI on top.
"""

from .field import (
    Field,
    FieldMismatchError,
    QQ,
    Scalar,
    cyclotomic_polynomial,
    make_field,
    parse_scalar,
    primitive_root,
    render_scalar,
)
from .poly import (
    ExactMatrix,
    Form,
    GenericRankCertificate,
    ParamPoly,
    ParamRing,
    evaluate,
    exact_rank,
    monomial_basis,
    nullspace_basis,
    partial_derivative,
    product,
    symbolic_rank_bound,
)
from .geom import (
    DegenerateInputError,
    LineStats,
    PointConfiguration,
    ProjectiveLine,
    ProjectivePoint,
    analyze_lines,
    apply_transform,
    dual_points,
    dualize,
    frame_transform,
    line_through,
    meet,
    projective_equivalent,
)
from .linsys import (
    BaseLocusError,
    FatPointScheme,
    LinearSystemReport,
    conditions_matrix,
    dim_linear_system,
    rational_map_image,
    symbolic_conditions_matrix,
    system_basis,
)
from .unexpected import (
    DEFAULT_STRATEGY,
    GeneralPointStrategy,
    SplittingType,
    UnexpectedCurveReport,
    detect_unexpected,
    fermat_unexpected_range,
    generic_dim,
    is_semistable_gate,
    multiplicity_dim,
    splitting_type,
)
from .configs import (
    FAMILY_IDS,
    FamilyDomainError,
    SearchSpace,
    dual_fermat,
    example_quartic_config,
    example_quartic_variant,
    family,
    grid_configs,
    random_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
