"""Exact-arithmetic combinatorial engine for special toric towers.

Builds the level fans of towers defined by product and node moves,
computes toric divisors, Cartier data and log discrepancies, realizes the
congruent birational identification with projective space over the base,
performs base change to a curve germ, and verifies the lc-place transfer
and degree/volume bookkeeping at desk scale - all over exact integers and
rationals.
"""

from .lattice import (
    Cone,
    DEFAULT_MAX_DIM,
    DEFAULT_MAX_RAYS,
    Fan,
    LatticeError,
    ResourceCapError,
    Violation,
    cones_equal_as_sets,
    dual_cone,
    fan_validate,
    hnf,
    identity_matrix,
    intersect_cones,
    is_face_of,
    kernel_basis,
    orthant_fan,
    primitive,
    product_fan,
    projective_fan,
    snf,
    torus_fan,
)
from .toric import (
    CartierData,
    Character,
    FanMapError,
    NoCentreError,
    NotQCartier,
    NotQCartierError,
    ToricDivisor,
    boundary_divisor,
    canonical_divisor,
    cartier_data,
    character_divisor,
    log_discrepancy,
    pullback_divisor,
    regularity_subfan,
    star_subdivision,
)
from .tower import (
    CheckOutcome,
    CurveGermData,
    LocalModel,
    NodeMove,
    ProductMove,
    TowerLevel,
    TowerModel,
    TowerSpec,
    base_change_to_curve,
    build_model,
    lc_place_transfer_check,
    local_model_at,
    node_chart_dual_violations,
    projective_model,
    torus_splitting_check,
    validate_tower,
)
from .polytope import (
    LatticePolytope,
    ProjectiveDivisorData,
    UnboundedPolytopeError,
    divisor_polytope,
    normalized_volume,
    relative_degree_on_P,
    relative_volume_on_P,
)
from .documents import (
    Report,
    TowerDocumentError,
    emit_tower,
    parse_tower,
    random_tower,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"
