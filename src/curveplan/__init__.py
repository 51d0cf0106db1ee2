"""curveplan: region extraction in curvilinear drawings and region-aware
quadrature for splines on intersecting meshes."""

from .arrangement import Drawing, IntersectionHit, build_drawing, intersect_curve_pair
from .curves import (
    ParamCurve,
    bbox,
    derivative,
    evaluate,
    restrict,
    signed_curvature,
    tangent_into_interior,
)
from .errors import (
    ConvergenceError,
    CurveplanError,
    GeometryError,
    InversionError,
    OverlapError,
    SchemaError,
    TieBreakError,
)
from .quadrature import (
    ConvergenceReport,
    QuadratureRule,
    Tile,
    integrate_adaptive,
    integrate_region,
    tensor_rule,
    tile_region,
)
from .quasi_interp import LevelSetField, LlmResult, level_set_coeffs, llm_project
from .regions import (
    Region,
    RegionSet,
    angle_between,
    classify_regions,
    extract_and_classify,
    extract_regions,
    next_halfedge,
    purge_dangling_nodes,
)
from .splines import (
    PulledBackCurve,
    SplineFunc2D,
    SplineMap2D,
    TensorSplineSpace,
    build_interface_drawing,
    composed_field,
    integrate_spline_product,
    invert,
    invert_points,
    knot_iso_curves,
    pull_back,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
