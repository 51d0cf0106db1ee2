"""Exception hierarchy shared by all curveplan modules.

The CLI maps these onto exit codes: SchemaError -> 2, GeometryError -> 3,
ConvergenceError -> 4.
"""


class CurveplanError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SchemaError(CurveplanError):
    """Invalid input data: malformed files, bad knot vectors, bad options."""


class GeometryError(CurveplanError):
    """Geometric degeneracy: overlaps, cusps, unresolved ties, bad Jacobians."""


class OverlapError(GeometryError):
    """Two curves coincide over an interval; intersections are not discrete."""


class DegenerateTangentError(GeometryError):
    """A first derivative vanished where a tangent direction was required."""


class TieBreakError(GeometryError):
    """Outgoing edges tie in both tangent angle and signed curvature."""


class TileError(GeometryError):
    """A tile side is not one polynomial span, or its corners do not meet."""

    def __init__(self, message, tile=None):
        super().__init__(message)
        self.tile = tile


class ConvergenceError(CurveplanError):
    """An iterative procedure failed to reach its tolerance."""


class InversionError(ConvergenceError):
    """Newton point inversion did not converge (point outside map image?)."""


class FitError(ConvergenceError):
    """Least-squares curve fit residual exceeded its tolerance."""

    def __init__(self, message, worst_sample=None, residual=None):
        super().__init__(message)
        self.worst_sample = worst_sample
        self.residual = residual
