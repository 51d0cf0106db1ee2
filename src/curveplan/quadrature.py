"""Tiling of regions into Coons maps and tensor Gauss rules.

Each region is covered by four-sided Coons maps whose curved sides are the
exact region edges: one patch for a region bounded by four polynomial
spans, otherwise one wedge per span, apexed at the region's area centroid.
Every side is one polynomial span on [0, 1], so on a Gauss grid the sides
of all tiles are one product per degree and axis of their stacked Bezier
nets with Bernstein matrices cached per (degree, n).
Tiles are signed: their maps run along the region boundary, so by Green's
theorem (as in the Gauss-Green cubature of Sommariva and Vianello, 2009)
their signed integrals sum to the region's, exact when f is smooth on the
convex hull of each region and its centroid.  The spline branch, whose
integrands are smooth only inside each region, integrates on these tiles
each region's own polynomial piece, extended beyond the region.  An
adaptive loop doubles the Gauss points per direction, in blocks of at
most BLOCK_NODES nodes per integrand call, until two consecutive totals
agree to a stop threshold.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import comb

import numpy as np

from .curves import trusted_bezier
from .errors import GeometryError, SchemaError, TileError

#: default stop threshold of the adaptive doubling loop
STOP_THRESHOLD = 1e-12

#: most grid nodes per integrand call (2^14 raised peak RSS 1.2 MB)
BLOCK_NODES = 2**12

#: most nodes of the ``reference="auto"`` level over all tiles (~7 s of sin/exp)
REFERENCE_NODE_BUDGET = 2**24

_CORNER_TOL = 1e-10


@lru_cache(maxsize=64)
def gauss01(n):
    """Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1.
    Every caller shares the two arrays, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    u, w = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _bernstein(degree, t):
    """Bernstein basis of ``degree`` at every t, shape (len(t), degree + 1)."""
    t, k = np.asarray(t, dtype=float)[:, None], np.arange(degree + 1)
    return np.array([comb(degree, i) for i in k], dtype=float) * t**k * (1.0 - t) ** (degree - k)


@lru_cache(maxsize=256)
def bernstein_table(degree, n):
    """``_bernstein(degree, t)`` at the ``gauss01(n)`` nodes, read-only."""
    table = _bernstein(degree, gauss01(n)[0])
    table.flags.writeable = False
    return table


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _values(net, basis):
    """Points and derivatives of one-span curves with nets (..., d + 1, 2),
    from Bernstein rows ``basis(degree)``."""
    d = net.shape[-2] - 1
    return basis(d) @ net, basis(d - 1) @ (d * (net[..., 1:, :] - net[..., :-1, :]))


def _axis(t):
    """Parameters t as one axis of a tile grid: (t, Bernstein rows at t)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return t, partial(_bernstein, t=t)


def _gauss_axis(n, rows=slice(None)):
    """The ``gauss01(n)`` nodes in ``rows`` as an axis, with cached rows."""
    return gauss01(n)[0][rows], lambda d: bernstein_table(d, n)[rows]


def _coons_grids(u, v, sides, corners):
    """Points and Jacobians of Coons maps on the grid u x v, tiles first,
    from the (points, derivatives) of their south and north sides on u and
    their west and east sides on v, (T, len, 2) each, and corners (T, 4, 2)."""
    (s, ds), (n, dn), (w, dw), (e, de) = sides
    c00, c10, c11, c01 = (c[:, None] for c in corners.swapaxes(0, 1))
    # less the lerps of their corners, south and north make the Coons
    # map a sum of two ruled surfaces
    s, ds = s - c00 - u[:, None] * (c10 - c00), ds - (c10 - c00)
    n, dn = n - c01 - u[:, None] * (c11 - c01), dn - (c11 - c01)
    uu, vv = u[:, None, None], v[None, :, None]
    pts = (1 - vv) * s[:, :, None] + vv * n[:, :, None] + (1 - uu) * w[:, None] + uu * e[:, None]
    dpdu = (1 - vv) * ds[:, :, None] + vv * dn[:, :, None] + (e - w)[:, None]
    dpdv = (n - s)[:, :, None] + (1 - uu) * dw[:, None] + uu * de[:, None]
    return pts, _cross(dpdu, dpdv)


def _wedge_grids(u, v, sides, center):
    """The same for star wedges C + u (p(v) - C), of Jacobian u g(v) with
    g = (p - C) x p': from p on v and centres C (T, 2)."""
    ((p, dp),) = sides
    rel, u = p - center[:, None], u[:, None]
    return center[:, None, None] + u[:, None] * rel[:, None], u * _cross(rel, dp)[:, None]


def _groups(items, key):
    """(positions, items) of each value of ``key``, in order of first use."""
    groups = {}
    for k, item in enumerate(items):
        positions, members = groups.setdefault(key(item), ([], []))
        positions.append(k)
        members.append(item)
    return list(groups.values())


class _TileStack:
    """Tiles with every side net stacked once per degree, with its
    hodograph net: on a grid axis, the points and derivatives of all sides
    are one Bernstein product per degree, and each tile kind reads its
    sides back by one gather per side.  A stack lives as long as the call
    that built it."""

    def __init__(self, tiles):
        self.tiles = list(tiles)
        by_degree = {}  # degree -> (tile positions, nets), in tile order
        kinds = {}  # kernel -> (tile positions, per side (axis, [(degree, rank)]), extras)
        for k, tile in enumerate(self.tiles):
            kernel, sides, extra = tile._kernel()
            pos, slots, extras = kinds.setdefault(kernel, ([], [(a, []) for a, _ in sides], []))
            pos.append(k)
            extras.append(extra)
            for (_, slot), (_, net) in zip(slots, sides):
                at, nets = by_degree.setdefault(len(net) - 1, ([], []))
                slot.append((len(net) - 1, len(at)))
                at.append(k)
                nets.append(net)
        # the sides of one degree fill consecutive rows of a grid's side values
        self.groups, self.rows, start = [], 0, {}
        for d, (at, nets) in by_degree.items():
            nets = np.array(nets)
            self.groups.append((d, self.rows, at, nets, d * (nets[:, 1:] - nets[:, :-1])))
            start[d], self.rows = self.rows, self.rows + len(at)
        self.kinds = [  # per kind: its sides' axes and gather rows (sides, tiles)
            (kernel, positions, np.array(extras), [axis for axis, _ in slots],
             np.array([[start[d] + r for d, r in slot] for _, slot in slots]))
            for kernel, (positions, slots, extras) in kinds.items()
        ]

    def __len__(self):
        return len(self.tiles)

    def grids(self, axis_u, axis_v, index=slice(None)):
        """Points and Jacobians of the tiles in the slice ``index`` on the
        grid u x v, shapes (T, len(u), len(v), 2) and (T, len(u), len(v));
        one product per degree serves both axes when they are one object."""
        first, stop, _ = index.indices(len(self))
        axes = [axis_u] if axis_u is axis_v else [axis_u, axis_v]
        # per axis: points and derivatives of the sides, (2, sides, len(axis), 2)
        values = [np.empty((2, self.rows, len(t), 2)) for t, _ in axes]
        for d, row, at, nets, hodographs in self.groups:
            a, b = bisect_left(at, first), bisect_left(at, stop)
            for (_, basis), out in zip(axes, values) if a < b else ():
                out[0, row + a : row + b] = basis(d) @ nets[a:b]
                out[1, row + a : row + b] = basis(d - 1) @ hodographs[a:b]
        values = values[0], values[-1]  # of the sides on u and on v
        parts = []
        for kernel, positions, extras, on, rows in self.kinds:
            a, b = bisect_left(positions, first), bisect_left(positions, stop)
            if a < b:
                sides = [values[axis][:, side[a:b]] for axis, side in zip(on, rows)]
                parts.append((positions[a:b], kernel(axis_u[0], axis_v[0], sides, extras[a:b])))
        if len(parts) == 1:
            return parts[0][1]
        shape = (max(stop - first, 0), len(axis_u[0]), len(axis_v[0]))
        pts, det = np.empty((*shape, 2)), np.empty(shape)
        for positions, (p, j) in parts:
            at = np.subtract(positions, first)
            pts[at], det[at] = p, j
        return pts, det

    def gauss_grids(self, n, rows=slice(None), index=slice(None)):
        """``grids`` on the ``gauss01(n)`` nodes, u limited to ``rows``."""
        axis = _gauss_axis(n)
        return self.grids(axis if rows == slice(None) else _gauss_axis(n, rows), axis, index)

    def blocks(self, n):
        """(tiles, rows) slices of the n x n grids, in tile order: runs of
        whole grids of at most BLOCK_NODES nodes, or rows of one larger grid."""
        rows = max(1, BLOCK_NODES // n)
        per_block = max(1, BLOCK_NODES // (n * min(rows, n)))
        for k in range(0, len(self), per_block):
            for r in range(0, n, rows):
                yield slice(k, k + per_block), slice(r, r + rows) if rows < n else slice(None)


class Tile:
    """A four-sided curved patch realized as a Coons map of its boundaries.

    Boundary orientation: south P00->P10, east P10->P11, north P01->P11,
    west P00->P01.  Every side is one polynomial span on [0, 1], and
    adjacent sides must share their corner points.
    """

    def __init__(self, south, east, north, west):
        self.south, self.east, self.north, self.west = south, east, north, west
        for side in (south, east, north, west):
            if len(side.knots) != 2 * side.degree + 2 or side.domain != (0.0, 1.0):
                raise TileError("tile side is not one polynomial span on [0, 1]", tile=self)
        self.c00, self.c10 = south.ctrl[0], south.ctrl[-1]
        self.c01, self.c11 = north.ctrl[0], north.ctrl[-1]
        scale = max(np.linalg.norm(self.c11 - self.c00), np.linalg.norm(self.c10 - self.c01), 1.0)
        ends = [west.ctrl[0], east.ctrl[0], east.ctrl[-1], west.ctrl[-1]]
        gap = max(np.linalg.norm(c - e) for c, e in zip(self.corners(), ends))
        if gap > _CORNER_TOL * scale:
            raise TileError(f"tile corners do not match (gap {gap:.2e})", tile=self)

    def corners(self):
        return self.c00, self.c10, self.c11, self.c01

    def grids(self, u, v):
        """Points (len(u), len(v), 2) and Jacobian determinants
        (len(u), len(v)) on the tensor grid u x v."""
        return tuple(a[0] for a in _TileStack([self]).grids(_axis(u), _axis(v)))

    def gauss_grids(self, n, rows=slice(None)):
        """``grids`` on the ``gauss01(n)`` nodes, u limited to ``rows``."""
        return tuple(a[0] for a in _TileStack([self]).gauss_grids(n, rows))

    def _kernel(self):
        """The grid kernel of the tile, its sides as (axis, net), axis 0
        for u and 1 for v, and its corners (see ``_coons_grids``)."""
        sides = ((0, self.south), (0, self.north), (1, self.west), (1, self.east))
        return _coons_grids, [(axis, side.ctrl) for axis, side in sides], np.array(self.corners())


class Wedge(Tile):
    """The wedge C + u (p(v) - C) of one boundary span p.

    As a Coons map: south C->p(0), east p, north C->p(1), and west the
    point C.  Its Jacobian is u g(v) with g = (p - C) x p', of the sign of
    g at every Gauss node, where u > 0: positive where C sees p from the
    region's side, negative where it sees p from behind.
    """

    def __init__(self, center, piece):
        self.center = center = np.asarray(center, dtype=float)
        ends = (piece.ctrl[0], piece.ctrl[-1], center)
        self.south, self.north, self.west = (trusted_bezier(np.array([center, q])) for q in ends)
        self.east = piece
        if len(piece.knots) != 2 * piece.degree + 2 or piece.domain != (0.0, 1.0):
            raise TileError("tile side is not one polynomial span on [0, 1]", tile=self)
        # the corners are the ends of the sides built here, so they meet
        self.c00, self.c10 = self.south.ctrl
        self.c01, self.c11 = self.north.ctrl

    def _kernel(self):
        return _wedge_grids, ((1, self.east.ctrl),), self.center


# ---------------------------------------------------------------------------
# tiling


def _coons_from_cycle(pieces):
    p0, p1, p2, p3 = pieces
    return Tile(south=p0, east=p1, north=p2.reversed(), west=p3.reversed())


def _area_centroid(pieces):
    """Area centroid of the region bounded by the (CCW) boundary pieces.

    Uses the boundary integrals A = (1/2) contour(x dy - y dx) and
    C = (1/2A) contour(x^2 dy, -y^2 dx), Gauss-exact per polynomial span.
    """
    area = mx = my = 0.0
    for g in pieces:
        n = 2 * g.degree + 2
        (p, d), w = _values(g.ctrl, lambda k: bernstein_table(k, n)), gauss01(n)[1]
        area += 0.5 * w @ _cross(p, d)
        mx += 0.5 * w @ (p[:, 0] * p[:, 0] * d[:, 1])
        my -= 0.5 * w @ (p[:, 1] * p[:, 1] * d[:, 0])
    if area <= 0:
        return np.mean([p.ctrl[0] for p in pieces], axis=0)
    # mx = (1/2) contour(x^2 dy) and Cx = contour(x^2 dy) / (2A) = mx / A
    return np.array([mx, my]) / area


def _pieces(region, drawing):
    """The region's number of edges and its boundary as polynomial spans,
    split at midpoints when fewer than three."""
    if not region.trail:
        raise GeometryError("cannot tile an empty region")
    edges = [drawing.oriented_geometry(se) for _, se in region.trail]
    pieces = [span for p in edges for span in p.spans()]
    if len(pieces) < 3:
        pieces = [half for p in pieces for half in (p.restricted(0.0, 0.5), p.restricted(0.5, 1.0))]
    return len(edges), pieces


def region_tiles(region, drawing):
    """Signed tiles covering an interior region, each map with exact
    boundaries.

    A cycle of exactly four spans, other than a single-edge loop, is one
    Coons patch; every other region gets one wedge per span from its area
    centroid.  Nothing is checked: a patch may fold and a wedge may be
    seen from behind, and the signed integrals still sum to the region's.
    """
    n_edges, pieces = _pieces(region, drawing)
    if len(pieces) == 4 and n_edges > 1:
        return [_coons_from_cycle(pieces)]
    center = _area_centroid(pieces)
    return [Wedge(center, p) for p in pieces]


def tile_region(region, drawing):
    """Signed tiles of an interior region (see ``region_tiles``)."""
    return region_tiles(region, drawing)


def _boundary_samples(tiles):
    """The start and midpoint of every boundary span among the sides of a
    region's tiles (a wedge's east side, every side of a patch), shape
    (2 * spans, 2)."""
    nets = [side.ctrl for t in tiles
            for side in ([t.east] if isinstance(t, Wedge) else [t.south, t.east, t.north, t.west])]
    out = np.empty((len(nets), 2, 2))
    for rows, group in _groups(nets, len):
        out[rows] = _bernstein(len(group[0]) - 1, [0.0, 0.5]) @ np.array(group)
    return out.reshape(-1, 2)


# ---------------------------------------------------------------------------
# integration


def integrate_tiles(tiles, f, n):
    """Tensor Gauss integral of f over the signed tiles, n points per
    direction, on tile grids stacked into blocks of at most BLOCK_NODES
    nodes (a larger grid is cut by rows): one integrand call per block.
    ``tiles`` is a list of tiles, or a ``_TileStack`` of them built once for
    several calls."""
    stack = tiles if isinstance(tiles, _TileStack) else _TileStack(tiles)
    _, w = gauss01(n)
    total = 0.0
    for index, rows in stack.blocks(n):
        pts, det = stack.gauss_grids(n, rows, index)
        weight = (det * np.outer(w[rows], w)).ravel()
        pts = pts.reshape(-1, 2)
        vals = np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float), weight.shape)
        if not np.all(np.isfinite(vals)):
            raise GeometryError("integrand not finite at a quadrature node")
        total += float(np.sum(weight * vals))
    return total


def integrate_region(region, f, n, drawing=None, tiles=None):
    """Tensor Gauss integral of f over one region with n points/direction."""
    if tiles is None:
        if drawing is None:
            raise GeometryError("integrate_region needs a drawing or prebuilt tiles")
        tiles = region_tiles(region, drawing)
    return integrate_tiles(tiles, f, n)


@dataclass
class ConvergenceReport:
    """Per-level integral values of the adaptive doubling loop."""

    levels: list = field(default_factory=list)  # (level, n, value)
    deltas: list = field(default_factory=list)  # |I_j - I_{j-1}|, None at j=0
    errors: list = field(default_factory=list)  # |I_ref - I_j| or None
    reference: float | None = None
    stopped_at: int | None = None

    @property
    def value(self):
        return self.levels[-1][2]

    def to_csv(self):
        lines = ["level,points_per_dir,value,abs_delta,error_vs_reference"]
        for (lvl, n, val), d, e in zip(self.levels, self.deltas, self.errors):
            ds = "" if d is None else f"{d:.17g}"
            es = "" if e is None else f"{e:.17g}"
            lines.append(f"{lvl},{n},{val:.17g},{ds},{es}")
        return "\n".join(lines) + "\n"


def integrate_adaptive(
    region_set,
    f,
    max_level,
    stop_threshold=STOP_THRESHOLD,
    reference=None,
):
    """Evaluate levels j = 0, 1, ... with 2^j points per tile direction.

    Stops at the first level whose value differs from the previous one by
    less than ``stop_threshold`` (or at max_level).  ``reference`` may be a
    number or "auto", in which case an overkill rule at level max_level + 2
    supplies the error column; SchemaError before any level when that level
    would exceed REFERENCE_NODE_BUDGET nodes.
    """
    if max_level < 1:
        raise GeometryError("max_level must be >= 1")
    tiles = _TileStack(
        tile for region in region_set.regions for tile in region_tiles(region, region_set.drawing)
    )
    nodes = len(tiles) * 4 ** (max_level + 2)
    if reference == "auto" and nodes > REFERENCE_NODE_BUDGET:
        raise SchemaError(f"--reference auto at --max-level {max_level} needs {nodes} nodes "
                          f"({len(tiles)} tiles), over the budget of {REFERENCE_NODE_BUDGET}",
                          field="max_level")
    level_value = partial(integrate_tiles, tiles, f)

    ref = None
    if reference == "auto":
        ref = level_value(2 ** (max_level + 2))
    elif reference is not None:
        ref = float(reference)

    report = ConvergenceReport(reference=ref)
    prev = None
    for j in range(max_level + 1):
        value = level_value(2**j)
        delta = None if prev is None else abs(value - prev)
        report.levels.append((j, 2**j, value))
        report.deltas.append(delta)
        report.errors.append(None if ref is None else abs(ref - value))
        report.stopped_at = j
        if delta is not None and delta < stop_threshold:
            break
        prev = value
    return report
