"""Tiling of regions into Coons maps and tensor Gauss rules.

Each region is covered by four-sided Coons maps whose curved sides are the
exact region edges: one patch for a region bounded by four polynomial
spans, otherwise one star wedge per span, apexed at a point that sees the
whole boundary.  Every side is one polynomial span on [0, 1]: a tile's
points and Jacobian on a Gauss grid are its Bezier nets times Bernstein
matrices cached per (degree, n), and a Jacobian with positive Bernstein
coefficients is certified for every n, while other tiles are probed on the
grid that will be used.  Tensor Gauss-Legendre rules integrate polynomial
integrands exactly; an adaptive loop doubles the points per direction,
integrating all tiles of a level in stacked blocks, until two consecutive
totals agree to a stop threshold.
"""

from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import comb

import numpy as np

from .curves import trusted_bezier
from .errors import GeometryError, JacobianError, TileError

#: default stop threshold of the adaptive doubling loop
STOP_THRESHOLD = 1e-12

#: a certificate needs every Bernstein coefficient of det above this
#: fraction of the largest one
CERT_MARGIN = 1e-9

#: most grid nodes per integrand call or probe step (2^14 raised peak RSS 1.2 MB)
BLOCK_NODES = 2**12

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


def _values(curve, basis):
    """Points and derivatives of a one-span curve from Bernstein rows ``basis(degree)``."""
    d, net = curve.degree, curve.ctrl
    return basis(d) @ net, basis(d - 1) @ (d * np.diff(net, axis=0))


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss rule on the unit square."""

    nodes: np.ndarray  # (m, 2)
    weights: np.ndarray  # (m,)


def tensor_rule(n):
    u, w = gauss01(n)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(w, w)
    return QuadratureRule(
        nodes=np.column_stack([uu.ravel(), vv.ravel()]), weights=ww.ravel()
    )


class Tile:
    """A four-sided curved patch realized as a Coons map of its boundaries.

    Boundary orientation: south P00->P10, east P10->P11, north P01->P11,
    west P00->P01.  Every side is one polynomial span on [0, 1], and
    adjacent sides must share their corner points.  ``region`` names the
    covered region by its first trail vertex id, once that is known.
    """

    def __init__(self, south, east, north, west):
        self.south, self.east, self.north, self.west = south, east, north, west
        self.region = None
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
        # det > 0 on the closed square if all its Bernstein coefficients are (convex
        # hull), and then no n needs a probe; values at Gauss nodes give them
        coef = self._det_coefficients()
        self.certified = bool(coef.min() > CERT_MARGIN * np.abs(coef).max())

    def corners(self):
        return self.c00, self.c10, self.c11, self.c01

    def grids(self, u, v):
        """Points and Jacobian determinants on the tensor grid u x v.

        Returns (points, det) with shapes (len(u), len(v), 2) and
        (len(u), len(v)).
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return self._grid(u, v, partial(_bernstein, t=u), partial(_bernstein, t=v))

    def gauss_grids(self, n, rows=slice(None)):
        """``grids`` on the ``gauss01(n)`` nodes, u limited to ``rows``."""
        return self._grid(
            gauss01(n)[0][rows], gauss01(n)[0],
            lambda d: bernstein_table(d, n)[rows],
            lambda d: bernstein_table(d, n),
        )

    def _grid(self, u, v, basis_u, basis_v):
        (s, ds), (n, dn) = (_values(c, basis_u) for c in (self.south, self.north))
        (w, dw), (e, de) = (_values(c, basis_v) for c in (self.west, self.east))
        c00, c10, c11, c01 = self.corners()
        # less the lerps of their corners, south and north make the Coons
        # map a sum of two ruled surfaces
        s, ds = s - c00 - u[:, None] * (c10 - c00), ds - (c10 - c00)
        n, dn = n - c01 - u[:, None] * (c11 - c01), dn - (c11 - c01)
        uu, vv = u[:, None, None], v[None, :, None]
        pts = (1 - vv) * s[:, None] + vv * n[:, None] + (1 - uu) * w + uu * e
        dpdu = (1 - vv) * ds[:, None] + vv * dn[:, None] + (e - w)
        dpdv = (n - s)[:, None] + (1 - uu) * dw + uu * de
        return pts, _cross(dpdu, dpdv)

    def _det_coefficients(self):
        # det = x_u x x_v is of degree 2M - 1 in u and 2Q - 1 in v for sides
        # of degree M along u and Q along v
        du = 2 * max(self.south.degree, self.north.degree, 1) - 1
        dv = 2 * max(self.west.degree, self.east.degree, 1) - 1
        det = self.grids(gauss01(du + 1)[0], gauss01(dv + 1)[0])[1]
        coef_u = np.linalg.solve(bernstein_table(du, du + 1), det)
        return np.linalg.solve(bernstein_table(dv, dv + 1), coef_u.T)

    def probe(self, n):
        """Smallest det on the n x n Gauss grid, in blocks of rows."""
        rows = max(1, BLOCK_NODES // n)
        return min(np.min(self.gauss_grids(n, slice(r, r + rows))[1]) for r in range(0, n, rows))


class Wedge(Tile):
    """The star wedge C + u (p(v) - C) of one boundary span p.

    As a Coons map: south C->p(0), east p, north C->p(1), and west the
    point C.  Its Jacobian is u g(v) with g = (p - C) x p', of the sign of
    g at every Gauss node, where u > 0: positive when C sees the boundary,
    even across straight-through piece junctions and reflex corners where
    a four-sided Coons patch folds.
    """

    def __init__(self, center, piece):
        self.center = center = np.asarray(center, dtype=float)
        ends = (piece.ctrl[0], piece.ctrl[-1], center)
        south, north, west = (trusted_bezier(np.array([center, q])) for q in ends)
        super().__init__(south=south, east=piece, north=north, west=west)

    def _g(self, basis):
        p, dp = _values(self.east, basis)
        return p - self.center, _cross(p - self.center, dp)

    def _grid(self, u, v, basis_u, basis_v):
        rel, g = self._g(basis_v)
        return self.center + u[:, None, None] * rel, u[:, None] * g

    def _det_coefficients(self):
        # det vanishes on u = 0, so certify g, of degree 2d - 1
        d = 2 * self.east.degree - 1
        g = self._g(lambda k: bernstein_table(k, d + 1))[1]
        return np.linalg.solve(bernstein_table(d, d + 1), g)

    def probe(self, n):
        """Smallest g at the n Gauss nodes."""
        return float(np.min(self._g(lambda d: bernstein_table(d, n))[1]))


# ---------------------------------------------------------------------------
# tiling


def _split_mid(curve):
    return curve.restricted(0.0, 0.5), curve.restricted(0.5, 1.0)


def _coons_from_cycle(pieces):
    p0, p1, p2, p3 = pieces
    return Tile(south=p0, east=p1, north=p2.reversed(), west=p3.reversed())


def _area_centroid(pieces):
    """Area centroid of the region bounded by the (CCW) boundary pieces.

    Uses the boundary integrals A = (1/2) contour(x dy - y dx) and
    C = (1/2A) contour(x^2 dy, -y^2 dx), Gauss-exact per polynomial span.
    The first star-center candidate: more robust than the vertex centroid,
    which can fall outside the kernel of regions with reflex corners.
    """
    area = mx = my = 0.0
    for g in pieces:
        n = 2 * g.degree + 2
        (p, d), w = _values(g, lambda k: bernstein_table(k, n)), gauss01(n)[1]
        area += 0.5 * w @ _cross(p, d)
        mx += 0.5 * w @ (p[:, 0] * p[:, 0] * d[:, 1])
        my -= 0.5 * w @ (p[:, 1] * p[:, 1] * d[:, 0])
    if area <= 0:
        return np.mean([p.ctrl[0] for p in pieces], axis=0)
    # mx = (1/2) contour(x^2 dy) and Cx = contour(x^2 dy) / (2A) = mx / A
    return np.array([mx, my]) / area


def _sees_boundary(pieces, centers):
    """The first of ``centers`` that sees the whole (CCW) boundary, or None.

    Checks g = (p(t) - C) x p'(t) > 0 densely, the wedge Jacobian's factor
    g evaluated as in ``Wedge``, so positivity here carries over to every
    tensor Gauss grid used later.
    """
    samples = partial(_bernstein, t=np.linspace(0.0, 1.0, 24))
    p, d = (np.concatenate(a) for a in zip(*(_values(q, samples) for q in pieces)))
    speed = np.linalg.norm(d, axis=1)
    for center in centers:
        rel = p - center
        if np.all(_cross(rel, d) > 1e-9 * np.linalg.norm(rel, axis=1) * speed):
            return center
    return None


def _wedge_center(pieces):
    """A deterministic star center: area centroid, else blends toward vertices."""
    centroid = _area_centroid(pieces)
    ends = [q for p in pieces for q in (p.ctrl[0], p.point(0.5))]
    blends = [centroid + lam * (q - centroid) for lam in (0.5, 0.8) for q in ends]
    center = _sees_boundary(pieces, [centroid] + blends)
    if center is None:
        raise TileError("no star center found: region is not star-shaped")
    return center


def probe_tiles(tiles, n=5):
    """Check det > 0 on the tensor Gauss grid that will be used.

    A certified tile (``Tile.certified``) passes at every n; any other
    tile is probed on the n x n grid, or at the n v-nodes for a wedge.
    """
    n = min(int(n), 512)
    for tile in tiles:
        if not tile.certified and (worst := tile.probe(n)) <= 0.0:
            raise TileError(
                f"non-positive Jacobian (min {worst:.2e}) in tile probe at n={n}", tile=tile
            )


def _probed(tiles, probes):
    for n in probes:
        probe_tiles(tiles, n)
    return tiles


def region_tiles(region, drawing, probe_n=None):
    """Tiles covering an interior region, each map with exact boundaries.

    The boundary is split into polynomial spans, and at parametric
    midpoints when fewer than three remain, so every tile map is
    polynomial.  A cycle of exactly four spans, other than a single-edge
    loop, is one Coons patch, kept when its Jacobian is positive on the
    probe grids (n = 5 and ``probe_n``).  Every other region, and every
    Coons patch that folds, gets one star wedge per span.  Wedges are
    probed the same way; a region with no star center raises TileError.
    Errors and tiles name the region by its first trail vertex id.
    """
    if not region.trail:
        raise GeometryError("cannot tile an empty region")
    vid = region.trail[0][0]
    edges = [drawing.oriented_geometry(se) for _, se in region.trail]
    pieces = [span for p in edges for span in p.spans()]
    if len(pieces) < 3:
        pieces = [half for p in pieces for half in _split_mid(p)]
    probes = (5,) if probe_n is None else (5, probe_n)
    tiles = None
    if len(pieces) == 4 and len(edges) > 1:
        try:
            tiles = _probed([_coons_from_cycle(pieces)], probes)
        except TileError:
            pass
    try:
        if tiles is None:
            center = _wedge_center(pieces)
            tiles = _probed([Wedge(center, p) for p in pieces], probes)
    except TileError as exc:
        raise TileError(f"region at vertex {vid}: {exc}", tile=exc.tile) from exc
    for tile in tiles:
        tile.region = vid
    return tiles


def tile_region(region, drawing):
    """Tiles of an interior region, probed at n = 5 (see ``region_tiles``)."""
    return region_tiles(region, drawing)


# ---------------------------------------------------------------------------
# integration


def integrate_tiles(tiles, f, n, phys_map=None):
    """Tensor Gauss integral of f over the tiles, n points per direction,
    on tile grids stacked into blocks of at most BLOCK_NODES nodes (a larger
    grid is cut by rows): one integrand call and Jacobian check per block."""
    _, w = gauss01(n)
    rows = max(1, BLOCK_NODES // n)
    parts = [(tile, slice(r, r + rows)) for tile in tiles for r in range(0, n, rows)]
    per_block = max(1, BLOCK_NODES // (n * min(rows, n)))
    total = 0.0
    for k in range(0, len(parts), per_block):
        block = parts[k : k + per_block]
        grids = [tile.gauss_grids(n, r) for tile, r in block]
        det = np.concatenate([d.ravel() for _, d in grids])
        if np.min(det) <= 0.0:
            worst = next(t for (t, _), (_, d) in zip(block, grids) if np.min(d) <= 0.0)
            raise JacobianError(
                f"region at vertex {worst.region}: non-positive tile "
                f"Jacobian at a quadrature node (min {np.min(det):.2e}, n={n})"
            )
        pts = np.concatenate([p.reshape(-1, 2) for p, _ in grids])
        weight = np.concatenate([np.outer(w[r], w).ravel() for _, r in block]) * det
        if phys_map is not None:
            pts, map_det = phys_map.mapped_with_jacobian(pts)
            weight = weight * map_det
        vals = np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float), det.shape)
        if not np.all(np.isfinite(vals)):
            raise GeometryError("integrand not finite at a quadrature node")
        total += float(np.sum(weight * vals))
    return total


def integrate_region(region, f, n, drawing=None, tiles=None, phys_map=None):
    """Tensor Gauss integral of f over one region with n points/direction."""
    if tiles is None:
        if drawing is None:
            raise GeometryError("integrate_region needs a drawing or prebuilt tiles")
        tiles = region_tiles(region, drawing, probe_n=n)
    return integrate_tiles(tiles, f, n, phys_map=phys_map)


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
    phys_map=None,
):
    """Evaluate levels j = 0, 1, ... with 2^j points per tile direction.

    Stops at the first level whose value differs from the previous one by
    less than ``stop_threshold`` (or at max_level).  ``reference`` may be a
    number or "auto", in which case an overkill rule at level max_level + 2
    supplies the error column.
    """
    if max_level < 1:
        raise GeometryError("max_level must be >= 1")
    top_n = 2 ** (max_level + 2 if reference == "auto" else max_level)
    tiles = [
        tile
        for region in region_set.regions
        for tile in region_tiles(region, region_set.drawing, probe_n=top_n)
    ]

    level_value = partial(integrate_tiles, tiles, f, phys_map=phys_map)

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
