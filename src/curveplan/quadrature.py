"""Tiling of regions into Coons maps and tensor Gauss rules.

Each region is covered by four-sided Coons maps whose curved sides are the
exact region edges: one patch for a region bounded by four polynomial
spans, otherwise one star wedge per span, apexed at a point that sees the
whole boundary.  Integrands that are polynomial on the region stay
polynomial on every tile, and tensor Gauss-Legendre rules integrate them
exactly.  An adaptive loop doubles the per-direction point count until two
consecutive totals agree to a stop threshold.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curves import ParamCurve
from .errors import GeometryError, JacobianError, TileError

#: default stop threshold of the adaptive doubling loop
STOP_THRESHOLD = 1e-12

_CORNER_TOL = 1e-10


@lru_cache(maxsize=64)
def gauss01(n):
    """Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


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
    west P00->P01.  Adjacent boundaries must share their corner points.
    """

    def __init__(self, south, east, north, west):
        self.south, self.east, self.north, self.west = south, east, north, west
        self.c00 = south.ctrl[0]
        self.c10 = south.ctrl[-1]
        self.c01 = north.ctrl[0]
        self.c11 = north.ctrl[-1]
        scale = max(
            np.linalg.norm(self.c11 - self.c00), np.linalg.norm(self.c10 - self.c01), 1.0
        )
        gaps = [
            np.linalg.norm(self.c00 - west.ctrl[0]),
            np.linalg.norm(self.c10 - east.ctrl[0]),
            np.linalg.norm(self.c11 - east.ctrl[-1]),
            np.linalg.norm(self.c01 - west.ctrl[-1]),
        ]
        if max(gaps) > _CORNER_TOL * scale:
            raise TileError(f"tile corners do not match (gap {max(gaps):.2e})", tile=self)

    def corners(self):
        return self.c00, self.c10, self.c11, self.c01

    def grids(self, u, v):
        """Points and Jacobian determinants on the tensor grid u x v.

        Returns (points, det) with shapes (len(u), len(v), 2) and
        (len(u), len(v)).
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        s, n = self.south.point(u), self.north.point(u)
        w, e = self.west.point(v), self.east.point(v)
        ds, dn = self.south.deriv(u), self.north.deriv(u)
        dw, de = self.west.deriv(v), self.east.deriv(v)

        uu = u[:, None, None]
        vv = v[None, :, None]
        c00, c10, c11, c01 = (c[None, None, :] for c in self.corners())

        blend = (
            (1 - uu) * (1 - vv) * c00
            + uu * (1 - vv) * c10
            + (1 - uu) * vv * c01
            + uu * vv * c11
        )
        pts = (
            (1 - vv) * s[:, None, :]
            + vv * n[:, None, :]
            + (1 - uu) * w[None, :, :]
            + uu * e[None, :, :]
            - blend
        )
        dpdu = (
            (1 - vv) * ds[:, None, :]
            + vv * dn[:, None, :]
            + (e - w)[None, :, :]
            - ((1 - vv) * (c10 - c00) + vv * (c11 - c01))
        )
        dpdv = (
            (n - s)[:, None, :]
            + (1 - uu) * dw[None, :, :]
            + uu * de[None, :, :]
            - ((1 - uu) * (c01 - c00) + uu * (c11 - c10))
        )
        det = dpdu[..., 0] * dpdv[..., 1] - dpdu[..., 1] * dpdv[..., 0]
        return pts, det


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
    area = 0.0
    mx = my = 0.0
    for g in pieces:
        nodes, weights = gauss01(2 * g.degree + 2)
        for u0, u1 in zip(g.breakpoints()[:-1], g.breakpoints()[1:]):
            ts = u0 + (u1 - u0) * nodes
            for p, d, w in zip(g.point(ts), g.deriv(ts), weights * (u1 - u0)):
                area += 0.5 * w * (p[0] * d[1] - p[1] * d[0])
                mx += 0.5 * w * p[0] * p[0] * d[1]
                my -= 0.5 * w * p[1] * p[1] * d[0]
    if area <= 0:
        starts = [p.ctrl[0] for p in pieces]
        return np.mean(starts, axis=0)
    # mx = (1/2) contour(x^2 dy) and Cx = contour(x^2 dy) / (2A) = mx / A
    return np.array([mx, my]) / area


def _sees_boundary(pieces, center, samples_per_span=24):
    """True when the whole (CCW) boundary is visible from ``center``.

    Checks (p(t) - C) x p'(t) > 0 densely; this is exactly the v-dependent
    factor of the wedge Jacobian, so dense positivity here carries over to
    every tensor Gauss grid used later.
    """
    for p in pieces:
        brk = p.breakpoints()
        for u0, u1 in zip(brk[:-1], brk[1:]):
            ts = np.linspace(u0, u1, samples_per_span)
            pts = p.point(ts)
            der = p.deriv(ts)
            rel = pts - center
            g = rel[:, 0] * der[:, 1] - rel[:, 1] * der[:, 0]
            margin = 1e-9 * np.linalg.norm(rel, axis=1) * np.linalg.norm(der, axis=1)
            if np.any(g <= margin):
                return False
    return True


def _wedge_center(pieces):
    """A deterministic star center: area centroid, else blends toward vertices."""
    centroid = _area_centroid(pieces)
    candidates = [centroid]
    for lam in (0.5, 0.8):
        for p in pieces:
            candidates.append(centroid + lam * (p.ctrl[0] - centroid))
            candidates.append(centroid + lam * (p.point(0.5) - centroid))
    for c in candidates:
        if _sees_boundary(pieces, c):
            return c
    raise TileError("no star center found: region is not star-shaped")


def _wedge_tiles(pieces):
    """One degenerate Coons wedge per boundary piece, apexed at a star center.

    The wedge map is C + u * (piece(v) - C); its Jacobian u * ((p - C) x p')
    is strictly positive at every Gauss node when the center sees the
    boundary, even across straight-through piece junctions and reflex
    corners where a four-sided Coons patch folds.
    """
    center = _wedge_center(pieces)
    tiles = []
    for p in pieces:
        apex = ParamCurve("segment", [center, center])
        south = ParamCurve("segment", [center, p.ctrl[0]])
        north = ParamCurve("segment", [center, p.ctrl[-1]])
        tiles.append(Tile(south=south, east=p, north=north, west=apex))
    return tiles


def probe_tiles(tiles, n=5):
    """Check det > 0 on the tensor Gauss grid that will be used."""
    n = min(int(n), 512)
    u, _ = gauss01(n)
    for tile in tiles:
        worst = np.inf
        for chunk in np.array_split(u, max(1, len(u) // 64)):
            _, det = tile.grids(chunk, u)
            worst = min(worst, float(np.min(det)))
        if worst <= 0.0:
            raise TileError(
                f"non-positive Jacobian (min {worst:.2e}) in tile probe", tile=tile
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
    """
    if not region.trail:
        raise GeometryError("cannot tile an empty region")
    edges = [drawing.oriented_geometry(se) for _, se in region.trail]
    pieces = [span for p in edges for span in p.spans()]
    if len(pieces) < 3:
        pieces = [half for p in pieces for half in _split_mid(p)]
    probes = (5,) if probe_n is None else (5, probe_n)
    if len(pieces) == 4 and len(edges) > 1:
        try:
            return _probed([_coons_from_cycle(pieces)], probes)
        except TileError:
            pass
    return _probed(_wedge_tiles(pieces), probes)


def tile_region(region, drawing):
    """Tiles of an interior region, probed at n = 5 (see ``region_tiles``)."""
    return region_tiles(region, drawing)


# ---------------------------------------------------------------------------
# integration


def _eval_integrand(f, x, y):
    vals = np.asarray(f(x, y), dtype=float)
    if vals.shape != x.shape:
        vals = np.broadcast_to(vals, x.shape).astype(float)
    return vals


def integrate_tiles(tiles, f, n, phys_map=None):
    u, w = gauss01(n)
    total = 0.0
    blocks = max(1, len(u) // 256)
    wchunks = np.array_split(w, blocks)
    for tile in tiles:
        for uchunk, wchunk in zip(np.array_split(u, blocks), wchunks):
            pts, det = tile.grids(uchunk, u)
            if np.min(det) <= 0.0:
                raise JacobianError(
                    "non-positive tile Jacobian at a quadrature node "
                    f"(min {np.min(det):.2e})"
                )
            x, y = pts[..., 0], pts[..., 1]
            weight = det
            if phys_map is not None:
                mapped, map_det = phys_map.mapped_with_jacobian(pts)
                x, y = mapped[..., 0], mapped[..., 1]
                weight = det * map_det
            vals = _eval_integrand(f, x, y)
            if not np.all(np.isfinite(vals)):
                raise GeometryError("integrand not finite at a quadrature node")
            total += float(np.sum(np.outer(wchunk, w) * vals * weight))
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
    tiled = [
        (region, region_tiles(region, region_set.drawing, probe_n=top_n))
        for region in region_set.regions
    ]

    def level_value(n):
        return sum(
            integrate_tiles(tiles, f, n, phys_map=phys_map) for _, tiles in tiled
        )

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
