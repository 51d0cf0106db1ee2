"""Region extraction: dangling-node purge and rotation-system face traversal.

Walking from every unvisited half-edge and always continuing along the
outgoing edge with the maximal counterclockwise angle yields each bounded
region of the drawing as a counterclockwise closed trail and, per connected
component, one clockwise trail around the outside.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, TieBreakError
from .quadrature import gauss01

TWO_PI = 2.0 * math.pi

#: candidates within this angle (radians) are considered tied
ANGLE_TIE = 1e-9
#: curvature ties tighter than this are a hard error
CURVATURE_TIE = 1e-9


@dataclass
class Region:
    """A closed trail of (vertex, half-edge) pairs bounding one region."""

    trail: list  # [(vertex_id, signed_edge_id), ...]
    signed_area: float | None = None
    orientation: str | None = None  # "interior" | "outer"
    turning: float | None = None

    def __len__(self):
        return len(self.trail)

    def vertex_ids(self):
        return [vid for vid, _ in self.trail]

    def halfedges(self):
        return [se for _, se in self.trail]


@dataclass
class RegionSet:
    """All regions extracted from a drawing; outer trails kept separately."""

    regions: list = field(default_factory=list)
    outer: list = field(default_factory=list)
    drawing: object = None

    def all_regions(self):
        return list(self.regions) + list(self.outer)


# ---------------------------------------------------------------------------
# purge


def purge_dangling_nodes(drawing):
    """Remove dangling vertices (single incident non-loop edge) recursively.

    Isolated vertices (no incident edges at all) are dropped as well; they
    cannot bound a region.  Returns a new drawing, the input is untouched.
    """
    keep_v = set(drawing.vertices)
    keep_e = set(drawing.edges)
    changed = True
    while changed:
        changed = False
        incident = {vid: set() for vid in keep_v}
        for eid in keep_e:
            e = drawing.edges[eid]
            incident[e.v_from].add(eid)
            incident[e.v_to].add(eid)
        for vid in sorted(keep_v):
            edges_here = incident.get(vid, set())
            if not edges_here:
                keep_v.discard(vid)
                changed = True
            elif len(edges_here) == 1:
                eid = next(iter(edges_here))
                if not drawing.edges[eid].is_loop:
                    keep_v.discard(vid)
                    keep_e.discard(eid)
                    changed = True
    return drawing.subdrawing(keep_v, keep_e)


# ---------------------------------------------------------------------------
# traversal


def angle_between(drawing, arrival, candidate, at=None):
    """Counterclockwise angle in [0, 2pi) between interior tangents.

    Measured at the vertex where ``arrival`` ends and ``candidate`` starts,
    from the arrival edge's interior-pointing tangent to the candidate's.
    The twin of the arrival half-edge returns exactly 0.
    """
    if at is not None:
        if drawing.target(arrival) != at or drawing.origin(candidate) != at:
            raise GeometryError("angle_between: half-edges not incident as required")
    if candidate == -arrival:
        return 0.0
    ta = drawing.outgoing_tangent(-arrival)  # points back into the arrival edge
    tc = drawing.outgoing_tangent(candidate)
    ang = (math.atan2(tc[1], tc[0]) - math.atan2(ta[1], ta[0])) % TWO_PI
    return float(ang)


def next_halfedge(drawing, at, arrival, unvisited):
    """The unvisited half-edge at ``at`` with maximal CCW angle from arrival.

    Exact angle ties fall back to the signed curvature of the candidates at
    their origin (larger leftward curvature wins); curvature ties too are a
    hard error.
    """
    if not unvisited:
        raise GeometryError(f"empty unvisited path list at vertex {at}")
    scored = [(angle_between(drawing, arrival, se, at), se) for se in unvisited]
    best = max(a for a, _ in scored)
    tied = [se for a, se in scored if best - a <= ANGLE_TIE]
    if len(tied) == 1:
        return tied[0]
    curved = sorted(
        ((drawing.outgoing_curvature(se), se) for se in tied), reverse=True
    )
    if curved[0][0] - curved[1][0] <= CURVATURE_TIE:
        raise TieBreakError(
            f"outgoing edges at vertex {at} tie in angle and curvature"
        )
    return curved[0][1]


def extract_regions(drawing):
    """Extract every region of the (purged) drawing as a closed trail.

    The drawing is purged first.  Each half-edge is consumed exactly once
    across all trails; classification of the trails is a separate step.
    """
    purged = purge_dangling_nodes(drawing)
    unvisited = {vid: list(lst) for vid, lst in purged.pi.items()}
    regions = []
    for vid in sorted(purged.vertices):
        while unvisited[vid]:
            start = unvisited[vid][0]
            trail = [(vid, start)]
            current = start
            while True:
                u = purged.target(current)
                nxt = next_halfedge(purged, u, current, unvisited[u])
                if nxt == start:
                    break
                trail.append((u, nxt))
                unvisited[u].remove(nxt)
                current = nxt
            unvisited[vid].remove(start)
            regions.append(Region(trail=trail))
    return RegionSet(regions=regions, outer=[], drawing=purged)


# ---------------------------------------------------------------------------
# classification


def _edge_area_integral(geometry):
    """Integral of (x y' - y x') dt over the edge, exact per polynomial span."""
    n = geometry.degree + 1
    nodes, weights = gauss01(n)
    total = 0.0
    brk = geometry.breakpoints()
    for u0, u1 in zip(brk[:-1], brk[1:]):
        ts = u0 + (u1 - u0) * nodes
        for p, d, w in zip(geometry.point(ts), geometry.deriv(ts), weights):
            total += w * (u1 - u0) * (p[0] * d[1] - p[1] * d[0])
    return total


def _trail_direction_samples(drawing, se, m=8):
    """Tangent angles along a half-edge: exact ends, interior span samples."""
    g = drawing.oriented_geometry(se)
    t0 = drawing.outgoing_tangent(se)
    t1 = -drawing.outgoing_tangent(-se)
    angles = [math.atan2(t0[1], t0[0])]
    brk = g.breakpoints()
    floor = 1e-13 * max(g.bbox_diag(), 1.0)
    for u0, u1 in zip(brk[:-1], brk[1:]):
        for d in g.deriv(np.linspace(u0, u1, m + 2)[1:-1]):
            if math.hypot(d[0], d[1]) > floor:
                angles.append(math.atan2(d[1], d[0]))
    angles.append(math.atan2(t1[1], t1[0]))
    return angles


def _wrap_pi(x):
    return (x + math.pi) % TWO_PI - math.pi


def trail_turning(drawing, trail):
    """Total tangent turning around the trail, angles accumulated in [-pi, pi].

    Equals +2pi for a counterclockwise region boundary and -2pi for the
    clockwise walk around a component's outside.
    """
    total = 0.0
    prev_end = None
    first_start = None
    for _, se in trail:
        angles = _trail_direction_samples(drawing, se)
        if prev_end is None:
            first_start = angles[0]
        else:
            total += _wrap_pi(angles[0] - prev_end)
        for a0, a1 in zip(angles[:-1], angles[1:]):
            total += _wrap_pi(a1 - a0)
        prev_end = angles[-1]
    total += _wrap_pi(first_start - prev_end)
    return total


def region_signed_area(drawing, region, _cache=None):
    """Signed area by the boundary integral (1/2) * contour(x dy - y dx)."""
    total = 0.0
    for _, se in region.trail:
        eid = abs(se)
        if _cache is not None and eid in _cache:
            term = _cache[eid]
        else:
            term = _edge_area_integral(drawing.edges[eid].geometry)
            if _cache is not None:
                _cache[eid] = term
        total += term if se > 0 else -term
    return 0.5 * total


def classify_regions(region_set):
    """Compute signed areas, cross-check with turning, split interior/outer.

    The signed area is the primary classifier; the accumulated-angle turning
    number must agree in sign, otherwise the geometry is declared degenerate.
    """
    drawing = region_set.drawing
    cache = {}
    interior, outer = [], []
    for region in region_set.all_regions():
        area = region_signed_area(drawing, region, cache)
        turning = trail_turning(drawing, region.trail)
        rot = turning / TWO_PI
        if abs(rot - round(rot)) > 0.25 or round(rot) == 0 or (area > 0) != (rot > 0):
            raise GeometryError(
                "region classifiers disagree: signed area "
                f"{area:.3e} vs turning {turning:.3f}"
            )
        region.signed_area = float(area)
        region.turning = float(turning)
        region.orientation = "interior" if area > 0 else "outer"
        (interior if area > 0 else outer).append(region)
    return RegionSet(regions=interior, outer=outer, drawing=drawing)


def extract_and_classify(drawing):
    """Convenience pipeline: purge, extract, classify."""
    return classify_regions(extract_regions(drawing))
