"""Region extraction: dangling-node purge and rotation-system face traversal.

The half-edges leaving each vertex are sorted once into counterclockwise
order; those within ANGLE_TIE of a neighbour form one tie group, transitively,
ordered by signed curvature.  Following each arrival by its successor, the
half-edge just clockwise of its twin, yields every bounded region as a
counterclockwise closed trail and, per component, one clockwise outer trail.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _norms, deboor_points, derivative_data, signed_curvature, tangent_into_interior
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
    keep_v, keep_e = set(drawing.vertices), set(drawing.edges)
    while True:
        incident = {vid: set() for vid in keep_v}
        for eid in keep_e:
            e = drawing.edges[eid]
            incident[e.v_from].add(eid)
            incident[e.v_to].add(eid)
        dangling = [vid for vid, here in incident.items()
                    if not here or len(here) == 1 and not drawing.edges[min(here)].is_loop]
        if not dangling:
            return drawing.subdrawing(keep_v, keep_e)
        keep_v.difference_update(dangling)
        keep_e.difference_update(*(incident[vid] for vid in dangling))


# ---------------------------------------------------------------------------
# half-edge geometry table

#: interior tangent samples per polynomial span for the turning number
TURN_SAMPLES = 8


class HalfEdgeTable:
    """The geometry of every half-edge of one drawing, evaluated once.

    By signed half-edge id: ``tangent`` (``tangent_into_interior`` at the
    origin) and ``angle``, its atan2; ``curvature`` (``signed_curvature`` at
    the origin); ``samples``, the tangent angles ``trail_turning`` sums: both
    ends and TURN_SAMPLES per span, skipping vanishing derivatives.  By edge
    id: ``area``, the Gauss-exact integral of x y' - y x' over the edge.  An
    entry the scalar code cannot compute is None; ``_read`` re-runs it.  By
    vertex, ``rotation``: the half-edges leaving it counterclockwise; by
    half-edge, ``place`` there (its tie group's first member, its index) and
    ``succ``, its successor as an arrival.
    """

    def __init__(self):
        self.tangent, self.angle, self.curvature, self.samples, self.area = {}, {}, {}, {}, {}
        self.rotation, self.place, self.succ = {}, {}, {}


def halfedge_table(drawing):
    """The drawing's HalfEdgeTable, built on first use.

    Half-edges are grouped by degree and knot vector, and each group is
    evaluated by one stacked de Boor call per quantity over its nets (a
    twin's net is its edge's, flipped, on the knots ``reversed`` gives),
    with the per-element operations of the scalar code, so every entry is
    bit-equal to it.  Edge geometry has the domain [0, 1], so the origin is
    t = 0.
    """
    table = drawing.geometry_table
    if table is None:
        table = drawing.geometry_table = HalfEdgeTable()
        groups, flipped = {}, {}
        for eid, e in drawing.edges.items():
            g = e.geometry
            key = g.knots.tobytes()
            if key not in flipped:
                rk = g.knots[0] + g.knots[-1] - g.knots[::-1]
                flipped[key] = rk, rk.tobytes()
            rk, rkey = flipped[key]
            groups.setdefault((g.degree, key), (g.knots, []))[1].append((eid, g.ctrl))
            groups.setdefault((g.degree, rkey), (rk, []))[1].append((-eid, g.ctrl[::-1]))
        mids = {}
        for (p, _), (knots, members) in groups.items():
            mids.update(_fill_group(table, p, knots, members))
        for se, mid in mids.items():
            t1 = table.tangent[-se]  # the twin's, reversed, ends the samples
            ok = t1 is not None and table.angle[se] is not None
            table.samples[se] = [table.angle[se], *mid, math.atan2(-t1[1], -t1[0])] if ok else None
    return table


def _fill_group(table, p, knots, members):
    """Fill the entries of (half-edge, control net) pairs of degree p on one
    knot vector; returns their interior turning samples.  Only what has no
    bit-equal array form runs per element: atan2, math.hypot, powers."""
    nets = np.array([ctrl for _, ctrl in members])
    k1, p1, hodo = derivative_data(knots, p, nets)
    k2, p2, hodo2 = derivative_data(k1, p1, hodo)
    nodes, weights = gauss01(p + 1)
    brk = np.unique(knots[p : len(knots) - p])
    spans = list(zip(brk[:-1], brk[1:]))
    inner = [np.linspace(u0, u1, TURN_SAMPLES + 2)[1:-1] for u0, u1 in spans]
    ts = np.concatenate([u0 + (u1 - u0) * nodes for u0, u1 in spans])
    m = TURN_SAMPLES * len(spans)
    d = deboor_points(k1, p1, hodo, np.concatenate([[0.0], *inner, ts]))
    v, dd = d[:, 0], deboor_points(k2, p2, hodo2, [0.0])[:, 0]
    pts = deboor_points(knots, p, nets, ts)
    w = np.concatenate([weights * (u1 - u0) for u0, u1 in spans])
    terms = w * (pts[..., 0] * d[:, m + 1 :, 1] - pts[..., 1] * d[:, m + 1 :, 0])
    area = sum(terms.T, 0.0)  # node by node, in the scalar loop's order

    lo, hi = nets.min(axis=1), nets.max(axis=1)
    scale = np.maximum(np.hypot(hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1]), 1.0)
    norm, speed = _norms(v), np.hypot(v[:, 0], v[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = v / norm[:, None]
    cross = (v[:, 0] * dd[:, 1] - v[:, 1] * dd[:, 0]).tolist()
    # the scalar code's tests, NaN included; powers and atan2 per element
    ok = (~(norm <= 1e-14 * scale)).tolist()
    live, speed = (~(speed <= 1e-14 * scale)).tolist(), speed.tolist()
    # a segment's hodograph is one point, so its samples are all the same
    rep = TURN_SAMPLES if p1 == 0 and len(spans) == 1 else 1
    floor, samples = (1e-13 * scale).tolist(), d[:, 1 : m + 2 - rep].tolist()
    mids = {}
    for i, ((se, _), (ux, uy)) in enumerate(zip(members, unit.tolist())):
        table.tangent[se] = unit[i] if ok[i] else None
        table.angle[se] = math.atan2(uy, ux) if ok[i] else None
        table.curvature[se] = cross[i] / speed[i] ** 3 if live[i] else None
        mids[se] = [math.atan2(y, x) for x, y in samples[i] if math.hypot(x, y) > floor[i]] * rep
        if se > 0:
            table.area[se] = area[i]
    return mids


def _tangent(drawing, se):
    return tangent_into_interior(drawing.oriented_geometry(se), 0.0, 1.0, "lo")


def _curvature(drawing, se):
    return signed_curvature(drawing.oriented_geometry(se), 0.0)


def _read(drawing, column, se, scalar):
    """A table entry; a missing one re-runs ``scalar``, which raises."""
    value = column[se]
    return scalar(drawing, se) if value is None else value


# ---------------------------------------------------------------------------
# traversal


def _rotation(drawing, table, at):
    """Order the half-edges leaving ``at`` counterclockwise, once: by angle,
    cyclically, where neighbours within ANGLE_TIE join one group,
    transitively, across the -pi/pi seam too, and each group runs by signed
    curvature ascending (curving left is counterclockwise); a curvature tie
    is a hard error.  Fills ``rotation``, ``place`` and ``succ``."""
    if at in table.rotation:
        return
    ring = sorted((_read(drawing, table.angle, se, _tangent), se) for se in drawing.pi[at])
    gaps = [(b - a) % TWO_PI for (a, _), (b, _) in zip(ring[-1:] + ring, ring)]
    starts = [i for i, gap in enumerate(gaps) if gap > ANGLE_TIE] or [0]  # group firsts
    order, firsts = [], []
    for lo, hi in zip(starts, starts[1:] + [starts[0] + len(ring)]):  # cyclic
        group = [se for _, se in (ring + ring)[lo:hi]]
        if len(group) > 1:
            curved = sorted((_read(drawing, table.curvature, se, _curvature), se) for se in group)
            if any(k1 - k0 <= CURVATURE_TIE for (k0, _), (k1, _) in zip(curved, curved[1:])):
                raise TieBreakError(f"outgoing edges at vertex {at} tie in angle and curvature")
            group = [se for _, se in curved]
        order += group
        firsts += group[:1] * len(group)
    table.place.update(zip(order, zip(firsts, range(len(order)))))
    table.succ.update(zip([-se for se in order], order[-1:] + order[:-1]))
    table.rotation[at] = order


def angle_between(drawing, arrival, candidate, at=None):
    """Counterclockwise angle in [0, 2pi] between interior tangents.

    Measured at the vertex where ``arrival`` ends and ``candidate`` starts,
    from the arrival edge's interior-pointing tangent to the candidate's.
    The twin of the arrival half-edge returns exactly 0; a candidate in the
    twin's tie group returns 0 if it curves left of the twin and 2pi if right.
    """
    if at is not None:
        _check_incident(drawing, at, arrival, [candidate])
    return _angle(drawing, halfedge_table(drawing), arrival, candidate)


def _angle(drawing, table, arrival, candidate):
    _rotation(drawing, table, drawing.target(arrival))
    (group, i), (twin_group, j) = table.place.get(candidate, (None, 0)), table.place[-arrival]
    if group == twin_group:  # by the place in the twin's tie group
        return 0.0 if i >= j else TWO_PI
    return (_read(drawing, table.angle, candidate, _tangent) - table.angle[-arrival]) % TWO_PI


def _check_incident(drawing, at, arrival, candidates):
    if drawing.target(arrival) != at or any(drawing.origin(se) != at for se in candidates):
        raise GeometryError("angle_between: half-edges not incident as required")


def next_halfedge(drawing, at, arrival, unvisited):
    """The half-edge of ``unvisited`` first clockwise from the arrival's twin
    at ``at``: the one with maximal CCW angle as ``angle_between`` scores
    it, the twin last."""
    _check_incident(drawing, at, arrival, unvisited)
    table = halfedge_table(drawing)
    _rotation(drawing, table, at)
    se = table.succ[arrival]
    for _ in drawing.pi[at]:
        if se in unvisited:
            return se
        se = table.succ[-se]  # the next half-edge clockwise
    raise GeometryError(f"empty unvisited path list at vertex {at}")


def extract_regions(drawing):
    """Extract every region of the (purged) drawing as a closed trail.

    Each arrival is followed by its successor in the rotation system (de
    Berg et al., section 2.2), a permutation, so every trail is one of its
    cycles, followed from its first half-edge in vertex order.
    """
    purged = purge_dangling_nodes(drawing)
    table = halfedge_table(purged)
    used, regions = set(), []
    for vid in sorted(purged.vertices):
        for start in purged.pi[vid]:
            if start in used:
                continue
            trail, at, se = [], vid, start
            while se not in used:
                used.add(se)
                trail.append((at, se))
                at = purged.target(se)
                if se not in table.succ:
                    _rotation(purged, table, at)
                se = table.succ[se]
            regions.append(Region(trail=trail))
    return RegionSet(regions=regions, outer=[], drawing=purged)


# ---------------------------------------------------------------------------
# classification


def _wrap_pi(x):
    return (x + math.pi) % TWO_PI - math.pi


def trail_turning(drawing, trail):
    """Total tangent turning around the trail, angles accumulated in [-pi, pi].

    Equals +2pi for a counterclockwise region boundary and -2pi for the
    clockwise walk around a component's outside.
    """
    table = halfedge_table(drawing)
    total, prev = 0.0, None
    for _, se in trail:
        angles = _read(drawing, table.samples, se, lambda d, s: (_tangent(d, s), _tangent(d, -s)))
        if prev is None:
            first_start = angles[0]
        else:
            total += _corner(drawing, table, prev, se, angles[0] - prev_end)
        for a0, a1 in zip(angles, angles[1:]):
            if a1 != a0:  # a repeated sample turns by exactly 0
                total += _wrap_pi(a1 - a0)
        prev, prev_end = se, angles[-1]
    return total + _corner(drawing, table, prev, trail[0][1], first_start - prev_end)


def _corner(drawing, table, arrival, departure, turn):
    """The turning ``turn`` at a corner, wrapped; a departure in the tie group
    of the arrival's twin turns +pi if clockwise of the twin there, else -pi."""
    turn = _wrap_pi(turn)
    if abs(turn) < math.pi - 0.1:  # a tie group spans far less than 0.1 rad
        return turn
    score = _angle(drawing, table, arrival, departure)
    return math.pi if score == TWO_PI else -math.pi if score == 0.0 else turn


def region_signed_area(drawing, region):
    """Signed area by the boundary integral (1/2) * contour(x dy - y dx)."""
    area = halfedge_table(drawing).area
    total = 0.0
    for _, se in region.trail:
        term = area[abs(se)]
        total += term if se > 0 else -term
    return 0.5 * total


def classify_regions(region_set):
    """Compute signed areas, cross-check with turning, split interior/outer.

    The signed area is the primary classifier; the accumulated-angle turning
    number must agree in sign, otherwise the geometry is declared degenerate.
    """
    drawing = region_set.drawing
    interior, outer = [], []
    for region in region_set.all_regions():
        area = region_signed_area(drawing, region)
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
