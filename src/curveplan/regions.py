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
    cannot bound a region.  A queue removes each once, with its edges from
    its neighbours' incident sets.  Returns a new drawing; input untouched."""
    edges, incident = drawing.edges, {vid: set() for vid in drawing.vertices}
    for eid, e in edges.items():
        incident[e.v_from].add(eid)
        incident[e.v_to].add(eid)
    queue = list(incident)  # each vertex, then each neighbour of one removed
    while queue:
        vid = queue.pop()
        here = incident.get(vid)
        if here is not None and (not here or len(here) == 1 and not edges[min(here)].is_loop):
            for eid in incident.pop(vid):
                for end in (edges[eid].v_from, edges[eid].v_to):
                    if end in incident:
                        incident[end].discard(eid)
                        queue.append(end)
    kept = [eid for eid, e in edges.items() if eid in incident.get(e.v_from, ())]
    return drawing.subdrawing([vid for vid in drawing.vertices if vid in incident], kept)


# ---------------------------------------------------------------------------
# half-edge table

#: interior tangent samples per polynomial span for the turning number
TURN_SAMPLES = 8


class _BySigned:
    """A column read by signed half-edge id: ``get`` of its slot."""

    def __init__(self, slot, get):
        self.slot, self.get = slot, get

    def __getitem__(self, se):
        return self.get(self.slot[se])


class HalfEdgeTable:
    """The geometry and rotation system of one drawing's half-edges.

    Slot s holds half-edge ``ses[s]`` (a signed edge id) leaving vertex
    ``origin[s]``; ``slot`` maps back, ``twin[s]`` is the twin's slot.
    Read by signed id, bit-equal to the scalar code or None where that
    raises (``_read`` re-runs it): ``tangent`` (``tangent_into_interior``
    at the origin), ``angle`` (its atan2), ``curvature``, ``samples`` (the
    tangent angles a trail's turning sums, both ends and TURN_SAMPLES per
    span without vanishing derivatives: ``flat[cuts[s]:cuts[s + 1]]``) and
    ``area`` (the Gauss-exact integral of x y' - y x', negated for a twin:
    ``areas``).  ``succ[s]`` is the slot of arrival s's successor, or -1
    while s ends at a vertex of ``pending`` (with an angle tie or no angle),
    which ``_rotation`` orders when reached.  Nets are stacked per degree
    and knot vector, segment edges' read from their drawing's stack; a
    twin's is its edge's, flipped.
    """

    def __init__(self, drawing):
        edges, groups, jobs = drawing.edges, {}, {}
        for eid, e in edges.items():
            g = e.geometry if e.stack is None else None
            key = (1, id(e.stack)) if g is None else (g.degree, g.knots.tobytes())
            group = groups.setdefault(key, (e.stack, [], []))
            group[1].append(eid), group[2].append(e.row if g is None else g.ctrl)
        for (p, _), (stack, eids, part) in groups.items():  # rows of a stack, or nets
            knots = edges[eids[0]].geometry.knots
            nets = np.array(part) if stack is None else stack[part]
            flipped = knots[0] + knots[-1] - knots[::-1]
            for k, ids, net in ((knots, eids, nets), (flipped, [-i for i in eids], nets[:, ::-1])):
                job = jobs.setdefault((p, k.tobytes()), (k, [], []))
                job[1].extend(ids), job[2].append(net)
        parts = [_fill_group(p, k, np.concatenate(nets)) for (p, _), (k, _, nets) in jobs.items()]
        parts = parts or [_fill_group(1, np.array([0.0, 0.0, 1.0, 1.0]), np.empty((0, 2, 2)))]
        unit, ok, areas, mids, count, curvature = (np.concatenate(c) for c in zip(*parts))
        self.ses = [se for _, ids, _ in jobs.values() for se in ids]
        self.origin = [edges[se].v_from if se > 0 else edges[-se].v_to for se in self.ses]
        self.slot = slot = dict(zip(self.ses, range(len(self.ses))))
        ses, twin = np.array(self.ses, int), np.array([slot[-se] for se in self.ses], int)
        angle = [math.atan2(y, x) if k else None for (x, y), k in zip(unit.tolist(), ok.tolist())]
        ends = [math.atan2(y, x) for x, y in (-unit[twin]).tolist()]  # the twin's, reversed
        angles, self.cuts = np.array(angle, float), np.concatenate(([0], np.cumsum(count + 2)))
        self.flat, inner, cuts = np.empty(self.cuts[-1]), np.ones(self.cuts[-1], bool), self.cuts
        inner[cuts[:-1]] = inner[cuts[1:] - 1] = False
        self.flat[cuts[:-1]], self.flat[cuts[1:] - 1], self.flat[inner] = angles, ends, mids
        self.areas, good, flat = np.where(ses > 0, areas, -areas[twin]), ok & ok[twin], self.flat
        self.tangent = _BySigned(slot, lambda s: unit[s] if ok[s] else None)
        self.samples = _BySigned(slot, lambda s: flat[cuts[s] : cuts[s + 1]] if good[s] else None)
        self.angle, self.curvature, self.area = (
            _BySigned(slot, c.__getitem__) for c in (angle, curvature, self.areas))
        self.twin, self.place = twin.tolist(), {}
        # by vertex, angle, signed id as _rotation sorts; a tie or a nan angle waits for it
        at = np.array(self.origin, int)
        order = np.lexsort((ses, angles, at))
        at, angles, n = at[order], angles[order], len(order)
        head = at != np.concatenate((at[:1] - 1, at[:-1]))  # each vertex's first
        group, prev = np.cumsum(head) - 1, np.arange(n) - 1
        prev[head] = np.flatnonzero(np.append(head, True)[1:])  # cyclic: its last
        fine = np.bincount(group, ~((angles - angles[prev]) % TWO_PI > ANGLE_TIE))[group] == 0
        succ = np.full(n, -1)
        succ[twin[order[fine]]] = order[prev[fine]]
        self.succ, self.pending = succ.tolist(), set(at[~fine].tolist())


def halfedge_table(drawing):
    """The drawing's HalfEdgeTable, built on first use."""
    if drawing.geometry_table is None:
        drawing.geometry_table = HalfEdgeTable(drawing)
    return drawing.geometry_table


def _fill_group(p, knots, nets):
    """Unit tangents at the origin and whether each is defined, areas,
    interior turning samples (flat) and their count per net, and curvatures
    of the control ``nets`` of degree p on ``knots``, stacked: one de Boor
    call per quantity.  Only what has no bit-equal array form runs per
    element: atan2, math.hypot, powers.  Edges have the domain [0, 1]."""
    k1, p1, hodo = derivative_data(knots, p, nets)
    k2, p2, hodo2 = derivative_data(k1, p1, hodo)
    nodes, weights = gauss01(p + 1)
    brk = sorted(set(knots[p : len(knots) - p].tolist()))
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

    corners = np.ascontiguousarray(nets.transpose(1, 0, 2))  # faster to reduce
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    scale = np.maximum(np.hypot(hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1]), 1.0)
    norm, speed = _norms(v), np.hypot(v[:, 0], v[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = v / norm[:, None]
    # the scalar code's tests, NaN included
    cross, live = (v[:, 0] * dd[:, 1] - v[:, 1] * dd[:, 0]).tolist(), ~(speed <= 1e-14 * scale)
    curvature = [c / s**3 if k else None for c, s, k in zip(cross, speed.tolist(), live.tolist())]
    # a segment's hodograph is one point, so its samples are all the same
    rep = TURN_SAMPLES if p1 == 0 and len(spans) == 1 else 1
    xy = d[:, 1 : m + 2 - rep].reshape(-1, 2).tolist()
    keep = np.array([math.hypot(x, y) for x, y in xy]) > np.repeat(1e-13 * scale, m + 1 - rep)
    angles = np.repeat(np.array([math.atan2(y, x) for x, y in xy])[keep], rep)
    count = keep.reshape(-1, m + 1 - rep).sum(axis=1) * rep
    return unit, ~(norm <= 1e-14 * scale), area, angles, count, np.array(curvature, object)


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
    """Order the half-edges leaving a pending vertex ``at`` counterclockwise:
    by angle, cyclically, where neighbours within ANGLE_TIE join one group,
    transitively, across the -pi/pi seam too, and each group runs by signed
    curvature ascending (curving left is counterclockwise); a curvature tie
    is a hard error.  Fills ``place`` and ``succ``."""
    if at not in table.pending:
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
    for se, nxt in zip(order, order[-1:] + order[:-1]):
        table.succ[table.slot[-se]] = table.slot[nxt]
    table.pending.discard(at)


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
    (group, i), (twin_group, j) = (table.place.get(se, (se, 0)) for se in (candidate, -arrival))
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
    s = table.succ[table.slot[arrival]]
    for _ in drawing.pi[at]:
        if table.ses[s] in unvisited:
            return table.ses[s]
        s = table.succ[table.twin[s]]  # the next half-edge clockwise
    raise GeometryError(f"empty unvisited path list at vertex {at}")


def extract_regions(drawing):
    """Extract every region of the (purged) drawing as a closed trail.

    Each arrival is followed by its successor in the rotation system (de
    Berg et al., section 2.2), a permutation, so every trail is one of its
    cycles, followed from its first half-edge in vertex order.
    """
    purged = purge_dangling_nodes(drawing)
    if not purged.edges:
        return RegionSet(regions=[], outer=[], drawing=purged)
    table = halfedge_table(purged)
    succ, ses, origin = table.succ, table.ses, table.origin
    used, regions = [False] * len(ses), []
    for start in [table.slot[se] for vid in sorted(purged.vertices) for se in purged.pi[vid]]:
        trail, s = [], start
        while not used[s]:
            used[s] = True
            trail.append(s)
            if succ[s] < 0:
                _rotation(purged, table, origin[table.twin[s]])
            s = succ[s]
        if trail:
            regions.append(Region(trail=[(origin[s], ses[s]) for s in trail]))
    return RegionSet(regions=regions, outer=[], drawing=purged)


# ---------------------------------------------------------------------------
# classification


def _folds(rows, terms, n):
    """0.0 + t0 + t1 + ... over the terms of each of n rows (``rows``, ascending,
    names each term's), added left to right like a scalar loop, not pairwise
    (np.sum) nor compensated (the builtin sum from Python 3.12): one cumsum
    along zero-padded rows, whose +0.0 cannot move a total begun at +0.0."""
    counts = np.bincount(rows, minlength=n)
    grid = np.zeros((n, counts.max(initial=0) + 1))
    grid[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows] + 1] = terms
    return np.cumsum(grid, axis=1)[:, -1]


def _trail_sums(drawing, table, trails):
    """Signed area and turning of each trail: half its half-edges' areas
    summed (the boundary integral (1/2) * contour(x dy - y dx)), and the
    wrapped differences of successive tangent samples around it summed:
    +2pi for a counterclockwise region boundary, -2pi around a component's
    outside.  At a corner of pi - 0.1 or more (a tie group spans far less) a
    departure in the tie group of the arrival's twin turns +pi if clockwise of it, else -pi."""
    slots = np.array([table.slot[se] for trail in trails for _, se in trail], int)
    counts = np.array([len(trail) for trail in trails], int)
    row, tail = np.repeat(np.arange(len(trails)), counts), np.cumsum(counts) - 1
    head = tail - counts + 1
    first, lens = table.cuts[slots], table.cuts[slots + 1] - table.cuts[slots]
    ends = np.cumsum(lens)
    angles = table.flat[np.arange(lens.sum()) + np.repeat(first - ends + lens, lens)]
    after, nxt = np.arange(1, len(angles) + 1), np.arange(1, len(slots) + 1)
    after[ends[tail] - 1], nxt[tail] = ends[head] - lens[head], head  # back to the first
    turn = (angles[after] - angles + math.pi) % TWO_PI - math.pi
    for p in np.flatnonzero(np.abs(turn[ends - 1]) >= math.pi - 0.1).tolist():
        score = _angle(drawing, table, table.ses[slots[p]], table.ses[slots[nxt[p]]])
        if score in (0.0, TWO_PI):
            turn[ends[p] - 1] = math.pi if score == TWO_PI else -math.pi
    keep, n = turn != 0.0, len(trails)  # a repeated sample turns by +0.0, a no-op
    rows = np.concatenate((row, n + np.repeat(row, lens)[keep]))  # areas, then turnings
    sums = _folds(rows, np.concatenate((table.areas[slots], turn[keep])), 2 * n)
    return (0.5 * sums[:n]).tolist(), sums[n:].tolist()


def classify_regions(region_set):
    """Compute signed areas, cross-check with turning, split interior/outer.

    The signed area is the primary classifier; the accumulated-angle turning
    number must agree in sign, otherwise the geometry is declared degenerate.
    """
    drawing, regions = region_set.drawing, region_set.all_regions()
    trails = [r.trail for r in regions]
    areas, turnings = _trail_sums(drawing, halfedge_table(drawing), trails) if trails else ([], [])
    interior, outer = [], []
    for region, area, turning in zip(regions, areas, turnings):
        rot = turning / TWO_PI
        if abs(rot - round(rot)) > 0.25 or round(rot) == 0 or (area > 0) != (rot > 0):
            raise GeometryError(
                "region classifiers disagree: signed area "
                f"{area:.3e} vs turning {turning:.3f}"
            )
        region.signed_area, region.turning = area, turning
        region.orientation = "interior" if area > 0 else "outer"
        (interior if area > 0 else outer).append(region)
    return RegionSet(regions=interior, outer=outer, drawing=drawing)


def extract_and_classify(drawing):
    """Convenience pipeline: purge, extract, classify."""
    return classify_regions(extract_regions(drawing))
