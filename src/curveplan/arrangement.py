"""Curve-curve intersection and assembly of curvilinear drawings.

A drawing consists of the input curves, their intersection vertices, the
association tables between them, oriented edges (restrictions of the curves
between consecutive vertices), and per-vertex lists of outgoing half-edges.
Half-edges are signed 1-based edge ids: +e traverses the edge along its
parameterization, -e against it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ParamCurve
from .errors import GeometryError, OverlapError

DEFAULT_TOL = 1e-7

_MAX_CANDIDATES = 256
_MAX_STACK = 20000


@dataclass(frozen=True)
class IntersectionHit:
    """One located intersection: parameters on both curves and the point."""

    t_a: float
    t_b: float
    point: np.ndarray
    tangential: bool = False


# ---------------------------------------------------------------------------
# pairwise intersection


def intersect_curve_pair(a, b, tol=DEFAULT_TOL):
    """All discrete intersections of two curves (or of one with itself).

    Transversal intersections are found by bounding-box subdivision followed
    by Newton refinement; near-tangential solutions are kept and flagged.
    Curves coincident over an interval raise OverlapError.
    """
    if tol <= 0:
        raise GeometryError("intersection tolerance must be positive")
    if a is b:
        return _self_intersections(a, tol)
    if a.kind == "segment" and b.kind == "segment":
        return _segment_segment(a, b, tol)
    return _generic_intersections(a, b, tol)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _segment_segment(a, b, tol):
    p0, p1 = a.ctrl
    q0, q1 = b.ctrl
    d1, d2 = p1 - p0, q1 - q0
    l1, l2 = np.linalg.norm(d1), np.linalg.norm(d2)
    denom = _cross(d1, d2)
    if abs(denom) <= 1e-14 * max(l1 * l2, 1e-300):
        # parallel; coincident iff the offset is parallel too
        off = q0 - p0
        if abs(_cross(d1, off)) > tol * l1:  # perpendicular distance > tol
            return []
        u = d1 / (l1 * l1)
        s0, s1 = float(np.dot(q0 - p0, u)), float(np.dot(q1 - p0, u))
        lo, hi = min(s0, s1), max(s0, s1)
        olo, ohi = max(lo, 0.0), min(hi, 1.0)
        if ohi - olo > tol / max(l1, 1e-300):
            raise OverlapError("collinear segments overlap over an interval")
        if ohi < olo - tol / max(l1, 1e-300):
            return []
        s = 0.5 * (olo + ohi)
        t = (s - s0) / (s1 - s0)
        pt = p0 + s * d1
        if np.linalg.norm(pt - (q0 + t * d2)) > tol:
            return []
        return [IntersectionHit(s, float(np.clip(t, 0, 1)), pt, tangential=True)]
    off = q0 - p0
    s = _cross(off, d2) / denom
    t = _cross(off, d1) / denom
    slack_s = tol / max(l1, 1e-300)
    slack_t = tol / max(l2, 1e-300)
    if not (-slack_s <= s <= 1 + slack_s and -slack_t <= t <= 1 + slack_t):
        return []
    s = float(np.clip(s, 0.0, 1.0))
    t = float(np.clip(t, 0.0, 1.0))
    pa, pb = p0 + s * d1, q0 + t * d2
    if np.linalg.norm(pa - pb) > tol:
        return []
    return [IntersectionHit(s, t, 0.5 * (pa + pb))]


class _Piece:
    """A restricted stretch of one curve, tracked in original parameters."""

    __slots__ = ("knots", "ctrl", "lo", "hi", "degree")

    def __init__(self, knots, ctrl, degree, lo, hi):
        self.knots = knots
        self.ctrl = ctrl
        self.degree = degree
        self.lo = lo
        self.hi = hi

    @classmethod
    def whole(cls, curve):
        a, b = curve.domain
        return cls(curve.knots, curve.ctrl, curve.degree, a, b)

    def bounds(self):
        return self.ctrl.min(axis=0), self.ctrl.max(axis=0)

    def width(self):
        lo, hi = self.bounds()
        return float(max(hi - lo))

    def split(self):
        from .curves import split_bspline

        tm = 0.5 * (self.lo + self.hi)
        (k1, c1), (k2, c2) = split_bspline(self.knots, self.degree, self.ctrl, tm)
        return (
            _Piece(k1, c1, self.degree, self.lo, tm),
            _Piece(k2, c2, self.degree, tm, self.hi),
        )


def _boxes_disjoint(pa, pb, tol):
    la, ha = pa.bounds()
    lb, hb = pb.bounds()
    return bool(np.any(la > hb + tol) or np.any(lb > ha + tol))


def _newton_refine(a, b, s, t, scale):
    """Damped Gauss-Newton for a(s) = b(t); returns refined (s, t, residual)."""
    (a0, a1), (b0, b1) = a.domain, b.domain
    target = 1e-12 * max(scale, 1e-12)
    fa = a.point(s) - b.point(t)
    res = float(np.linalg.norm(fa))
    for _ in range(60):
        if res <= target:
            break
        jac = np.column_stack([a.deriv(s), -b.deriv(t)])
        step, *_ = np.linalg.lstsq(jac, -fa, rcond=None)
        lam, improved = 1.0, False
        while lam > 1.0 / 4096:
            s2 = float(np.clip(s + lam * step[0], a0, a1))
            t2 = float(np.clip(t + lam * step[1], b0, b1))
            f2 = a.point(s2) - b.point(t2)
            r2 = float(np.linalg.norm(f2))
            if r2 < res:
                s, t, fa, res, improved = s2, t2, f2, r2, True
                break
            lam *= 0.5
        if not improved:
            break
    return s, t, res


def _coincidence_fraction(a, b, tol):
    ts = np.linspace(*a.domain, 33)
    dense = np.linspace(*b.domain, 257)
    bp = b.point(dense)
    inside = 0
    for t in ts:
        p = a.point(t)
        i = int(np.argmin(np.linalg.norm(bp - p, axis=1)))
        tb = float(dense[i])
        for _ in range(8):  # polish the projection
            d1 = b.deriv(tb)
            g = float(np.dot(b.point(tb) - p, d1))
            h = float(np.dot(d1, d1) + np.dot(b.point(tb) - p, b.deriv(tb, 2)))
            if h <= 0:
                break
            tb = float(np.clip(tb - g / h, b.domain[0], b.domain[1]))
        if np.linalg.norm(b.point(tb) - p) <= tol:
            inside += 1
    return inside / len(ts)


def _blowup(a, b, tol, where):
    if _coincidence_fraction(a, b, tol) >= 0.9:
        raise OverlapError("curves coincide over an interval; intersections not discrete")
    raise GeometryError(f"intersection subdivision overflow ({where})")


def _is_tangential(a, b, s, t):
    da, db = a.deriv(s), b.deriv(t)
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    if na == 0 or nb == 0:
        return True
    return abs(_cross(da, db)) <= 1e-6 * na * nb


def _generic_intersections(a, b, tol):
    scale = max(a.bbox_diag(), b.bbox_diag(), 1e-12)
    floor = max(tol, 1e-5 * scale)
    stack = [(_Piece.whole(a), _Piece.whole(b))]
    candidates = []
    while stack:
        if len(stack) > _MAX_STACK or len(candidates) > _MAX_CANDIDATES:
            _blowup(a, b, tol, "pair")
        pa, pb = stack.pop()
        if _boxes_disjoint(pa, pb, tol):
            continue
        wa, wb = pa.width(), pb.width()
        if max(wa, wb) <= floor:
            candidates.append((0.5 * (pa.lo + pa.hi), 0.5 * (pb.lo + pb.hi)))
            continue
        if wa >= wb:
            for half in pa.split():
                stack.append((half, pb))
        else:
            for half in pb.split():
                stack.append((pa, half))
    return _candidates_to_hits(a, b, candidates, tol, scale)


def _candidates_to_hits(a, b, candidates, tol, scale, self_pair=False):
    span_a = a.domain[1] - a.domain[0]
    span_b = b.domain[1] - b.domain[0]
    ptol = 1e-7 * max(span_a, 1.0)
    roots = []
    for s0, t0 in candidates:
        s, t, res = _newton_refine(a, b, s0, t0, scale)
        if res > tol:
            continue
        if self_pair:
            if s > t:
                s, t = t, s
            if t - s <= 1e-3 * span_a:
                continue
            if a.is_closed(tol) and s <= a.domain[0] + ptol and t >= a.domain[1] - ptol:
                continue  # the seam of a closed curve is not a self-intersection
        roots.append((s, t))
    roots.sort()

    # Consecutive roots whose connecting midpoint still meets the tolerance
    # are tol-indistinguishable duplicates of one intersection (near-tangent
    # touches smear into short runs of accepted parameters).
    groups = []
    for s, t in roots:
        if groups:
            ps, pt_ = groups[-1][-1]
            dup = abs(s - ps) <= ptol and abs(t - pt_) <= ptol
            if not dup and abs(s - ps) <= 0.05 * span_a and abs(t - pt_) <= 0.05 * span_b:
                sm, tm = 0.5 * (s + ps), 0.5 * (t + pt_)
                dup = np.linalg.norm(a.point(sm) - b.point(tm)) <= tol
            if dup:
                groups[-1].append((s, t))
                continue
        groups.append([(s, t)])

    hits = []
    for grp in groups:
        ss = [g[0] for g in grp]
        ts = [g[1] for g in grp]
        s, t = float(np.mean(ss)), float(np.mean(ts))
        pt = 0.5 * (a.point(s) + b.point(t))
        smeared = max(ss) - min(ss) > 1e-5 * span_a or max(ts) - min(ts) > 1e-5 * span_b
        hits.append(
            IntersectionHit(s, t, pt, tangential=smeared or _is_tangential(a, b, s, t))
        )
    hits.sort(key=lambda h: (h.t_a, h.t_b))
    return hits


def _piece_injective(piece):
    """Sufficient test: hodograph control vectors in an open half-plane."""
    from .curves import derivative_data

    _, _, q = derivative_data(piece.knots, piece.degree, piece.ctrl)
    if len(q) == 0:
        return True
    u = q.sum(axis=0)
    n = np.linalg.norm(u)
    if n == 0:
        return False
    return bool(np.all(q @ (u / n) > 1e-12))


def _self_intersections(c, tol):
    if c.kind == "segment":
        return []
    scale = max(c.bbox_diag(), 1e-12)
    floor = max(tol, 1e-5 * scale)
    span = c.domain[1] - c.domain[0]
    gap = 1e-3 * span  # self-hits closer than this in parameter are ignored
    stack = [_Piece.whole(c)]
    pairs = []
    candidates = []
    while stack:
        piece = stack.pop()
        if _piece_injective(piece):
            continue
        if piece.hi - piece.lo <= gap:
            continue
        one, two = piece.split()
        pairs.append((one, two))
        stack.extend([one, two])
    while pairs:
        if len(pairs) > _MAX_STACK or len(candidates) > _MAX_CANDIDATES:
            _blowup(c, c, tol, "self")
        pa, pb = pairs.pop()
        if pa.lo > pb.lo:
            pa, pb = pb, pa
        if pb.hi - pa.lo <= gap:
            continue  # any candidate here would be parameter-adjacent
        if _boxes_disjoint(pa, pb, tol):
            continue
        wa, wb = pa.width(), pb.width()
        if max(wa, wb) <= floor:
            sa, sb = 0.5 * (pa.lo + pa.hi), 0.5 * (pb.lo + pb.hi)
            if abs(sa - sb) > gap:
                candidates.append((sa, sb))
            continue
        if wa >= wb:
            for half in pa.split():
                pairs.append((half, pb))
        else:
            for half in pb.split():
                pairs.append((pa, half))
    return _candidates_to_hits(c, c, candidates, tol, scale, self_pair=True)


# ---------------------------------------------------------------------------
# drawing data model


@dataclass
class Vertex:
    id: int
    position: np.ndarray
    hits: list = field(default_factory=list)  # (curve_id, t) pairs
    seam: bool = False
    tangential: bool = False


@dataclass
class Edge:
    id: int
    curve_id: int
    t_lo: float
    t_hi: float  # may exceed the curve domain end for seam-crossing edges
    v_from: int
    v_to: int
    geometry: ParamCurve  # oriented v_from -> v_to, reparameterized to [0, 1]

    @property
    def is_loop(self):
        return self.v_from == self.v_to


class Drawing:
    """A curvilinear drawing: curves, vertices, edges and path lists."""

    def __init__(self, curves, vertices, edges, tol=DEFAULT_TOL):
        self.curves = list(curves)
        self.vertices = dict(vertices)
        self.edges = dict(edges)
        self.tol = tol
        self.pi = self._build_pi()
        self._rev_geom = {}
        self.geometry_table = None  # filled by regions.halfedge_table

    # -- structure ----------------------------------------------------------

    def _build_pi(self):
        pi = {vid: [] for vid in self.vertices}
        for e in self.edges.values():
            pi[e.v_from].append(e.id)
            pi[e.v_to].append(-e.id)

        def sort_key(se):
            e = self.edges[abs(se)]
            t = e.t_lo if se > 0 else e.t_hi
            return (e.curve_id, t, -np.sign(se))

        for vid in pi:
            pi[vid].sort(key=sort_key)
        return pi

    def origin(self, se):
        e = self.edges[abs(se)]
        return e.v_from if se > 0 else e.v_to

    def target(self, se):
        return self.origin(-se)

    def oriented_geometry(self, se):
        """Edge geometry traversed from origin to target, domain [0, 1]."""
        e = self.edges[abs(se)]
        if se > 0:
            return e.geometry
        g = self._rev_geom.get(abs(se))
        if g is None:
            g = e.geometry.reversed()
            self._rev_geom[abs(se)] = g
        return g

    def components(self):
        """Connected components as lists of vertex ids (edge connectivity)."""
        uf = _UnionFind(self.vertices)
        for e in self.edges.values():
            uf.union(e.v_from, e.v_to)
        groups = {}
        for vid in self.vertices:
            groups.setdefault(uf.find(vid), []).append(vid)
        return sorted(groups.values(), key=min)

    def subdrawing(self, vertex_ids, edge_ids):
        verts = {vid: self.vertices[vid] for vid in vertex_ids}
        edges = {eid: self.edges[eid] for eid in edge_ids}
        return Drawing(self.curves, verts, edges, tol=self.tol)

    # -- association tables ---------------------------------------------------

    def vertex_curves(self, vid):
        """V_c: the set of curve ids meeting at a vertex."""
        return sorted({ci for ci, _ in self.vertices[vid].hits})

    def curve_vertices(self, curve_id):
        """C_v: vertex ids on a curve ordered by parameter (seam repeats)."""
        entries = []
        for vid, v in self.vertices.items():
            for ci, t in v.hits:
                if ci == curve_id:
                    entries.append((t, vid))
        entries.sort()
        ptol = _param_tol(self.curves[curve_id], self.tol)
        merged = []
        for t, vid in entries:
            if merged and merged[-1][1] == vid and t - merged[-1][0] <= ptol:
                continue
            merged.append((t, vid))
        return [vid for _, vid in merged]


# ---------------------------------------------------------------------------
# drawing assembly


class _UnionFind:
    """Disjoint sets over hashable items, with path halving."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def _box_pairs(curves, tol):
    """Ascending pairs (i, j), i < j, whose control-point boxes pass
    ``not _boxes_disjoint``: a sort-and-sweep on the boxes' xmin."""
    boxes = [(*c.ctrl.min(axis=0).tolist(), *c.ctrl.max(axis=0).tolist()) for c in curves]
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        xlo, ylo, xhi, yhi = boxes[i]
        for j in order[k + 1 :]:
            bxlo, bylo, bxhi, byhi = boxes[j]
            if bxlo > xhi + tol:
                break  # every later box starts further right
            if not (xlo > bxhi + tol or ylo > byhi + tol or bylo > yhi + tol):
                pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)


def _cluster_points(points, tol):
    """Labels of the transitive closure of ``|p_i - p_j| <= tol``, comparing
    only points in the 3x3 neighbouring cells of a grid hash.  Cells have side
    2 tol, so a pair within tol never lands two cells apart by rounding."""
    uf = _UnionFind(range(len(points)))
    cells = {}
    for i, p in enumerate(points):
        cx, cy = math.floor(p[0] / (2 * tol)), math.floor(p[1] / (2 * tol))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    if np.linalg.norm(points[j] - p) <= tol:
                        uf.union(j, i)
        cells.setdefault((cx, cy), []).append(i)
    return [uf.find(i) for i in range(len(points))]


def _param_tol(curve, tol):
    a, b = curve.domain
    speed = max(curve.bbox_diag() / max(b - a, 1e-12), 1e-12)
    return float(min(1e-3 * (b - a), max(1e-12, 4.0 * tol / speed)))


def build_drawing(curves, tol=DEFAULT_TOL):
    """Assemble the curvilinear drawing of a curve list.

    Vertices are clustered intersections; edges join consecutive vertices
    along each curve.  A closed curve with vertices away from its seam gets
    one seam-crossing edge; an intersection-free closed curve receives an
    artificial seam vertex carrying a single loop edge.
    """
    if tol <= 0:
        raise GeometryError("intersection tolerance must be positive")
    curves = list(curves)
    partners = [[] for _ in curves]
    for i, j in _box_pairs(curves, tol):
        partners[i].append(j)
    records = []  # (curve_i, t_i, curve_j, t_j, point, tangential)
    for i, ca in enumerate(curves):
        if ca.kind != "segment":
            for h in intersect_curve_pair(ca, ca, tol):
                records.append((i, h.t_a, i, h.t_b, h.point, h.tangential))
        for j in partners[i]:
            for h in intersect_curve_pair(ca, curves[j], tol):
                records.append((i, h.t_a, j, h.t_b, h.point, h.tangential))

    labels = _cluster_points([r[4] for r in records], tol)
    clusters = {}
    first_seen = {}
    for idx, (rec, lab) in enumerate(zip(records, labels)):
        clusters.setdefault(lab, []).append(rec)
        first_seen.setdefault(lab, idx)

    vertices = {}
    next_vid = 1
    for lab in sorted(clusters, key=first_seen.get):
        recs = clusters[lab]
        pos = np.mean([r[4] for r in recs], axis=0)
        hits = []
        for ci, ti, cj, tj, _, _ in recs:
            hits.append((ci, float(ti)))
            hits.append((cj, float(tj)))
        hits = sorted(set(hits))
        vertices[next_vid] = Vertex(
            next_vid, pos, hits, tangential=any(r[5] for r in recs)
        )
        next_vid += 1

    per_curve = {i: [] for i in range(len(curves))}
    for v in vertices.values():
        for ci, t in v.hits:
            per_curve[ci].append((t, v.id))

    edges = {}
    next_eid = 1

    def add_edge(ci, t0, t1, v0, v1, geometry):
        nonlocal next_eid
        edges[next_eid] = Edge(next_eid, ci, float(t0), float(t1), v0, v1, geometry)
        next_eid += 1

    for ci, curve in enumerate(curves):
        a, b = curve.domain
        ptol = _param_tol(curve, tol)
        closed = curve.is_closed(tol)
        hits = sorted(per_curve[ci])

        merged = []
        for t, vid in hits:
            if merged and merged[-1][1] == vid and t - merged[-1][0] <= ptol:
                merged[-1] = (0.5 * (merged[-1][0] + t), vid)
            else:
                merged.append((t, vid))

        if not merged:
            if closed:
                sv = Vertex(next_vid, curve.point(a).copy(), [(ci, a), (ci, b)], seam=True)
                vertices[next_vid] = sv
                next_vid += 1
                add_edge(ci, a, b, sv.id, sv.id, curve.restricted(a, b))
            continue

        needs_wrap = False
        if closed:
            has_start = merged[0][0] <= a + ptol
            has_end = merged[-1][0] >= b - ptol
            if has_start or has_end:
                # a vertex sits on the seam: list it at both domain ends
                vid = merged[0][1] if has_start else merged[-1][1]
                if has_start and has_end and merged[0][1] != merged[-1][1]:
                    raise GeometryError(
                        "distinct vertices collide at the seam of a closed curve"
                    )
                if has_start:
                    merged[0] = (a, vid)
                else:
                    merged.insert(0, (a, vid))
                if has_end:
                    merged[-1] = (b, vid)
                else:
                    merged.append((b, vid))
            else:
                needs_wrap = True

        for (t0, v0), (t1, v1) in zip(merged[:-1], merged[1:]):
            if t1 - t0 <= ptol:
                continue
            add_edge(ci, t0, t1, v0, v1, curve.restricted(t0, t1))

        if needs_wrap:
            t0, v0 = merged[-1]
            t1, v1 = merged[0]
            wrap_hi = t1 + (b - a)
            add_edge(ci, t0, wrap_hi, v0, v1, curve.cyclic_restricted(t0, wrap_hi))

    return Drawing(curves, vertices, edges, tol=tol)
