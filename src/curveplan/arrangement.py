"""Curve-curve intersection and assembly of curvilinear drawings.

A drawing consists of the input curves, their intersection vertices, the
association tables between them, oriented edges (restrictions of the curves
between consecutive vertices), and per-vertex lists of outgoing half-edges.
Half-edges are signed 1-based edge ids: +e traverses the edge along its
parameterization, -e against it.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .curves import _KNOT_SNAP, project_points, trusted_bezier
from .errors import GeometryError, OverlapError

DEFAULT_TOL = 1e-7

_MAX_CANDIDATES = 256
_MAX_STACK = 20000
_MAX_STEPS = 50000


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

    Two segments meet in closed form.  Otherwise every pair of single-span
    Bézier nets (``ParamCurve.nets``) whose boxes meet is narrowed by Bézier
    clipping, halving where a clip stalls, down to candidate parameter pairs.
    Damped Newton on the same nets refines each candidate once; roots that
    are one intersection, modulo the period on a closed curve, give one
    hit, and near-tangential ones are kept and flagged.  A self-intersection
    runs the same loop on pairs of spans and of halves of non-injective
    spans.  Curves coincident over an interval raise OverlapError; a search
    that exceeds its budget raises GeometryError.
    """
    if not tol > 0:  # NaN too
        raise GeometryError("intersection tolerance must be positive")
    if a is b:
        return _self_intersections(a, tol)
    if a.kind == "segment" and b.kind == "segment":
        return _segment_segment(a, b, tol)
    return _clip_intersections(a, b, _span_pairs(a.nets(), b.nets(), tol), tol)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _segment_segment(a, b, tol):
    """Closed-form meeting of two segments, on their float nets.  A segment
    whose squared length is 0 is a point: farther than ``tol`` from the other
    segment it meets nothing, nearer it has no parameter (GeometryError)."""
    ((p0x, p0y), (p1x, p1y)), ((q0x, q0y), (q1x, q1y)) = a.nets()[0][2], b.nets()[0][2]
    d1x, d1y, d2x, d2y = p1x - p0x, p1y - p0y, q1x - q0x, q1y - q0y
    l1, l2 = math.hypot(d1x, d1y), math.hypot(d2x, d2y)
    if l1 * l1 == 0.0 or l2 * l2 == 0.0:
        if l1 * l1 == 0.0:
            gap = _point_gap(p0x, p0y, q0x, q0y, d2x, d2y)
        else:
            gap = _point_gap(q0x, q0y, p0x, p0y, d1x, d1y)
        if gap > tol:
            return []
        raise GeometryError("a segment of zero length meets another segment")
    ox, oy = q0x - p0x, q0y - p0y
    denom = d1x * d2y - d1y * d2x
    if abs(denom) <= 1e-14 * max(l1 * l2, 1e-300):
        # parallel; coincident iff the offset is parallel too
        if abs(d1x * oy - d1y * ox) > tol * l1:  # perpendicular distance > tol
            return []
        ux, uy = d1x / (l1 * l1), d1y / (l1 * l1)
        s0, s1 = ox * ux + oy * uy, (q1x - p0x) * ux + (q1y - p0y) * uy
        olo, ohi = max(min(s0, s1), 0.0), min(max(s0, s1), 1.0)
        if ohi - olo > tol / l1:
            raise OverlapError("collinear segments overlap over an interval")
        if ohi < olo - tol / l1:
            return []
        # across a gap the middle lies past both: the clamped points decide
        s = min(max(0.5 * (olo + ohi), 0.0), 1.0)
        t = min(max((s - s0) / (s1 - s0), 0.0), 1.0)
        ax, ay = p0x + s * d1x, p0y + s * d1y
        if math.hypot(ax - (q0x + t * d2x), ay - (q0y + t * d2y)) > tol:
            return []
        return [IntersectionHit(s, t, np.array([ax, ay]), tangential=True)]
    s = (ox * d2y - oy * d2x) / denom
    t = (ox * d1y - oy * d1x) / denom
    if not (-tol / l1 <= s <= 1 + tol / l1 and -tol / l2 <= t <= 1 + tol / l2):
        return []
    s, t = min(max(s, 0.0), 1.0), min(max(t, 0.0), 1.0)
    ax, ay, bx, by = p0x + s * d1x, p0y + s * d1y, q0x + t * d2x, q0y + t * d2y
    if math.hypot(ax - bx, ay - by) > tol:
        return []
    return [IntersectionHit(s, t, np.array([0.5 * (ax + bx), 0.5 * (ay + by)]))]


def _point_gap(px, py, sx, sy, dx, dy):
    """Distance from (px, py) to the segment from (sx, sy) along (dx, dy)."""
    dd = dx * dx + dy * dy
    u = 0.0 if dd == 0.0 else min(max(((px - sx) * dx + (py - sy) * dy) / dd, 0.0), 1.0)
    return math.hypot(sx + u * dx - px, sy + u * dy - py)


def _eval(curve, s):
    """Point and derivative of ``curve`` at s as float pairs: de Casteljau on
    the span net (``ParamCurve.nets``) that ``find_span``'s right-hand rule
    picks, down to two points, whose difference times degree / span is the
    derivative."""
    nets = curve.nets()
    u0, u1, pts = nets[max(bisect_right(nets, s, key=itemgetter(0)) - 1, 0)]
    n, u = len(pts) - 1, (s - u0) / (u1 - u0)
    v = 1.0 - u
    while len(pts) > 2:
        pts = [(v * x0 + u * x1, v * y0 + u * y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    (x0, y0), (x1, y1) = pts
    h = u1 - u0
    return (v * x0 + u * x1, v * y0 + u * y1), (n * (x1 - x0) / h, n * (y1 - y0) / h)


def _gap(a, b, s, t):
    (xa, ya), _ = _eval(a, s)
    (xb, yb), _ = _eval(b, t)
    return math.hypot(xa - xb, ya - yb)


def _newton_refine(a, b, s, t, scale):
    """Damped Gauss-Newton for a(s) = b(t) on the span nets; returns refined
    (s, t, residual).  The 2x2 step is solved in closed form; where the
    Jacobian is singular to working precision it is the rank-one
    minimum-norm step."""
    (a0, a1), (b0, b1) = a.domain, b.domain
    target = 1e-12 * max(scale, 1e-12)
    ((xa, ya), da), ((xb, yb), db) = _eval(a, s), _eval(b, t)
    fx, fy = xa - xb, ya - yb
    res = math.hypot(fx, fy)
    for _ in range(60):
        if res <= target:
            break
        # the Jacobian [a'(s), -b'(t)]: its determinant and squared norm
        det = db[0] * da[1] - da[0] * db[1]
        norm2 = da[0] ** 2 + da[1] ** 2 + db[0] ** 2 + db[1] ** 2
        if abs(det) > 1e-14 * norm2:
            ds, dt = (fx * db[1] - db[0] * fy) / det, (fx * da[1] - da[0] * fy) / det
        elif norm2 > 0.0:  # -J^T f / |J|^2
            ds, dt = -(da[0] * fx + da[1] * fy) / norm2, (db[0] * fx + db[1] * fy) / norm2
        else:
            break
        lam = 1.0
        while lam > 1.0 / 4096:
            s2, t2 = min(max(s + lam * ds, a0), a1), min(max(t + lam * dt, b0), b1)
            ((xa, ya), da2), ((xb, yb), db2) = _eval(a, s2), _eval(b, t2)
            r2 = math.hypot(xa - xb, ya - yb)
            if r2 < res:
                s, t, fx, fy, res, da, db = s2, t2, xa - xb, ya - yb, r2, da2, db2
                break
            lam *= 0.5
        else:
            break
    return s, t, res


def _coincidence_fraction(a, b, tol):
    _, dist = project_points(b, a.point(np.linspace(*a.domain, 33)), 257)
    return float(np.count_nonzero(dist <= tol)) / len(dist)


def _blowup(a, b, tol, where):
    if a is not b and _coincidence_fraction(a, b, tol) >= 0.9:
        raise OverlapError("curves coincide over an interval; intersections not discrete")
    raise GeometryError(f"intersection subdivision overflow ({where})")


def _is_tangential(da, db):
    """Whether two derivative vectors are parallel, or one of them is zero."""
    return abs(_cross(da, db)) <= 1e-6 * math.hypot(*da) * math.hypot(*db)


def _near(x, ref, period):
    """x moved by ``period`` (a closed curve's; 0 otherwise) toward ref
    where that brings it nearer."""
    return x - math.copysign(period, x - ref) if abs(x - ref) > 0.5 * period > 0 else x


def _into(x, lo, period):
    """x moved by at most one period into [lo, lo + period]."""
    return x + period if x < lo else x - period if x > lo + period else x


def _roots_to_hits(a, b, roots, tol, self_pair=False):
    """Hits from refined roots (s, t, residual) within ``tol``, one per
    intersection.  A closed curve's parameters compare modulo its period."""
    (a0, a1), (b0, b1) = a.domain, b.domain
    per_a, per_b = (a1 - a0) * a.is_closed(tol), (b1 - b0) * b.is_closed(tol)  # 0: open
    ptol = 1e-7 * max(a1 - a0, 1.0)
    kept = []
    for s, t, res in roots:
        if res > tol:
            continue
        if self_pair:
            if s > t:
                s, t = t, s
            if t - s <= 1e-3 * (a1 - a0):
                continue
            if per_a and s <= a0 + ptol and t >= a1 - ptol:
                continue  # the seam of a closed curve is not a self-intersection
        kept.append((s, t))
    kept.sort()

    # Consecutive roots whose connecting midpoint still meets the tolerance
    # are tol-indistinguishable duplicates of one intersection (near-tangent
    # touches smear into short runs of accepted parameters); on a closed
    # curve the last run may continue the first across the seam.
    def same(prev, root):
        ps, pt_ = prev
        s, t = _near(root[0], ps, per_a), _near(root[1], pt_, per_b)
        if abs(s - ps) <= ptol and abs(t - pt_) <= ptol:
            return True
        if abs(s - ps) > 0.05 * (a1 - a0) or abs(t - pt_) > 0.05 * (b1 - b0):
            return False
        sm, tm = _into(0.5 * (s + ps), a0, per_a), _into(0.5 * (t + pt_), b0, per_b)
        return _gap(a, b, sm, tm) <= tol

    groups = []
    for root in kept:
        if groups and same(groups[-1][-1], root):
            groups[-1].append(root)
        else:
            groups.append([root])
    if (per_a or per_b) and len(groups) > 1 and same(groups[-1][-1], groups[0][0]):
        groups[0] = groups.pop() + groups[0]

    hits = []
    for grp in groups:
        ss = [_near(g[0], grp[0][0], per_a) for g in grp]
        ts = [_near(g[1], grp[0][1], per_b) for g in grp]
        # np.mean of one value v is 0.0 + v: +0.0 for -0.0
        mean = (lambda xs: 0.0 + xs[0]) if len(grp) == 1 else (lambda xs: float(np.mean(xs)))
        s, t = _into(mean(ss), a0, per_a), _into(mean(ts), b0, per_b)
        if len(grp) > 1 and _gap(a, b, s, t) > tol:
            # a smeared run whose mean parameters miss: report its best root
            s, t = min(grp, key=lambda g: _gap(a, b, *g))
        ((xa, ya), da), ((xb, yb), db) = _eval(a, s), _eval(b, t)
        smeared = max(ss) - min(ss) > 1e-5 * (a1 - a0) or max(ts) - min(ts) > 1e-5 * (b1 - b0)
        tangential = smeared or _is_tangential(da, db)
        hits.append(IntersectionHit(s, t, np.array([0.5 * (xa + xb), 0.5 * (ya + yb)]), tangential))
    hits.sort(key=lambda h: (h.t_a, h.t_b))
    return hits


def _self_intersections(c, tol):
    if c.kind == "segment" or _injective(c.ctrl.tolist()):
        return []
    gap = 1e-3 * (c.domain[1] - c.domain[0])  # self-hits closer than this in parameter are ignored
    pairs = _span_pairs(c.nets(), c.nets(), tol, self_pair=True)
    stack = list(c.nets())
    while stack:  # halve every span until its pieces are injective or short
        lo, hi, net = stack.pop()
        if not _injective(net) and hi - lo > gap:
            mid, (left, right) = 0.5 * (lo + hi), _split(net, 0.5)
            pairs.append((lo, mid, left, _box(left), mid, hi, right, _box(right)))
            stack += [(lo, mid, left), (mid, hi, right)]
    pairs = [pair for pair in pairs if not _adjacent_apart(*pair, gap, tol)]
    return _clip_intersections(c, c, pairs, tol, gap)


def _adjacent_apart(s0, s1, p, _bp, t0, t1, q, _bq, gap, tol):
    """Whether nets p and q of one curve that share the breakpoint s1 = t0
    keep more than 2 ``tol`` apart at parameters more than ``gap`` apart:
    the derivative, in the hull of p's and q's hodograph control vectors,
    has a component of at least m along the direction u of their summed
    net differences, so such points lie at least m gap apart along u, less
    the gap between p's end and q's start."""
    if s1 != t0:
        return False
    diffs = [((x1 - x0, y1 - y0), (len(net) - 1) / (u1 - u0)) for u0, u1, net in
             ((s0, s1, p), (t0, t1, q)) for (x0, y0), (x1, y1) in zip(net, net[1:])]
    ux, uy = map(math.fsum, zip(*(d for d, _ in diffs)))
    norm = math.hypot(ux, uy)
    m = min(c * (dx * ux + dy * uy) for (dx, dy), c in diffs) / norm if norm > 0.0 else 0.0
    return m * gap - math.dist(p[-1], q[0]) > 2.0 * tol


def _injective(net):
    """Sufficient test: the control polygon's differences (the directions
    of the hodograph's control vectors) lie in an open half-plane."""
    d = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(net, net[1:])]
    ux = uy = 0.0
    for dx, dy in d:  # a left fold: the builtin sum compensates from Python 3.12 on
        ux, uy = ux + dx, uy + dy
    n = math.hypot(ux, uy)
    return n > 0.0 and all(dx * ux + dy * uy > 1e-12 * n for dx, dy in d)


def _box(net):
    xs, ys = zip(*net)
    return min(xs), min(ys), max(xs), max(ys)


def _apart(bp, bq, tol):
    return bp[0] > bq[2] + tol or bp[1] > bq[3] + tol or bq[0] > bp[2] + tol or bq[1] > bp[3] + tol


def _span_pairs(nets_a, nets_b, tol, self_pair=False):
    """(s0, s1, p, box of p, t0, t1, q, box of q) for the span nets p of a and
    q of b whose ``tol``-padded boxes meet; for a self pair only spans i < j."""
    boxes_a, boxes_b = [_box(p) for _, _, p in nets_a], [_box(q) for _, _, q in nets_b]
    return [
        (s0, s1, p, boxes_a[i], t0, t1, q, boxes_b[j])
        for i, (s0, s1, p) in enumerate(nets_a)
        for j, (t0, t1, q) in enumerate(nets_b)
        if (j > i or not self_pair) and not _apart(boxes_a[i], boxes_b[j], tol)
    ]


def _split(net, u):
    """de Casteljau at local parameter u: the nets of [0, u] and [u, 1]."""
    return _half(net, u, 0), _half(net, u, -1)


def _half(net, u, end):
    """One net of ``_split``: of [0, u] for ``end`` 0, of [u, 1] for -1."""
    v = 1.0 - u
    half, pts = [net[end]], net
    while len(pts) > 1:
        pts = [(v * x0 + u * x1, v * y0 + u * y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        half.append(pts[end])
    return half if end == 0 else half[::-1]


def _clip(p, q, pad):
    """Local parameter interval (u0, u1) of net p outside which p keeps
    farther than ``pad`` from q (empty when u0 > u1), and p's net on it.

    q lies in its fat line, the band along its chord that holds its control
    points.  p's signed distance to the chord is a Bézier function with
    coefficients d_i, inside the convex hull of the points (i/n, d_i); the
    interval is that hull's extent within the padded band, over every point
    and every pair of points: all of [0, 1] when p's ends lie in the band."""
    (x0, y0), (x1, y1) = q[0], q[-1]
    nx, ny = y0 - y1, x1 - x0
    norm = math.hypot(nx, ny)
    if norm == 0.0:
        return 0.0, 1.0, p  # no chord direction, no clip
    nx, ny = nx / norm, ny / norm
    dq = [(x - x0) * nx + (y - y0) * ny for x, y in q]
    lo, hi = min(dq) - pad, max(dq) + pad
    n = len(p) - 1
    d = [(x - x0) * nx + (y - y0) * ny for x, y in p]
    if lo <= d[0] <= hi and lo <= d[n] <= hi:
        return 0.0, 1.0, p
    u0, u1 = 1.0, 0.0  # min() and max() as comparisons: the same values, no calls
    for i, di in enumerate(d):
        ui = i / n
        if lo <= di <= hi:
            u0, u1 = ui if ui < u0 else u0, ui if ui > u1 else u1
        for j in range(i + 1, n + 1):
            dj = d[j]
            for level in (lo, hi):
                if (di - level) * (dj - level) < 0.0:
                    u = ui + (j / n - ui) * (level - di) / (dj - di)
                    u0, u1 = u if u < u0 else u0, u if u > u1 else u1
    u0, u1 = 0.0 if 0.0 > u0 else u0, 1.0 if 1.0 < u1 else u1
    if u0 <= u1 and u1 < 1.0:
        p = _half(p, u1, 0)
    if 0.0 < u0 <= u1:
        p = _half(p, u0 / u1, -1)
    return u0, u1, p


def _distinct_roots(a, b, roots, tol):
    """The refined roots less those above ``tol`` and those that repeat a
    transversal root already kept.

    A shallow crossing whose curves stay within ``tol`` of each other for a
    while yields a run of floor-sized pairs that all refine to one root.
    Tangential and coincident stretches keep every root."""
    ptol = 1e-7 * max(a.domain[1] - a.domain[0], 1.0)
    kept, transversal = [], []
    for s, t, res in roots:
        if res > tol or any(abs(s - rs) <= ptol and abs(t - rt) <= ptol for rs, rt in transversal):
            continue
        kept.append((s, t, res))
        if not _is_tangential(_eval(a, s)[1], _eval(b, t)[1]):
            transversal.append((s, t))
    return kept


def _clip_intersections(a, b, pairs, tol, gap=None):
    """Intersections of a and b from pairs of their span nets, by Bézier
    clipping (Sederberg & Nishita, CAD 22(9), 1990).

    ``pairs`` holds (s0, s1, p, bp, t0, t1, q, bq): nets p of a on [s0, s1]
    and q of b on [t0, t1] with their boxes, which the stack carries.  Each
    step clips p against q's fat line, then q against p's, and halves the
    wider net when neither clip removes 20 %.
    A pair whose clipped nets' boxes are both at most ``floor`` wide is a
    candidate, which Newton refines once, when it is found.  With ``gap``
    (a self pair, s1 <= t0) pairs and candidates closer than ``gap`` in
    parameter are dropped.
    """
    scale = max(a.bbox_diag(), b.bbox_diag(), 1e-12)
    floor = max(tol, 1e-5 * scale)
    where = "pair" if gap is None else "self"
    stack, roots, steps, squeezed = pairs, [], 0, False
    while stack:
        steps += 1
        if len(roots) > _MAX_CANDIDATES and not squeezed:
            roots, squeezed = _distinct_roots(a, b, roots, tol), True
        if len(roots) > _MAX_CANDIDATES or steps > _MAX_STEPS or len(stack) > _MAX_STACK:
            _blowup(a, b, tol, where)
        s0, s1, p, bp, t0, t1, q, bq = stack.pop()
        if gap is not None and t1 - s0 <= gap:
            continue  # any candidate here would be parameter-adjacent
        if _apart(bp, bq, tol):
            continue
        u0, u1, clipped = _clip(p, q, tol)
        if u0 > u1:
            continue
        if clipped is not p:
            p, bp = clipped, _box(clipped)
        s0, s1 = s0 + u0 * (s1 - s0), s0 + u1 * (s1 - s0)
        v0, v1, clipped = _clip(q, p, tol)
        if v0 > v1:
            continue
        if clipped is not q:
            q, bq = clipped, _box(clipped)
        t0, t1 = t0 + v0 * (t1 - t0), t0 + v1 * (t1 - t0)
        wp, wq = max(bp[2] - bp[0], bp[3] - bp[1]), max(bq[2] - bq[0], bq[3] - bq[1])
        if max(wp, wq) <= floor:
            s, t = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
            if gap is None or t - s > gap:
                roots.append(_newton_refine(a, b, s, t, scale))
        elif u1 - u0 <= 0.8 or v1 - v0 <= 0.8:
            stack.append((s0, s1, p, bp, t0, t1, q, bq))
        elif wp >= wq:
            sm, (p1, p2) = 0.5 * (s0 + s1), _split(p, 0.5)
            stack += [(s0, sm, p1, _box(p1), t0, t1, q, bq), (sm, s1, p2, _box(p2), t0, t1, q, bq)]
        else:
            tm, (q1, q2) = 0.5 * (t0 + t1), _split(q, 0.5)
            stack += [(s0, s1, p, bp, t0, tm, q1, _box(q1)), (s0, s1, p, bp, tm, t1, q2, _box(q2))]
    return _roots_to_hits(a, b, roots, tol, self_pair=gap is not None)


# ---------------------------------------------------------------------------
# drawing data model


@dataclass
class Vertex:
    id: int
    position: np.ndarray
    hits: list = field(default_factory=list)  # (curve_id, t) pairs
    seam: bool = False
    tangential: bool = False


class Edge:
    """Curve ``curve_id`` on [t_lo, t_hi] (t_hi may exceed the curve domain
    end for seam-crossing edges), oriented v_from -> v_to.  ``geometry`` is
    that restriction reparameterized to [0, 1]; a segment edge of
    ``build_drawing`` holds its net as row ``row`` of the drawing's stacked
    nets ``stack`` (n, 2, 2) instead and builds its geometry on first use."""

    def __init__(self, id, curve_id, t_lo, t_hi, v_from, v_to, geometry=None):
        self.id, self.curve_id, self.t_lo, self.t_hi = id, curve_id, t_lo, t_hi
        self.v_from, self.v_to, self._geometry = v_from, v_to, geometry
        self.stack = self.row = None  # set by _cut_segments

    @property
    def geometry(self):
        if self._geometry is None:
            ctrl = self.stack[self.row]
            self._geometry = trusted_bezier(ctrl, tuple(map(tuple, ctrl.tolist())))
        return self._geometry

    @property
    def is_loop(self):
        return self.v_from == self.v_to


class Drawing:
    """A curvilinear drawing: curves, vertices, edges and path lists."""

    def __init__(self, curves, vertices, edges, tol=DEFAULT_TOL, pi=None):
        self.curves = list(curves)
        self.vertices = dict(vertices)
        self.edges = dict(edges)
        self.tol = tol
        # the largest distance by which a fitted curve misses what it stands for
        self.fit_error = 0.0
        self.pi = self._build_pi() if pi is None else pi
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
            return (e.curve_id, t, -1 if se > 0 else 1)

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
        """The drawing on some vertices and the edges between them; path lists filtered."""
        verts = {vid: self.vertices[vid] for vid in vertex_ids}
        edges = {eid: self.edges[eid] for eid in edge_ids}
        pi = {vid: [se for se in self.pi[vid] if abs(se) in edges] for vid in verts}
        sub = Drawing(self.curves, verts, edges, tol=self.tol, pi=pi)
        sub.fit_error = self.fit_error
        return sub

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
    """Ascending pairs (i, j), i < j, whose control-point boxes, padded by
    ``tol``, meet: in xmin order, box k against the boxes after it that start
    by its xmax + tol (so meet it in x), as one array sweep; a two-point net
    is its own box."""
    nets = [c.ctrl.tolist() if c.kind == "bspline" else c.nets()[0][2] for c in curves]
    ends = np.array([(*n[0], *n[1]) if len(n) == 2 else _box(n) for n in nets], float)
    ends = ends.reshape(-1, 2, 2)
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    order = np.argsort(lo[:, 0], kind="stable")
    (xlo, ylo), (xhi, yhi), n = lo[order].T, hi[order].T, len(order)
    count = np.searchsorted(xlo, xhi + tol, side="right") - np.arange(n) - 1
    k = np.repeat(np.arange(n), count)
    j = k + 1 + np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
    keep = ~((ylo[k] > yhi[j] + tol) | (ylo[j] > yhi[k] + tol))
    i, j = order[k[keep]], order[j[keep]]
    first, second = np.minimum(i, j), np.maximum(i, j)
    at = np.lexsort((second, first))
    return list(zip(first[at].tolist(), second[at].tolist()))


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
    if not tol > 0:  # NaN too
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

    clusters = {}  # by label, in the order first seen
    for rec, lab in zip(records, _cluster_points([r[4] for r in records], tol)):
        clusters.setdefault(lab, []).append(rec)

    vertices = {}
    next_vid = 1
    for recs in clusters.values():
        pos = recs[0][4] if len(recs) == 1 else np.mean([r[4] for r in recs], axis=0)
        hits = sorted({(c, float(t)) for r in recs for c, t in (r[:2], r[2:4])})
        vertices[next_vid] = Vertex(next_vid, pos, hits, tangential=any(r[5] for r in recs))
        next_vid += 1

    per_curve = {i: [] for i in range(len(curves))}
    for v in vertices.values():
        for ci, t in v.hits:
            per_curve[ci].append((t, v.id))

    edges = {}

    def add_edge(ci, t0, t1, v0, v1, geometry):
        eid = len(edges) + 1
        edges[eid] = Edge(eid, ci, float(t0), float(t1), v0, v1, geometry)

    for ci, curve in enumerate(curves):
        hits = sorted(per_curve[ci])
        closed = curve.is_closed(tol)
        if not (hits or closed):
            continue
        a, b = curve.domain
        ptol = _param_tol(curve, tol)

        merged = []
        for t, vid in hits:
            if merged and merged[-1][1] == vid and t - merged[-1][0] <= ptol:
                merged[-1] = (0.5 * (merged[-1][0] + t), vid)
            else:
                merged.append((t, vid))

        if not merged:  # closed, without hits: one loop from a seam vertex
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
                # a vertex sits on the seam: list it at both domain ends, here
                # and among its hits
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
                vertices[vid].hits = sorted({*vertices[vid].hits, (ci, a), (ci, b)})
            else:
                needs_wrap = True

        for (t0, v0), (t1, v1) in zip(merged[:-1], merged[1:]):
            if t1 - t0 <= ptol and v0 == v1:
                continue
            segment = curve.kind == "segment"  # cut in one pass with all others, below
            add_edge(ci, t0, t1, v0, v1, None if segment else curve.restricted(t0, t1))

        if needs_wrap:
            t0, v0 = merged[-1]
            t1, v1 = merged[0]
            wrap_hi = t1 + (b - a)
            add_edge(ci, t0, wrap_hi, v0, v1, curve.cyclic_restricted(t0, wrap_hi))

    _cut_segments(curves, [e for e in edges.values() if e._geometry is None])
    return Drawing(curves, vertices, edges, tol=tol)


def _cut_segments(curves, cut):
    """Give the segment edges ``cut`` their nets, bit-equal to ``restricted``
    of their curves, in one array pass: on a segment's domain [0, 1], a
    split at t0 > snap keeps m + 0.0 q of m = (1 - t0) p + t0 q, then one at
    t1 < 1 - snap keeps (1 - al) m' + al q, al = (t1 - lo) / (1 - lo), as
    ``_boehm_steps`` computes them; an end within the knot snap of 0 or 1
    is not split at, as ``restricted`` snaps it.  An edge narrower than the
    snap, which ``restricted`` refuses, keeps the same net between its ends;
    an empty one, or one outside the domain, takes ``restricted`` and its
    error."""
    if not cut:
        return
    pq = np.array([curves[e.curve_id].nets()[0][2] for e in cut], float)
    t0, t1 = np.array([(e.t_lo, e.t_hi) for e in cut]).T
    p, q, snap = pq[:, 0], pq[:, 1], _KNOT_SNAP
    right, left = t0 > snap, t1 < 1.0 - snap
    lo, al = np.where(right & left, t0, 0.0), t0[:, None]  # (t0 - 0.0) / (1.0 - 0.0)
    start = np.where(right[:, None], ((1.0 - al) * p + al * q) + 0.0 * q, p)
    al = ((t1 - lo) / (1.0 - lo))[:, None]
    end = np.where(left[:, None], (1.0 - al) * start + al * q, q)
    stack = np.concatenate((start, end), axis=1).reshape(-1, 2, 2)
    refused = ~(t0 < t1) | (t0 < -snap) | (t1 > 1.0 + snap)
    for row, (e, refuse) in enumerate(zip(cut, refused.tolist())):
        if refuse:
            e._geometry = curves[e.curve_id].restricted(e.t_lo, e.t_hi)
        else:
            e.stack, e.row = stack, row
