"""Intersection and drawing-assembly behavior."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curveplan import arrangement
from curveplan.arrangement import DEFAULT_TOL, Edge, build_drawing, intersect_curve_pair
from curveplan.curves import ParamCurve, derivative_data, split_bspline
from curveplan.errors import CurveplanError, GeometryError, OverlapError
from curveplan.regions import extract_and_classify

from arrangement_oracle import SegmentArrangement
from test_curves import _restricted_reference
from util import quadratic_arch, segment, square_curves, circle_bspline


def test_crossing_segments():
    hits = intersect_curve_pair(segment((0, 0), (1, 1)), segment((0, 1), (1, 0)))
    assert len(hits) == 1
    h = hits[0]
    assert abs(h.t_a - 0.5) < 1e-12 and abs(h.t_b - 0.5) < 1e-12
    assert np.allclose(h.point, [0.5, 0.5], atol=1e-12)
    assert not h.tangential


def test_disjoint_segments():
    assert intersect_curve_pair(segment((0, 0), (1, 0)), segment((0, 1), (1, 1))) == []


@pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan])
def test_a_tolerance_that_is_not_positive_raises(tol):
    a, b = segment((0, 0), (1, 1)), segment((0, 1), (1, 0))
    with pytest.raises(GeometryError, match="must be positive"):
        intersect_curve_pair(a, b, tol)
    with pytest.raises(GeometryError, match="must be positive"):
        build_drawing([a, b], tol=tol)


def test_line_against_arch():
    # oracle: the arch height is y(t) = 2t(1-t); solving 2t(1-t) = 1/4 in
    # closed form gives t = (2 +- sqrt(2)) / 4, and x(t) = t
    t_low = (2 - math.sqrt(2)) / 4
    t_high = (2 + math.sqrt(2)) / 4
    line = segment((0, 0.25), (1, 0.25))
    hits = intersect_curve_pair(line, quadratic_arch())
    assert len(hits) == 2
    ts = sorted(h.t_b for h in hits)
    assert abs(ts[0] - t_low) < 1e-10 and abs(ts[1] - t_high) < 1e-10
    pts = sorted((h.point[0], h.point[1]) for h in hits)
    assert abs(pts[0][0] - t_low) < 1e-10 and abs(pts[0][1] - 0.25) < 1e-10
    assert abs(pts[1][0] - t_high) < 1e-10 and abs(pts[1][1] - 0.25) < 1e-10


@pytest.mark.parametrize("point_first", [True, False])
def test_zero_length_segment_meets_with_a_typed_error(point_first):
    # a point on the other segment has no parameter to report; one 0.3 away
    # meets nothing
    point = segment((0.5, 0.3), (0.5, 0.3))
    for other, touches in (
        (segment((0.2, 0.3), (0.6, 0.3)), True),
        (segment((0.5 + 0.5 * DEFAULT_TOL, 0.3), (0.5, 1.0)), True),
        (segment((0.2, 0.0), (0.6, 0.0)), False),
        (segment((0.5, 0.3 + 2 * DEFAULT_TOL), (0.5, 1.0)), False),
    ):
        a, b = (point, other) if point_first else (other, point)
        if touches:
            with pytest.raises(GeometryError, match="zero length"):
                intersect_curve_pair(a, b)
        else:
            assert intersect_curve_pair(a, b) == []
    twin = segment((0.5, 0.3), (0.5, 0.3))
    with pytest.raises(GeometryError, match="zero length"):
        intersect_curve_pair(point, twin)
    assert intersect_curve_pair(point, segment((0.5, 0.4), (0.5, 0.4))) == []


@pytest.mark.parametrize(
    "p, q", [(((0.0, 0.0), (0.0, 5e-324)), ((0.0, 0.0), (0.0, 0.125))),
             (((0.0, 0.0), (0.125, 0.0)), ((0.0, 0.0), (0.0, 5e-324)))],
)
def test_segment_whose_squared_length_underflows_is_a_point(p, q):
    # a subnormal segment used to divide by its zero squared length (or by
    # a zero parameter span) in the parallel branch
    for a, b in ((p, q), (q, p)):
        with pytest.raises(GeometryError, match="zero length"):
            intersect_curve_pair(segment(*a), segment(*b))
    assert intersect_curve_pair(segment((0.0, 0.5), (1e-170, 0.5)), segment(*p)) == []


def test_identical_curves_overlap_error():
    with pytest.raises(OverlapError):
        intersect_curve_pair(segment((0, 0), (1, 0)), segment((0.5, 0), (2, 0)))
    with pytest.raises(OverlapError):
        intersect_curve_pair(quadratic_arch(), quadratic_arch())


@pytest.mark.parametrize("long_first", [False, True])
def test_parallel_reach_is_perpendicular_distance(long_first):
    # the same pair, 1e-6 apart, once with a short and once with a long first
    # segment: apart by more than tol in both argument orders either way
    first = segment((0, 0), (5, 0) if long_first else (0.05, 0))
    near = segment((0.01, 1e-6), (0.04, 1e-6))
    assert intersect_curve_pair(first, near) == []
    assert intersect_curve_pair(near, first) == []
    within = segment((0.01, 0.5 * DEFAULT_TOL), (0.04, 0.5 * DEFAULT_TOL))
    for a, b in ((first, within), (within, first)):
        with pytest.raises(OverlapError):
            intersect_curve_pair(a, b)


def test_collinear_endpoint_touch_is_single_hit():
    hits = intersect_curve_pair(segment((0, 0), (1, 0)), segment((1, 0), (2, 0)))
    assert len(hits) == 1
    assert np.allclose(hits[0].point, [1, 0], atol=1e-12)


def test_parallel_touch_across_a_gap_lies_on_both_segments():
    # collinear ends 0.5 tol apart touch at the ends themselves, in either
    # order; ends 0.585 tol along and 0.9 tol across apart (1.07 tol) do not
    tol = DEFAULT_TOL
    a, b = segment((0, 0), (1, 0)), segment((1 + 0.5 * tol, 0), (2, 0))
    for (p, q), ends in (((a, b), (1.0, 0.0)), ((b, a), (0.0, 1.0))):
        (hit,) = intersect_curve_pair(p, q)
        assert (hit.t_a, hit.t_b) == ends and hit.tangential
        assert np.array_equal(hit.point, p.point(ends[0]))
    off = segment((1 + 0.585 * tol, -0.9 * tol), (2, -0.9 * tol))
    assert intersect_curve_pair(a, off) == intersect_curve_pair(off, a) == []


def test_tangential_flagged():
    # the arch apex is (0.5, 0.5): the line y = 0.5 touches without crossing
    hits = intersect_curve_pair(segment((0, 0.5), (1, 0.5)), quadratic_arch(), tol=1e-7)
    assert len(hits) == 1
    assert hits[0].tangential
    assert abs(hits[0].t_b - 0.5) < 1e-3
    assert np.allclose(hits[0].point, [0.5, 0.5], atol=1e-6)


def test_self_intersection_alpha_curve():
    # x(t) is odd about t=1/2: closed-form crossing at t = 1/2 +- sqrt(3/20)
    alpha = ParamCurve("bezier", [(-1, 0), (3, 4), (-3, 4), (1, 0)])
    hits = intersect_curve_pair(alpha, alpha)
    assert len(hits) == 1
    lo = 0.5 - math.sqrt(3.0 / 20.0)
    hi = 0.5 + math.sqrt(3.0 / 20.0)
    assert abs(hits[0].t_a - lo) < 1e-9
    assert abs(hits[0].t_b - hi) < 1e-9


def test_self_intersection_overflow_is_not_an_overlap(monkeypatch):
    # a curve coincides with itself, so only a distinct pair may read as one
    alpha = ParamCurve("bezier", [(-1, 0), (3, 4), (-3, 4), (1, 0)])
    monkeypatch.setattr(arrangement, "_MAX_STEPS", 3)
    with pytest.raises(GeometryError) as info:
        intersect_curve_pair(alpha, alpha)
    assert type(info.value) is GeometryError


def test_injective_adds_the_net_differences_left_to_right():
    # added left to right, the x differences cancel to 0.0 and every
    # difference points down; a compensated sum (the builtin sum from
    # Python 3.12 on) leaves -0.342, against which the last one points back
    net = [
        (0.343955334558234, 0.21272028717314972),
        (0.0019356515434031678, -0.43108645001130363),
        (-6793665709621873.0, -0.9228287905595522),
        (0.011138407227351595, -0.9652733984304414),
    ]
    assert arrangement._injective(net)


@pytest.mark.parametrize("p, q", [
    ((0.5 - 3e-8, 1e-8), (0.5 + 3e-8, -1e-8)),  # across the bottom side
    ((0.5, 0.5), (0.5 + 5e-8, 0.5)),  # inside, meeting nothing
])
def test_a_segment_shorter_than_tol_is_not_closed(p, q):
    # as a closed curve it got a seam-crossing edge from one vertex to itself
    tiny = segment(p, q)
    assert not tiny.is_closed(DEFAULT_TOL)
    rs = extract_and_classify(build_drawing(square_curves() + [tiny], DEFAULT_TOL))
    assert len(rs.regions) == 1
    assert abs(rs.regions[0].signed_area - 1.0) <= 1e-12


def test_square_drawing_counts():
    d = build_drawing(square_curves())
    assert len(d.vertices) == 4
    assert len(d.edges) == 4
    for vid in d.vertices:
        assert len(d.pi[vid]) == 2  # two outgoing half-edges per corner


def test_square_plus_diagonal():
    curves = square_curves() + [segment((0, 0), (1, 1))]
    d = build_drawing(curves)
    assert len(d.vertices) == 4
    assert len(d.edges) == 5
    sizes = sorted(len(d.pi[v]) for v in d.vertices)
    assert sizes == [2, 2, 3, 3]


def test_lone_closed_loop_gets_seam_vertex():
    loop = circle_bspline(radius=1.0, n_ctrl=16, n_samples=256)
    d = build_drawing([loop])
    assert len(d.vertices) == 1
    (v,) = d.vertices.values()
    assert v.seam
    assert len(d.edges) == 1
    (e,) = d.edges.values()
    assert e.is_loop
    (vid,) = d.vertices
    assert sorted(d.pi[vid]) == [-e.id, e.id]


def test_closed_loop_with_offset_crossing_gets_wrap_edge():
    # circle seam at angle 0; a vertical chord crosses away from the seam
    loop = circle_bspline(radius=1.0, n_ctrl=32, n_samples=512)
    chord = segment((0, -2), (0, 2))
    d = build_drawing([loop, chord])
    assert len(d.vertices) == 2
    loop_edges = [e for e in d.edges.values() if e.curve_id == 0]
    assert len(loop_edges) == 2
    wrap = [e for e in loop_edges if e.t_hi > 1.0]
    assert len(wrap) == 1  # one edge crosses the seam
    # wrap-edge geometry matches the underlying circle
    g = wrap[0].geometry
    for s in np.linspace(0, 1, 33):
        assert abs(np.linalg.norm(g.point(s)) - 1.0) < 1e-5


def test_handshake_and_duality():
    curves = square_curves() + [segment((-0.5, 0.2), (1.5, 0.9))]
    d = build_drawing(curves)
    assert sum(len(lst) for lst in d.pi.values()) == 2 * len(d.edges)
    for vid in d.vertices:
        for ci in d.vertex_curves(vid):
            assert vid in d.curve_vertices(ci)
    for ci in range(len(curves)):
        for vid in d.curve_vertices(ci):
            assert ci in d.vertex_curves(vid)


def test_determinism():
    curves = square_curves() + [segment((0, 0), (1, 1)), segment((0.1, 0.9), (0.9, 0.1))]
    d1 = build_drawing(curves)
    d2 = build_drawing(curves)
    assert sorted(d1.vertices) == sorted(d2.vertices)
    for vid in d1.vertices:
        assert np.array_equal(d1.vertices[vid].position, d2.vertices[vid].position)
        assert d1.pi[vid] == d2.pi[vid]
    assert sorted(d1.edges) == sorted(d2.edges)
    for eid in d1.edges:
        for attr in ("curve_id", "t_lo", "t_hi", "v_from", "v_to"):
            assert getattr(d1.edges[eid], attr) == getattr(d2.edges[eid], attr)


def test_random_segments_match_exact_oracle():
    rng = np.random.default_rng(42)
    trials = 0
    while trials < 25:
        n = int(rng.integers(3, 7))
        coords = rng.integers(0, 65, size=(n, 4))
        segs = [((int(a), int(b)), (int(c), int(d))) for a, b, c, d in coords / 1]
        try:
            oracle = SegmentArrangement(
                [((p[0], p[1]), (q[0], q[1])) for p, q in segs]
            )
        except Exception:
            continue
        if oracle.min_vertex_gap_squared() is not None and float(
            oracle.min_vertex_gap_squared()
        ) < 1e-6:
            continue
        trials += 1
        curves = [
            segment((p[0] / 64, p[1] / 64), (q[0] / 64, q[1] / 64)) for p, q in segs
        ]
        drawing = build_drawing(curves)
        got = {
            tuple(np.round(v.position * 64, 5)) for v in drawing.vertices.values()
        }
        # dangling-prone vertices still appear pre-purge; oracle prunes, so
        # compare against the unpruned exact vertex set
        expected = set()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                from arrangement_oracle import segment_intersection

                pt = segment_intersection(
                    segs[i][0], segs[i][1], segs[j][0], segs[j][1]
                )
                if pt is not None:
                    expected.add((round(float(pt[0]), 5), round(float(pt[1]), 5)))
        assert got == expected


# ---------------------------------------------------------------------------
# broad phase and clustering against brute force


def _bezier(pts):
    return ParamCurve("bezier", pts)


def _closed_bspline(cx, cy, rx, ry, phase):
    ang = phase + np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ctrl = np.column_stack([cx + rx * np.cos(ang), cy + ry * np.sin(ang)])
    ctrl = np.vstack([ctrl, ctrl[:1]])
    knots = np.concatenate([[0.0] * 4, np.linspace(0.0, 1.0, 7)[1:-1], [1.0] * 4])
    return ParamCurve("bspline", ctrl, degree=3, knots=knots)


# grid coordinates make exact box touches and collinear pieces likely
_coord = st.one_of(
    st.integers(0, 8).map(lambda k: k / 8),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)
_point = st.tuples(_coord, _coord)
_segment = st.tuples(_point, _point).filter(lambda pq: pq[0] != pq[1]).map(lambda pq: segment(*pq))
_curve = st.one_of(
    _segment,
    st.lists(_point, min_size=3, max_size=4).map(_bezier),
    st.builds(
        _closed_bspline,
        _coord, _coord,
        st.floats(0.05, 0.4), st.floats(0.05, 0.4), st.floats(0.0, 6.0),
    ),
)


def _touching(curve, axis, tol):
    """A segment whose box starts exactly tol past the box of curve."""
    hi = curve.ctrl.max(axis=0)
    lo = curve.ctrl.min(axis=0)
    start = hi[axis] + tol
    p, q = [0.0, 0.0], [0.0, 0.0]
    p[axis], q[axis] = start, start + 0.25
    p[1 - axis], q[1 - axis] = lo[1 - axis], hi[1 - axis] + 0.1
    return segment(tuple(p), tuple(q))


@st.composite
def _curve_lists(draw, max_size):
    curves = draw(st.lists(_curve, min_size=1, max_size=max_size))
    tol = draw(st.sampled_from([DEFAULT_TOL, 1e-3, 0.125]))
    for k, axis in draw(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1)), max_size=3)):
        curves.append(_touching(curves[k % len(curves)], axis, tol))
    for k in draw(st.lists(st.integers(0, 50), max_size=2)):
        c = curves[k % len(curves)]
        if c.kind == "segment":  # collinear end-to-end continuation
            p, q = c.ctrl
            curves.append(segment(tuple(q), tuple(2 * q - p)))
    order = draw(st.permutations(range(len(curves))))
    return [curves[i] for i in order], tol


def _brute_pairs(curves, tol):
    """Every pair whose control-point min/max boxes, padded by tol, meet."""
    boxes = [(c.ctrl.min(axis=0), c.ctrl.max(axis=0)) for c in curves]
    return [
        (i, j)
        for i, (la, ha) in enumerate(boxes)
        for j, (lb, hb) in enumerate(boxes)
        if i < j and not (np.any(la > hb + tol) or np.any(lb > ha + tol))
    ]


def _brute_cluster(points, tol):
    """The O(R^2) union-find the grid hash replaces."""
    parent = list(range(len(points)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if np.linalg.norm(points[i] - points[j]) <= tol:
                parent[find(i)] = find(j)
    return [find(i) for i in range(len(points))]


def _partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return sorted(groups.values())


_T = 0.125  # a tol with exact sums on the 1/8 grid


@settings(max_examples=300, deadline=None)
@given(_curve_lists(max_size=30))
@example(([], DEFAULT_TOL))
@example(([segment((0.0, 0.0), (1.0, 1.0))], DEFAULT_TOL))
# tied xmin, in and out of each other's reach
@example(([segment((0.25, 0.0), (0.5, 1.0)), segment((0.25, 0.5), (0.75, 0.5)),
           segment((0.25, 2.0), (0.25, 3.0)), segment((0.5, 1.0), (0.25, 1.5))], 1e-3))
# boxes exactly tol apart in x, in y, and in both
@example(([segment((0.0, 0.0), (0.25, 0.25)), segment((0.375, 0.0), (0.5, 0.25)),
           segment((0.0, 0.375), (0.25, 0.5)), segment((0.375, 0.375), (0.5, 0.5))], _T))
# a B-spline and a Bézier among segments
@example(([segment((0.0, 0.0), (1.0, 1.0)), _closed_bspline(0.5, 0.5, 0.25, 0.25, 0.0),
           segment((2.0, 2.0), (3.0, 3.0)), _bezier([(0.75, 0.0), (1.0, 0.5), (0.875, 1.0)]),
           segment((0.5, 0.875), (0.5, 2.0))], DEFAULT_TOL))
def test_box_pairs_equal_brute_force(case):
    curves, tol = case
    assert arrangement._box_pairs(curves, tol) == _brute_pairs(curves, tol)


@st.composite
def _point_sets(draw):
    tol = draw(st.sampled_from([DEFAULT_TOL, 1e-3, 0.1]))
    points = []
    for x, y in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=8)):
        points.append(np.array([x * tol, y * tol]))  # on cell boundaries
    for _ in range(draw(st.integers(0, 3))):  # chains just under tol apart
        start = np.array(draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1))))
        ang = draw(st.floats(0.0, 2.0 * np.pi))
        gap = draw(st.floats(0.9, 0.999999)) * tol
        step = gap * np.array([math.cos(ang), math.sin(ang)])
        points.extend(start + k * step for k in range(draw(st.integers(2, 12))))
    points.extend(
        np.array(p)
        for p in draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), max_size=10))
    )
    order = draw(st.permutations(range(len(points))))
    return [points[i] for i in order], tol


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_grid_clustering_equals_brute_force(case):
    points, tol = case
    got = _partition(arrangement._cluster_points(points, tol))
    assert got == _partition(_brute_cluster(points, tol))


def _all_pairs(curves, tol):
    n = len(curves)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _drawing_or_error(curves, tol):
    try:
        return build_drawing(curves, tol=tol)
    except CurveplanError as exc:
        return type(exc), str(exc)


def _snapshot(d):
    if isinstance(d, tuple):
        return d
    vertices = [
        (vid, v.position.tobytes(), v.hits, v.seam, v.tangential)
        for vid, v in d.vertices.items()
    ]
    edges = [
        (eid, e.curve_id, e.t_lo, e.t_hi, e.v_from, e.v_to,
         e.geometry.ctrl.tobytes(), e.geometry.knots.tobytes())
        for eid, e in d.edges.items()
    ]
    return vertices, edges, d.pi


@settings(max_examples=40, deadline=None)
@given(_curve_lists(max_size=6))
def test_build_drawing_equals_all_pairs_reference(case):
    curves, tol = case
    got = _snapshot(_drawing_or_error(curves, tol))
    with mock.patch.object(arrangement, "_box_pairs", _all_pairs), mock.patch.object(
        arrangement, "_cluster_points", _brute_cluster
    ):
        want = _snapshot(_drawing_or_error(curves, tol))
    assert got == want


def _cross_grid(eps):
    """The unit square, its midlines x = 0.5 and y = 0.5 and the segment
    (0, eps)-(1, 1 + eps): for eps of a few tol the diagonal's hits near
    (0.5, 0.5) cluster into vertices between tol and 4 tol apart."""
    return square_curves() + [segment((0.5, 0.0), (0.5, 1.0)), segment((0.0, 0.5), (1.0, 0.5)),
                              segment((0.0, eps), (1.0, 1.0 + eps))]


def _verticals(*xs):
    return [segment((x, -1.0), (x, 1.0)) for x in xs]


@settings(max_examples=100, deadline=None)
@given(st.lists(_segment, min_size=3, max_size=10), st.sampled_from([DEFAULT_TOL, 1e-3]))
# a segment shorter than tol, across another: never a closed curve's wrap edge
@example([segment((0.0, 0.0), (1.0, 0.0)), segment((0.5, -1.0), (0.5, 1.0)),
          segment((0.5 - 3e-8, 1e-8), (0.5 + 3e-8, -1e-8))], DEFAULT_TOL)
# edge ends within the knot snap (1e-12) of 0 and 1, which restricted does
# not split at, and just outside it
@example([segment((0.0, 0.0), (1.0, 0.0)), *_verticals(5e-13, 0.5, 1.0 - 5e-13)], DEFAULT_TOL)
@example([segment((0.0, 0.0), (1.0, 0.0)), *_verticals(2e-12, 0.5, 1.0 - 2e-12)], DEFAULT_TOL)
# a short edge between two distinct vertices
@example(_cross_grid(2e-7), 1e-7)
def test_segment_edges_equal_split_bspline_restrictions(curves, tol):
    # the array pass gives every edge its curve's restriction to the edge
    # interval, bit for bit, as restricted and split_bspline compute it:
    # kind, control points, knots and nets, and the stack row that the
    # half-edge table and the SVG writer read holds the same net
    drawing = _drawing_or_error(curves, tol)
    if isinstance(drawing, tuple):  # overlapping or point-like segments
        return
    for e in drawing.edges.values():
        curve = curves[e.curve_id]
        for want in (curve.restricted(e.t_lo, e.t_hi), _restricted_reference(curve, e.t_lo, e.t_hi)):
            assert (e.geometry.kind, e.geometry.degree) == (want.kind, want.degree)
            assert e.geometry.ctrl.tobytes() == want.ctrl.tobytes()
            assert e.geometry.knots.tobytes() == want.knots.tobytes()
            assert repr(e.geometry.nets()) == repr(want.nets())  # repr keeps signed zeros
        assert e.stack[e.row].tobytes() == want.ctrl.tobytes()


@pytest.mark.parametrize("eps", [1.5e-7, 2e-7, 3e-7, 3.9e-7, 5e-7])
def test_a_short_edge_between_distinct_vertices_is_kept(eps):
    # an edge shorter than the parameter tolerance joins two vertices that
    # clustering kept apart; dropping it broke the drawing into fewer,
    # wrong regions (3 summing to 0.4999998, or 4 summing to 0.75)
    rs = extract_and_classify(build_drawing(_cross_grid(eps), tol=1e-7))
    assert len(rs.regions) == 7
    assert abs(sum(r.signed_area for r in rs.regions) - 1.0) <= 1e-12


_SNAP = 1e-12  # the knot snap of a segment's domain [0, 1]


@st.composite
def _segment_cuts(draw):
    """Segments and edge intervals on them, with ends on, near and within
    the knot snap of 0, of 1 and of each other, inside and outside [0, 1]."""
    curves = draw(st.lists(_segment, min_size=1, max_size=3))
    special = [0.0, 1.0, 0.5 * _SNAP, 1.0 - 0.5 * _SNAP, 2 * _SNAP, 1.0 - 2 * _SNAP,
               -0.5 * _SNAP, 1.0 + 0.5 * _SNAP, -2 * _SNAP, 1.0 + 2 * _SNAP]
    ts = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        t0, t1 = sorted(draw(st.lists(ts, min_size=2, max_size=2)))
        if draw(st.booleans()):
            t1 = min(1.0, t0 + draw(st.sampled_from([0.5, 2.0, 1e3])) * _SNAP)
        lanes.append((draw(st.integers(0, len(curves) - 1)), t0, t1))
    return curves, lanes


def _cut_or_error(fn):
    try:
        c = fn()
    except GeometryError as exc:
        return type(exc), str(exc)
    return c.kind, c.degree, c.knots.tobytes(), c.ctrl.tobytes(), repr(c.nets())


_NARROW = (GeometryError, "restriction interval is narrower than the knot snap")


@settings(max_examples=300, deadline=None)
@given(_segment_cuts())
@example(([segment((0.0, 0.0), (1.0, 3.0))], [(0, 0.3, 0.3 + 0.5 * _SNAP)]))
@example(([segment((0.0, 0.0), (1.0, 3.0))], [(0, 1.0 - 0.5 * _SNAP, 1.0), (0, 0.2, 0.7)]))
@example(([segment((-0.0, 0.5), (0.75, -0.0))], [(0, 0.0, 0.5), (0, 0.25, 1.0)]))
@example(([segment((0.0, 0.0), (1.0, 3.0))], [(0, -0.5 * _SNAP, 0.7 * _SNAP)]))
@example(([segment((0.0, 0.0), (1.0, 3.0))], [(0, 0.3, 1.0 + 0.5 * _SNAP), (0, -2 * _SNAP, 0.5)]))
@example(([segment((0.0, 0.0), (1.0, 3.0))], [(0, 0.3, 0.3), (0, 0.2, 0.7)]))
def test_cut_segments_equals_restricted(case):
    # lane by lane, the array pass equals restricted bit for bit; a lane
    # narrower than the knot snap, which restricted refuses, keeps the
    # segment between the points of its ends (an end within the snap of 0
    # or 1 snapped onto it), and an empty lane or one outside the domain
    # raises restricted's error, the first in lane order
    curves, lanes = case
    edges = [Edge(k + 1, ci, t0, t1, 1, 2) for k, (ci, t0, t1) in enumerate(lanes)]
    wants = [_cut_or_error(lambda: curves[ci].restricted(t0, t1)) for ci, t0, t1 in lanes]
    errors = [want for want in wants if len(want) == 2 and want != _NARROW]
    try:
        arrangement._cut_segments(curves, edges)
    except GeometryError as exc:
        assert errors and (type(exc), str(exc)) == errors[0]
        return
    assert not errors
    for e, want, (ci, t0, t1) in zip(edges, wants, lanes):
        if want != _NARROW:
            assert _cut_or_error(lambda: e.geometry) == want
            continue
        c = curves[ci]
        ends = [c.point(min(max(t, 0.0), 1.0)) for t in (t0, t1)]
        assert (e.geometry.kind, e.geometry.degree) == ("segment", 1)
        assert np.allclose(e.geometry.ctrl, ends, rtol=0.0, atol=4 * _SNAP * max(1.0, c.bbox_diag()))


@pytest.mark.parametrize("gap", [5e-13, 2e-12])
def test_an_edge_narrower_than_the_knot_snap_is_kept(gap):
    # verticals gap apart at tol 1e-14 cut the square's top and bottom into
    # edges between distinct vertices whose span is about the knot snap; the
    # array pass keeps them, so the sliver between the verticals is a region
    curves = square_curves() + [segment((0.5, 0.0), (0.5, 1.0)), segment((0.5 + gap, 0.0), (0.5 + gap, 1.0))]
    rs = extract_and_classify(build_drawing(curves, tol=1e-14))
    assert len(rs.regions) == 3
    assert abs(sum(r.signed_area for r in rs.regions) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Bézier clipping against the bounding-box subdivision it replaced


def _ellipse_fit(phase):
    """Closed cubic B-spline through 8 control points (the first repeated
    last) on the ellipse with semi-axes 0.28 and 0.05, rotated by phase."""
    ang = phase + np.linspace(0.0, 2.0 * np.pi, 8)
    ctrl = np.column_stack([0.28 * np.cos(ang), 0.05 * np.sin(ang)])
    ctrl[-1] = ctrl[0]
    knots = np.concatenate([[0.0] * 4, np.linspace(0.0, 1.0, 6)[1:-1], [1.0] * 4])
    return ParamCurve("bspline", ctrl, degree=3, knots=knots)


def _polyline_crossings(p, q):
    """Proper crossings of two polylines given as (n, 2) vertex arrays."""
    count = 0
    e = q[1:] - q[:-1]
    for p0, p1 in zip(p[:-1], p[1:]):
        d = p1 - p0
        off = q[:-1] - p0
        den = d[0] * e[:, 1] - d[1] * e[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (off[:, 0] * e[:, 1] - off[:, 1] * e[:, 0]) / den
            v = (off[:, 0] * d[1] - off[:, 1] * d[0]) / den
        count += int(np.sum((u >= 0) & (u < 1) & (v >= 0) & (v < 1)))
    return count


@pytest.mark.parametrize("phase, expected", [(0.05, 6), (0.1, 6), (0.28, 6), (0.5, 6), (1.0, 4)])
def test_near_tangent_ellipse_fits_cross_where_polylines_do(phase, expected):
    # two fits of one thin ellipse lie close and cross at shallow angles;
    # box subdivision overflowed on four of these five phases
    a, b = _ellipse_fit(0.0), _ellipse_fit(phase)
    dense = np.linspace(0.0, 1.0, 4001)
    assert _polyline_crossings(a.point(dense), b.point(dense)) == expected
    hits = intersect_curve_pair(a, b)
    assert len(hits) == expected
    scale = max(a.bbox_diag(), b.bbox_diag())
    for h in hits:
        assert np.linalg.norm(a.point(h.t_a) - b.point(h.t_b)) <= 1e-12 * scale


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


def _candidates_to_hits(a, b, candidates, tol, scale, self_pair=False):
    """Hits from candidate parameter pairs, each refined once."""
    roots = [arrangement._newton_refine(a, b, s, t, scale) for s, t in candidates]
    return arrangement._roots_to_hits(a, b, roots, tol, self_pair)


def _reference_generic_intersections(a, b, tol):
    """Bounding-box subdivision of whole curves, as before clipping."""
    scale = max(a.bbox_diag(), b.bbox_diag(), 1e-12)
    floor = max(tol, 1e-5 * scale)
    stack = [(_Piece.whole(a), _Piece.whole(b))]
    candidates = []
    while stack:
        if len(stack) > arrangement._MAX_STACK or len(candidates) > arrangement._MAX_CANDIDATES:
            arrangement._blowup(a, b, tol, "pair")
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


def _piece_injective(piece):
    """Sufficient test: hodograph control vectors in an open half-plane."""
    _, _, q = derivative_data(piece.knots, piece.degree, piece.ctrl)
    if len(q) == 0:
        return True
    u = q.sum(axis=0)
    n = np.linalg.norm(u)
    if n == 0:
        return False
    return bool(np.all(q @ (u / n) > 1e-12))


def _reference_self_intersections(c, tol):
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
        if len(pairs) > arrangement._MAX_STACK or len(candidates) > arrangement._MAX_CANDIDATES:
            arrangement._blowup(c, c, tol, "self")
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


def _open_bspline(pts, degree, knot_ticks):
    interior = sorted(knot_ticks)[: len(pts) - degree - 1]
    knots = np.concatenate([[0.0] * (degree + 1), np.array(interior) / 20, [1.0] * (degree + 1)])
    return ParamCurve("bspline", pts, degree=degree, knots=knots)


def _closed_random_bspline(pts):
    ctrl = np.vstack([pts, pts[:1]])
    n = len(ctrl)
    knots = np.concatenate([[0.0] * 4, np.linspace(0.0, 1.0, n - 2)[1:-1], [1.0] * 4])
    return ParamCurve("bspline", ctrl, degree=3, knots=knots)


_net = st.lists(_point, min_size=5, max_size=8)
_ticks = st.lists(st.integers(1, 19), min_size=5, max_size=5, unique=True)
_spline_curve = st.one_of(
    st.lists(_point, min_size=3, max_size=4).map(_bezier),
    st.builds(_open_bspline, _net, st.sampled_from([2, 3]), _ticks),
    st.builds(_closed_random_bspline, st.lists(_point, min_size=4, max_size=7)),
    st.builds(
        _closed_bspline,
        _coord, _coord,
        st.floats(0.05, 0.4), st.floats(0.05, 0.4), st.floats(0.0, 6.0),
    ),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return exc


def _check_against_reference(a, b, got, want, tol):
    if isinstance(want, OverlapError) and a is not b:
        assert isinstance(got, OverlapError)
        return
    if isinstance(got, GeometryError):
        # only where the reference overflowed too, with the same error: a
        # self pair's overflow is never read as a coincidence
        assert type(got) is type(want)
        return
    for h in got:
        assert np.linalg.norm(a.point(h.t_a) - b.point(h.t_b)) <= tol
    if isinstance(want, list) and not any(h.tangential for h in want):
        points = [h.point for h in want]
        if all(np.linalg.norm(p - q) > tol for i, p in enumerate(points) for q in points[:i]):
            assert len(got) == len(want)
            for h in got:
                assert min(np.linalg.norm(h.point - p) for p in points) <= tol


@st.composite
def _curve_pairs(draw):
    a = draw(_spline_curve)
    if draw(st.integers(0, 9)) == 0:  # b shares a stretch of a
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        b = a.restricted(lo, hi) if hi - lo > 0.05 else a.reversed()
    else:
        b = draw(_spline_curve)
    return a, b, draw(st.sampled_from([DEFAULT_TOL, 1e-4]))


@settings(max_examples=80, deadline=None)
@given(_curve_pairs())
def test_clipping_matches_subdivision_on_pairs(case):
    a, b, tol = case
    want = _outcome(_reference_generic_intersections, a, b, tol)
    got = _outcome(intersect_curve_pair, a, b, tol)
    _check_against_reference(a, b, got, want, tol)


@settings(max_examples=80, deadline=None)
@given(_spline_curve, st.sampled_from([DEFAULT_TOL, 1e-4]))
def test_clipping_matches_subdivision_on_self_intersections(c, tol):
    want = _outcome(_reference_self_intersections, c, tol)
    got = _outcome(intersect_curve_pair, c, c, tol)
    _check_against_reference(c, c, got, want, tol)


# ---------------------------------------------------------------------------
# Newton refinement on the span nets against the scalar code it replaced


def _reference_newton_refine(a, b, s, t, scale):
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


def _refined_candidates(a, b, tol):
    """The (s, t, scale) of every candidate that clipping hands to Newton."""
    seen, refine = [], arrangement._newton_refine

    def record(a_, b_, s, t, scale):
        seen.append((s, t, scale))
        return refine(a_, b_, s, t, scale)

    with mock.patch.object(arrangement, "_newton_refine", record):
        _outcome(intersect_curve_pair, a, b, tol)
    return seen


_tol = st.sampled_from([DEFAULT_TOL, 1e-4])


def _self_case(c, tol):
    return c, c, tol


def _sine(a, b, s, t):
    """Sine of the angle between a at s and b at t."""
    da, db = a.deriv(s), b.deriv(t)
    return abs(da[0] * db[1] - da[1] * db[0]) / max(np.linalg.norm(da) * np.linalg.norm(db), 1e-300)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_curve_pairs(), st.builds(_self_case, _spline_curve, _tol)))
def test_net_refinement_reaches_the_scalar_roots(case):
    # Where the reference meets tol, so does the net refinement.  Where it
    # does not, neither does the net refinement, except where the curves
    # run together: there the reference's least-squares step on a Jacobian
    # singular to roundoff can stall and the rank-one step need not.  The
    # roots agree to 1e-9 scale where both reach Newton's 1e-12 scale target
    # at crossings with sine >= 1e-3, which pins a root that closely;
    # tangential and coincident contacts have a continuum of roots, where
    # roundoff decides which one Newton ends on.
    a, b, tol = case
    cands = _refined_candidates(a, b, tol)
    for s0, t0, scale in cands[:: max(1, len(cands) // 12)]:
        rs, rt, rres = _reference_newton_refine(a, b, s0, t0, scale)
        s, t, res = arrangement._newton_refine(a, b, s0, t0, scale)
        if rres <= tol:
            assert res <= tol
        elif res <= tol:
            assert _sine(a, b, s, t) < 1e-6
        if max(res, rres) <= 1e-12 * scale and min(_sine(a, b, rs, rt), _sine(a, b, s, t)) >= 1e-3:
            assert np.linalg.norm(a.point(s) - a.point(rs)) <= 1e-9 * scale
            assert np.linalg.norm(b.point(t) - b.point(rt)) <= 1e-9 * scale


def test_seam_contact_is_one_tangential_hit():
    # the closed curve runs up the line x = 0 through its seam at (0, 0)
    # and curves away to the right on both sides: one tangential contact
    closed = ParamCurve(
        "bspline",
        [(0, 0), (0, 0.3), (0.5, 0.6), (1, 0), (0.5, -0.6), (0, -0.3), (0, 0)],
        degree=3, knots=[0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1],
    )
    line = ParamCurve("bezier", [(0, -0.5), (0, 0.1), (0, 0.5)])
    for a, b in ((closed, line), (line, closed)):
        hits = intersect_curve_pair(a, b, 1e-7)
        assert len(hits) == 1
        assert hits[0].tangential
        assert np.linalg.norm(hits[0].point) <= 1e-7


def test_doubling_back_curve_refines_each_candidate_once(monkeypatch):
    # the first span runs out along y = 0 and back, and the second leaves
    # it within 1e-7: hundreds of candidates along one stretch of contact
    c = ParamCurve(
        "bspline", [(0.875, 0), (0, 0), (0, 0), (0.5, 0), (0, 0.171)],
        degree=3, knots=[0, 0, 0, 0, 0.05, 1, 1, 1, 1],
    )
    calls, refine = [], arrangement._newton_refine

    def counted(a, b, s, t, scale):
        calls.append((s, t))
        return refine(a, b, s, t, scale)

    monkeypatch.setattr(arrangement, "_newton_refine", counted)
    hits = intersect_curve_pair(c, c)
    assert len(calls) == len(set(calls)) > 256  # the squeeze ran, and no candidate twice
    assert len(hits) == 8
    for h in hits:
        assert np.linalg.norm(c.point(h.t_a) - c.point(h.t_b)) <= DEFAULT_TOL
    # a dense polyline confirms every hit: two of its stretches, farther
    # apart in parameter than the self-pair gap, pass within tol of it
    dense = np.linspace(0.0, 1.0, 200001)
    poly = c.point(dense)
    confirmed = [
        h for h in hits
        if h.t_b - h.t_a > 1e-3 and all(
            _polyline_gap(poly[np.abs(dense - t) <= 1e-4], h.point) <= DEFAULT_TOL
            for t in (h.t_a, h.t_b)
        )
    ]
    assert len(confirmed) == 8
    points = [h.point for h in hits]  # eight distinct points
    assert all(np.linalg.norm(p - q) > DEFAULT_TOL
               for i, p in enumerate(points) for q in points[:i])


def _polyline_gap(poly, p):
    """Distance from p to a polyline given as an (n, 2) vertex array."""
    seg = poly[1:] - poly[:-1]
    u = np.clip(np.sum((p - poly[:-1]) * seg, axis=1) / np.sum(seg * seg, axis=1), 0.0, 1.0)
    return float(np.min(np.linalg.norm(poly[:-1] + u[:, None] * seg - p, axis=1)))


# ---------------------------------------------------------------------------
# the clip stage against the code it replaced


def _reference_split(net, u):
    """de Casteljau at local parameter u: the nets of [0, u] and [u, 1]."""
    v = 1.0 - u
    left, right, pts = [net[0]], [net[-1]], net
    while len(pts) > 1:
        pts = [(v * x0 + u * x1, v * y0 + u * y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        left.append(pts[0])
        right.append(pts[-1])
    return left, right[::-1]


def _reference_clip(p, q, pad):
    """Fat-line clip of p against q with min() and max() over the hull and
    both halves of every split."""
    (x0, y0), (x1, y1) = q[0], q[-1]
    nx, ny = y0 - y1, x1 - x0
    norm = math.hypot(nx, ny)
    if norm == 0.0:
        return 0.0, 1.0, p
    nx, ny = nx / norm, ny / norm
    dq = [(x - x0) * nx + (y - y0) * ny for x, y in q]
    lo, hi = min(dq) - pad, max(dq) + pad
    n = len(p) - 1
    hull = [(i / n, (x - x0) * nx + (y - y0) * ny) for i, (x, y) in enumerate(p)]
    u0, u1 = 1.0, 0.0
    for i, (ui, di) in enumerate(hull):
        if lo <= di <= hi:
            u0, u1 = min(u0, ui), max(u1, ui)
        for uj, dj in hull[i + 1 :]:
            for level in (lo, hi):
                if (di - level) * (dj - level) < 0.0:
                    u = ui + (uj - ui) * (level - di) / (dj - di)
                    u0, u1 = min(u0, u), max(u1, u)
    u0, u1 = max(u0, 0.0), min(u1, 1.0)
    if u0 <= u1 and u1 < 1.0:
        p = _reference_split(p, u1)[0]
    if 0.0 < u0 <= u1:
        p = _reference_split(p, u0 / u1)[1]
    return u0, u1, p


@st.composite
def _clip_cases(draw):
    """Nets p and q of degree 1 to 4 on grid or free coordinates, q's chord
    of zero length one time in eight, and a pad."""
    p, q = (draw(st.lists(_point, min_size=d + 1, max_size=d + 1))
            for d in (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if draw(st.integers(0, 7)) == 0:
        q[-1] = q[0]
    return p, q, draw(st.sampled_from([DEFAULT_TOL, 1e-4, _T]))


@settings(max_examples=300, deadline=None)
@given(_clip_cases(), st.floats(0.0, 1.0))
@example(([(0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (0.0, 0.0)], _T), 0.5)  # zero-length chord
@example(([(0.0, 0.0), (1.0, 1.0)], [(-1.0, 0.0), (1.0, 0.0)], _T), 0.5)  # clip ends at u = 0
@example(([(1.0, 1.0), (0.5, 0.5), (0.0, 0.0)], [(-1.0, 0.0), (1.0, 0.0)], _T), 0.5)  # at u = 1
@example(([(0.0, -1.0), (0.5, 1.0), (1.0, -1.0)], [(-1.0, 0.0), (1.0, 0.0)], _T), 0.0)  # inside
def test_clip_and_split_equal_the_reference_bit_for_bit(case, u):
    p, q, pad = case
    assert repr(arrangement._clip(p, q, pad)) == repr(_reference_clip(p, q, pad))
    left, right = _reference_split(p, u)
    assert repr(arrangement._split(p, u)) == repr((left, right))
    assert repr(arrangement._half(p, u, 0)) == repr(left)
    assert repr(arrangement._half(p, u, -1)) == repr(right)


def _bits(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return [(repr(h.t_a), repr(h.t_b), h.point.tobytes(), h.tangential) for h in outcome]


@settings(max_examples=80, deadline=None)
@given(_spline_curve, st.sampled_from([DEFAULT_TOL, 1e-4]))
def test_adjacent_span_test_drops_no_self_hit(c, tol):
    got = _outcome(intersect_curve_pair, c, c, tol)
    with mock.patch.object(arrangement, "_adjacent_apart", lambda *args: False):
        full = _outcome(intersect_curve_pair, c, c, tol)
    if isinstance(full, GeometryError) and not isinstance(got, GeometryError):
        # the full loop overflowed on a pair that the test dropped
        _check_against_reference(c, c, got, _outcome(_reference_self_intersections, c, tol), tol)
    else:
        assert _bits(got) == _bits(full)


def test_adjacent_spans_of_a_circle_are_not_clipped():
    # every pair of neighbouring spans is dropped, the seam pair is not
    c = _closed_bspline(0.5, 0.5, 0.25, 0.25, 0.0)
    seen = []

    def record(a, b, pairs, tol, gap=None):
        seen.extend((s0, s1, t0, t1) for s0, s1, _, _, t0, t1, _, _ in pairs)
        return []

    with mock.patch.object(arrangement, "_clip_intersections", record):
        intersect_curve_pair(c, c, DEFAULT_TOL)
    (a0, a1), brk = c.domain, c.breakpoints().tolist()
    assert not [pair for pair in seen if pair[1] == pair[2]]
    assert (a0, brk[1], brk[-2], a1) in seen
    assert intersect_curve_pair(c, c, DEFAULT_TOL) == []


def test_a_root_at_negative_zero_reads_positive_zero():
    # np.mean([-0.0]) is +0.0, and a group of one root keeps that
    arch, line = quadratic_arch(), segment((0.0, -1.0), (0.0, 1.0))
    (hit,) = arrangement._roots_to_hits(arch, line, [(-0.0, 0.5, 0.0)], DEFAULT_TOL)
    assert math.copysign(1.0, hit.t_a) == 1.0 and hit.t_b == 0.5
