"""Dangling-node purge, angle selection, face traversal and classification."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curveplan.arrangement import build_drawing
from curveplan.curves import ParamCurve, signed_curvature, tangent_into_interior
from curveplan.errors import CurveplanError, DegenerateTangentError, TieBreakError
from curveplan.quadrature import gauss01
from curveplan.regions import (
    ANGLE_TIE,
    CURVATURE_TIE,
    angle_between,
    classify_regions,
    extract_and_classify,
    extract_regions,
    halfedge_table,
    next_halfedge,
    purge_dangling_nodes,
)
from curveplan.serialize import curves_from_json, map_from_dict
from curveplan.splines import build_interface_drawing

from arrangement_oracle import SegmentArrangement
from util import circle_bspline, quadratic_arch, segment, square_curves

TWO_PI = 2.0 * math.pi


def _edge_between(drawing, pa, pb, tol=1e-9):
    """Signed id of the half-edge from the vertex at pa to the vertex at pb."""
    def vid_at(p):
        for vid, v in drawing.vertices.items():
            if np.linalg.norm(v.position - np.asarray(p, float)) <= tol:
                return vid
        raise AssertionError(f"no vertex at {p}")

    va, vb = vid_at(pa), vid_at(pb)
    for se in drawing.pi[va]:
        if drawing.target(se) == vb:
            return se
    raise AssertionError(f"no half-edge {pa} -> {pb}")


# -- purge -------------------------------------------------------------------


def test_purge_whisker_cascade():
    curves = square_curves() + [
        segment((0.5, 0), (0.5, -1)),
        segment((0.25, -0.5), (0.75, -0.5)),
    ]
    d = build_drawing(curves)
    assert len(d.vertices) == 6  # 4 corners + attachment + whisker crossing
    p = purge_dangling_nodes(d)
    assert len(p.vertices) == 5
    assert len(p.edges) == 5  # bottom side split in two, whisker gone
    attach = [v for v in p.vertices.values() if np.allclose(v.position, [0.5, 0])]
    assert len(attach) == 1
    assert len(p.pi[attach[0].id]) == 2


def test_purge_cascade_to_empty():
    curves = [
        segment((0, 0), (1, 0)),
        segment((0, -1), (0, 1)),
        segment((1, -1), (1, 1)),
    ]
    p = purge_dangling_nodes(build_drawing(curves))
    assert len(p.vertices) == 0 and len(p.edges) == 0


def test_purge_square_fixed_point_and_idempotence():
    d = build_drawing(square_curves())
    p = purge_dangling_nodes(d)
    assert sorted(p.vertices) == sorted(d.vertices)
    assert sorted(p.edges) == sorted(d.edges)
    pp = purge_dangling_nodes(p)
    assert sorted(pp.vertices) == sorted(p.vertices) and sorted(pp.edges) == sorted(
        p.edges
    )


def test_seam_loop_not_dangling():
    loop = circle_bspline(n_ctrl=16, n_samples=256)
    p = purge_dangling_nodes(build_drawing([loop]))
    assert len(p.vertices) == 1 and len(p.edges) == 1


def _purge_by_rounds(drawing):
    """The round-based purge the queue replaced: each round rebuilds every
    incident set and drops the dangling vertices with their edges; the
    result's path lists are sorted anew."""
    from curveplan.arrangement import Drawing

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
            return Drawing(drawing.curves, {vid: drawing.vertices[vid] for vid in keep_v},
                           {eid: drawing.edges[eid] for eid in keep_e})
        keep_v.difference_update(dangling)
        keep_e.difference_update(*(incident[vid] for vid in dangling))


@st.composite
def _whisker_trees(draw):
    """A unit square with trees of whiskers hung on its corners and on each
    other; a whisker may carry a loop or a second edge to its parent (both
    keep it and its path to the square), and some vertices are isolated."""
    vertices = {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 1.0), 4: (0.0, 1.0)}
    edges = {k: (segment(vertices[k], vertices[k % 4 + 1]), k, k % 4 + 1) for k in range(1, 5)}
    for kind in draw(st.lists(st.sampled_from(["whisker"] * 4 + ["loop", "double", "isolated"]),
                              max_size=16)):
        vid = len(vertices) + 1
        vertices[vid] = (0.5 + 0.1 * vid, -0.1 * vid)
        if kind == "isolated":
            continue
        parent = draw(st.integers(1, vid - 1))
        for _ in range(1 + (kind == "double")):
            edges[len(edges) + 1] = (segment(vertices[parent], vertices[vid]), parent, vid)
        if kind == "loop":
            p = np.asarray(vertices[vid])
            loop = ParamCurve("bezier", [p, p + (0.05, -0.1), p + (0.1, -0.05), p])
            edges[len(edges) + 1] = (loop, vid, vid)
    return _hand_drawing(vertices, edges)


@settings(max_examples=100, deadline=None)
@given(_whisker_trees())
def test_queue_purge_equals_round_purge_on_whisker_trees(drawing):
    got, want = purge_dangling_nodes(drawing), _purge_by_rounds(drawing)
    assert set(got.vertices) == set(want.vertices) and set(got.edges) == set(want.edges)
    assert {1, 2, 3, 4} <= set(got.vertices)
    assert got.pi == want.pi


def test_purge_strips_a_long_chain_to_empty():
    # a zig-zag of 4,000 segments meeting end to end is one path of 3,998
    # edges; every vertex is stripped, from both ends inwards
    pts = [(i / 4000, (i % 2) / 4000) for i in range(4001)]
    d = build_drawing([segment(p, q) for p, q in zip(pts, pts[1:])])
    assert len(d.edges) == 3998
    p = purge_dangling_nodes(d)
    assert len(p.vertices) == 0 and len(p.edges) == 0


# -- angles ------------------------------------------------------------------


def test_angle_square_corner():
    d = build_drawing(square_curves())
    arrive = _edge_between(d, (0, 0), (1, 0))  # along the bottom edge
    up = _edge_between(d, (1, 0), (1, 1))
    v1 = d.target(arrive)
    assert abs(angle_between(d, arrive, up, v1) - 3 * math.pi / 2) < 1e-12
    assert angle_between(d, arrive, -arrive, v1) == 0.0


def test_angle_quarter_turn():
    # arrival interior tangent (-1,0), candidate tangent (0,-1): CCW from
    # angle pi to angle 3pi/2 is pi/2
    d = _hand_drawing(
        {1: (0, 0), 2: (-1, 0), 3: (0, -1)},
        {1: (segment((-1, 0), (0, 0)), 2, 1), 2: (segment((0, 0), (0, -1)), 1, 3)},
    )
    assert abs(angle_between(d, 1, 2, 1) - math.pi / 2) < 1e-12
    assert angle_between(d, 1, -1, 1) == 0.0  # twin convention


def test_angle_examples_cross():
    # X drawing: square plus both diagonals; center vertex (0.5, 0.5)
    curves = square_curves() + [
        segment((0, 0), (1, 1)),
        segment((0, 1), (1, 0)),
    ]
    d = build_drawing(curves)
    arrive = _edge_between(d, (0, 0), (0.5, 0.5))
    ne = _edge_between(d, (0.5, 0.5), (1, 1))
    nw = _edge_between(d, (0.5, 0.5), (0, 1))
    se = _edge_between(d, (0.5, 0.5), (1, 0))
    c = d.target(arrive)
    assert abs(angle_between(d, arrive, ne, c) - math.pi) < 1e-12
    assert abs(angle_between(d, arrive, nw, c) - 3 * math.pi / 2) < 1e-12
    assert abs(angle_between(d, arrive, se, c) - math.pi / 2) < 1e-12
    # enumeration oracle: the maximal CCW angle is the leftmost branch (NW)
    assert next_halfedge(d, c, arrive, d.pi[c]) == nw


def test_next_halfedge_square_interior():
    d = build_drawing(square_curves())
    arrive = _edge_between(d, (0, 0), (1, 0))
    up = _edge_between(d, (1, 0), (1, 1))
    v = d.target(arrive)
    assert next_halfedge(d, v, arrive, d.pi[v]) == up


def test_next_halfedge_twin_when_sole():
    d = build_drawing(square_curves())
    arrive = _edge_between(d, (0, 0), (1, 0))
    v = d.target(arrive)
    assert next_halfedge(d, v, arrive, [-arrive]) == -arrive


def test_next_halfedge_ranks_a_candidate_along_the_twin_by_its_side():
    # the arrival runs from (1, 0) into the vertex, so its twin leaves along
    # +x, and so does a quadratic: curving right of the twin it is the first
    # half-edge clockwise from it, ahead of the segment up; curving left it
    # is the last, behind the segment
    twin = segment((0, 0), (1, 0))
    up = segment((0, 0), (0, 1))
    for end, chosen in (((1, -1), 2), ((1, 1), 3)):
        bend = ParamCurve("bezier", [(0, 0), (0.5, 0), end])
        d = _hand_drawing(
            {1: (0, 0), 2: (1, 0), 3: end, 4: (0, 1)},
            {1: (twin, 1, 2), 2: (bend, 1, 3), 3: (up, 1, 4)},
        )
        assert next_halfedge(d, 1, -1, d.pi[1]) == chosen
        assert angle_between(d, -1, 2, 1) == (TWO_PI if chosen == 2 else 0.0)


def _hand_drawing(vertex_positions, edge_specs):
    """Assemble a Drawing directly from exact vertex/edge data.

    Useful for tangency corner cases where tolerance-true intersection
    would smear the vertex positions.
    """
    from curveplan.arrangement import Drawing, Edge, Vertex

    vertices = {
        vid: Vertex(vid, np.asarray(pos, float), hits=[(0, 0.0)])
        for vid, pos in vertex_positions.items()
    }
    edges = {}
    for eid, (curve, v_from, v_to) in edge_specs.items():
        edges[eid] = Edge(eid, 0, 0.0, 1.0, v_from, v_to, curve)
    return Drawing([], vertices, edges)


def test_curvature_tie_break():
    # two edges leave the vertex with identical tangent (1,0) but curvatures
    # +2 and -2; the larger leftward curvature must win the tie
    up = ParamCurve("bezier", [(0, 0), (0.5, 0), (1, 1)])  # curvature +2 at t=0
    dn = ParamCurve("bezier", [(0, 0), (0.5, 0), (1, -1)])  # curvature -2 at t=0
    stem = segment((-1, 0), (0, 0))
    d = _hand_drawing(
        {1: (0, 0), 2: (1, 1), 3: (1, -1), 4: (-1, 0)},
        {1: (up, 1, 2), 2: (dn, 1, 3), 3: (stem, 4, 1)},
    )
    arrive = 3  # along the stem into the vertex
    chosen = next_halfedge(d, 1, arrive, [1, 2])
    assert chosen == 1


def test_curvature_tie_unresolvable_raises():
    # same tangent and same curvature at the vertex: hard error
    a = ParamCurve("bezier", [(0, 0), (0.5, 0), (1, 1)])
    b = ParamCurve("bezier", [(0, 0), (1.0 / 3.0, 0), (2.0 / 3.0, 1.0 / 3.0), (0.8, 1.2)])
    stem = segment((-1, 0), (0, 0))
    d = _hand_drawing(
        {1: (0, 0), 2: (1, 1), 3: (0.8, 1.2), 4: (-1, 0)},
        {1: (a, 1, 2), 2: (b, 1, 3), 3: (stem, 4, 1)},
    )
    with pytest.raises(TieBreakError):
        next_halfedge(d, 1, 3, [1, 2])


def _fan(thetas, ys):
    """Quadratics y = y_k x^2 on [0, 1] leaving the origin at tangent angles
    ``thetas``, their ends joined by segments down x = 1 and closed by
    segments through (-1, -1)."""
    k = len(ys)
    vertices = {1: (0, 0), k + 2: (-1, -1), **{i + 2: (1, y) for i, y in enumerate(ys)}}
    edges = {
        i + 1: (ParamCurve("bezier", [(0, 0), (0.5 * math.cos(t), 0.5 * math.sin(t)), (1, y)]), 1, i + 2)
        for i, (t, y) in enumerate(zip(thetas, ys))
    }
    down = sorted(range(k), key=lambda i: -ys[i]) + [k]
    for a, b in zip(down, down[1:]):
        edges[len(edges) + 1] = (segment(vertices[a + 2], vertices[b + 2]), a + 2, b + 2)
    edges[len(edges) + 1] = (segment((-1, -1), (0, 0)), k + 2, 1)
    return _hand_drawing(vertices, edges)


def test_walk_orders_near_tangent_edges_by_curvature():
    # three half-edges leave the vertex 0.7e-9 apart, each within ANGLE_TIE
    # of the next but not of the one after: they form one tie group, which
    # runs by curvature against their order by angle
    rs = extract_and_classify(_fan([0.0, 0.7e-9, 1.4e-9], [0.5, 0.0, -0.5]))
    areas = sorted(r.signed_area for r in rs.regions)
    assert np.allclose(areas, [1 / 6, 1 / 6, 5 / 6], rtol=0, atol=1e-9)
    assert len(rs.outer) == 1 and abs(rs.outer[0].signed_area + 7 / 6) < 1e-9


@st.composite
def _tangent_fans(draw):
    """3-6 quadratics leaving one vertex at tangent angles spaced below, at
    or above ANGLE_TIE.  Curvature 2 y grows counterclockwise between
    half-edges spaced at or above ANGLE_TIE, as a drawing without crossings
    needs; within a run of closer spacings it comes in any order."""
    k = draw(st.integers(3, 6))
    steps = draw(st.lists(st.sampled_from([0.3, 0.7, 1.0, 1.3, 2.0, 1e3]), min_size=k - 1, max_size=k - 1))
    thetas = list(np.cumsum([0.0] + steps) * ANGLE_TIE)
    runs = list(np.cumsum([0] + [s >= 1.0 for s in steps]))
    shuffle = draw(st.permutations(range(k)))
    rank = sorted(range(k), key=lambda i: (runs[i], shuffle[i]))
    ys = sorted(y / 8 for y in draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k, unique=True)))
    return thetas, [ys[rank.index(i)] for i in range(k)]


@settings(max_examples=100, deadline=None)
@given(_tangent_fans())
def test_near_tangent_fans_classify(fan):
    got = _or_error(extract_regions, _fan(*fan))
    if isinstance(got, tuple):
        assert got[0] is TieBreakError, got
        return
    classified = _check_trails_and_areas(got)
    assert classified is not None
    interior = sum(r.signed_area for r in classified.regions)
    assert abs(interior + sum(r.signed_area for r in classified.outer)) < 1e-9


# -- extraction --------------------------------------------------------------


def test_extract_square():
    rs = extract_and_classify(build_drawing(square_curves()))
    assert len(rs.regions) == 1 and len(rs.outer) == 1
    assert len(rs.regions[0].trail) == 4
    assert abs(rs.regions[0].signed_area - 1.0) < 1e-12
    assert abs(rs.outer[0].signed_area + 1.0) < 1e-12
    assert abs(rs.regions[0].turning - TWO_PI) < 1e-6
    assert abs(rs.outer[0].turning + TWO_PI) < 1e-6


def test_extract_square_plus_diagonal():
    curves = square_curves() + [segment((0, 0), (1, 1))]
    rs = extract_and_classify(build_drawing(curves))
    # shoelace oracle: both triangles have area 1/2
    assert len(rs.regions) == 2 and len(rs.outer) == 1
    areas = sorted(r.signed_area for r in rs.regions)
    assert np.allclose(areas, [0.5, 0.5], atol=1e-12)


def test_extract_lone_loop_two_single_pair_regions():
    loop = circle_bspline(n_ctrl=24, n_samples=512)
    rs = extract_and_classify(build_drawing([loop]))
    assert len(rs.regions) == 1 and len(rs.outer) == 1
    assert len(rs.regions[0].trail) == 1
    assert len(rs.outer[0].trail) == 1
    assert abs(rs.regions[0].signed_area - math.pi) < 1e-3


def test_classify_arch_bigon():
    # closed-form oracle: area under y = 2x(1-x) over [0,1] is 1/3
    curves = [quadratic_arch(), segment((0, 0), (1, 0))]
    rs = extract_and_classify(build_drawing(curves))
    assert len(rs.regions) == 1
    assert abs(rs.regions[0].signed_area - 1.0 / 3.0) < 1e-12
    assert abs(rs.outer[0].signed_area + 1.0 / 3.0) < 1e-12


def test_halfedge_conservation_and_euler():
    curves = square_curves() + [
        segment((0, 0), (1, 1)),
        segment((0.5, -0.2), (0.5, 1.2)),
    ]
    d = build_drawing(curves)
    rs = extract_and_classify(d)
    purged = rs.drawing
    total_pairs = sum(len(r.trail) for r in rs.all_regions())
    assert total_pairs == 2 * len(purged.edges)
    comps = purged.components()
    assert len(comps) == 1
    v, e = len(purged.vertices), len(purged.edges)
    assert v - e + len(rs.regions) + len(rs.outer) == 2


def test_exactly_one_outer_per_component():
    far_square = square_curves(size=1.0, origin=(5.0, 5.0))
    rs = extract_and_classify(build_drawing(square_curves() + far_square))
    assert len(rs.outer) == 2
    assert len(rs.regions) == 2


def test_area_conservation_polyline():
    curves = square_curves() + [segment((-0.5, 0.5), (1.5, 0.5))]
    rs = extract_and_classify(build_drawing(curves))
    interior = sum(r.signed_area for r in rs.regions)
    outer = sum(r.signed_area for r in rs.outer)
    assert abs(interior + outer) < 1e-9


def test_multiedge_and_twin_loops_at_one_vertex():
    # two vertices joined by THREE edges (a multigraph adjacency no simple
    # adjacency matrix could store), plus two loops hanging off one vertex
    a, b = (0.0, 0.0), (2.0, 0.0)
    line = segment(a, b)
    arc_up = ParamCurve("bezier", [a, (1, 1.2), b])
    arc_dn = ParamCurve("bezier", [a, (1, -1.2), b])
    loop_up = ParamCurve("bezier", [a, (-2.5, 0.8), (-0.8, 2.5), a])
    loop_dn = ParamCurve("bezier", [a, (-2.5, -0.8), (-0.8, -2.5), a])
    d = build_drawing([line, arc_up, arc_dn, loop_up, loop_dn])

    assert len(d.vertices) == 2
    assert len(d.edges) == 5
    va = _vid_at(d, a)
    vb = _vid_at(d, b)
    assert len(d.pi[va]) == 7  # 3 outgoing + two loops contributing 2 each
    assert len(d.pi[vb]) == 3
    # a closed curve through one vertex lists it at both parameter ends
    assert d.curve_vertices(3) == [va, va]
    assert d.curve_vertices(4) == [va, va]

    rs = extract_and_classify(d)
    assert len(rs.regions) == 4  # two lenses + two loop interiors
    assert len(rs.outer) == 1
    assert sum(len(r.trail) for r in rs.all_regions()) == 2 * len(d.edges)
    assert sorted(len(r.trail) for r in rs.regions) == [1, 1, 2, 2]
    assert len(rs.outer[0].trail) == 4
    # Euler on the single component: 2 - 5 + (4 + 1) = 2
    assert len(d.vertices) - len(d.edges) + len(rs.all_regions()) == 2
    # both lenses bound the same area by symmetry
    lens_areas = sorted(r.signed_area for r in rs.regions)[2:]
    assert abs(lens_areas[0] - lens_areas[1]) < 1e-12


def _vid_at(drawing, p, tol=1e-9):
    for vid, v in drawing.vertices.items():
        if np.linalg.norm(v.position - np.asarray(p, float)) <= tol:
            return vid
    raise AssertionError(f"no vertex at {p}")


def test_wrap_edge_regions_match_circular_segment_oracle():
    # a chord splits a closed spline circle; one piece of the circle must
    # cross the curve's seam, and both region areas must match the analytic
    # circular-segment values (up to the circle-approximation error)
    loop = circle_bspline(radius=1.0, n_ctrl=48, n_samples=1024)
    chord = segment((0.5, -2), (0.5, 2))
    rs = extract_and_classify(build_drawing([loop, chord]))
    assert len(rs.regions) == 2 and len(rs.outer) == 1
    areas = sorted(r.signed_area for r in rs.regions)
    # minor segment at x > 1/2: r^2 * (theta - sin theta) / 2, theta = 2*pi/3
    theta = 2.0 * math.acos(0.5)
    minor = 0.5 * (theta - math.sin(theta))
    major = math.pi - minor
    assert abs(areas[0] - minor) < 1e-6
    assert abs(areas[1] - major) < 1e-6
    # tiling the wrap-edge region reproduces the boundary-integral area
    from curveplan.quadrature import integrate_region

    for region in rs.regions:
        got = integrate_region(region, lambda x, y: 1.0, 6, drawing=rs.drawing)
        assert abs(got - region.signed_area) < 1e-9


def test_empty_input_empty_drawing():
    rs = extract_and_classify(build_drawing([]))
    assert rs.regions == [] and rs.outer == []
    # a lone segment has no vertices at all
    rs = extract_and_classify(build_drawing([segment((0, 0), (1, 1))]))
    assert rs.regions == [] and rs.outer == []


def test_random_segment_arrangements_match_oracle():
    rng = np.random.default_rng(2024)
    done = 0
    while done < 12:
        n = int(rng.integers(3, 8))
        coords = rng.integers(0, 33, size=(n, 4))
        segs = [((int(a), int(b)), (int(c), int(d))) for a, b, c, d in coords]
        try:
            oracle = SegmentArrangement(segs)
        except Exception:
            continue
        gap = oracle.min_vertex_gap_squared()
        if gap is not None and float(gap) < 1e-8:
            continue
        done += 1
        scale = 32.0
        curves = [
            segment((p[0] / scale, p[1] / scale), (q[0] / scale, q[1] / scale))
            for p, q in segs
        ]
        rs = extract_and_classify(build_drawing(curves))
        got = sorted(r.signed_area * scale * scale for r in rs.regions)
        want = [float(a) for a in oracle.interior_areas()]
        assert len(got) == len(want)
        assert np.allclose(got, want, atol=1e-8)
        assert len(rs.outer) == oracle.outer_count()


# ---------------------------------------------------------------------------
# the half-edge table and the rotation-system walk against the scalar code

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def reference_tangent(drawing, se):
    return tangent_into_interior(drawing.oriented_geometry(se), 0.0, 1.0, "lo")


def reference_curvature(drawing, se):
    return signed_curvature(drawing.oriented_geometry(se), 0.0)


def _scalar_deriv(g, ts):
    """Derivatives one parameter at a time, on the scalar de Boor kernel."""
    return [g.deriv(float(t)) for t in ts]


def reference_direction_samples(drawing, se, m=8):
    """Turning samples of one half-edge as the code computed them before
    the table, evaluated per parameter on the scalar kernel."""
    g = drawing.oriented_geometry(se)
    t0 = reference_tangent(drawing, se)
    t1 = -reference_tangent(drawing, -se)
    angles = [math.atan2(t0[1], t0[0])]
    brk = g.breakpoints()
    floor = 1e-13 * max(g.bbox_diag(), 1.0)
    for u0, u1 in zip(brk[:-1], brk[1:]):
        for d in _scalar_deriv(g, np.linspace(u0, u1, m + 2)[1:-1]):
            if math.hypot(d[0], d[1]) > floor:
                angles.append(math.atan2(d[1], d[0]))
    angles.append(math.atan2(t1[1], t1[0]))
    return angles


def reference_edge_area(geometry):
    """Integral of (x y' - y x') dt over an edge, one Gauss node at a time."""
    nodes, weights = gauss01(geometry.degree + 1)
    total = 0.0
    brk = geometry.breakpoints()
    for u0, u1 in zip(brk[:-1], brk[1:]):
        ts = u0 + (u1 - u0) * nodes
        pts = [geometry.point(float(t)) for t in ts]
        for p, d, w in zip(pts, _scalar_deriv(geometry, ts), weights):
            total += w * (u1 - u0) * (p[0] * d[1] - p[1] * d[0])
    return total


def reference_angle(drawing, arrival, candidate):
    """The CCW angle from the arrival's twin; a candidate within ANGLE_TIE of
    the twin scores 0 if it curves left of the twin and 2pi if right."""
    if candidate == -arrival:
        return 0.0
    ta = reference_tangent(drawing, -arrival)
    tc = reference_tangent(drawing, candidate)
    a = float((math.atan2(tc[1], tc[0]) - math.atan2(ta[1], ta[0])) % TWO_PI)
    if a > ANGLE_TIE and TWO_PI - a > ANGLE_TIE:
        return a
    k, k_twin = reference_curvature(drawing, candidate), reference_curvature(drawing, -arrival)
    if abs(k - k_twin) <= CURVATURE_TIE:
        at = drawing.target(arrival)
        raise TieBreakError(f"outgoing edges at vertex {at} tie in angle and curvature")
    return 0.0 if k > k_twin else TWO_PI


def reference_next(drawing, at, arrival, unvisited):
    scored = [(reference_angle(drawing, arrival, se), se) for se in unvisited]
    best = max(a for a, _ in scored)
    tied = [se for a, se in scored if best - a <= ANGLE_TIE]
    if len(tied) == 1:
        return tied[0]
    curved = sorted(((reference_curvature(drawing, se), se) for se in tied), reverse=True)
    if curved[0][0] - curved[1][0] <= CURVATURE_TIE:
        raise TieBreakError(f"outgoing edges at vertex {at} tie in angle and curvature")
    return curved[0][1]


def reference_extract(drawing):
    """The face walk over per-vertex unvisited lists that the rotation-system
    walk replaced: the trails of the purged drawing, in walk order."""
    purged = purge_dangling_nodes(drawing)
    unvisited = {vid: list(lst) for vid, lst in purged.pi.items()}
    trails = []
    for vid in sorted(purged.vertices):
        while unvisited[vid]:
            start = unvisited[vid][0]
            trail = [(vid, start)]
            current = start
            while True:
                u = purged.target(current)
                nxt = reference_next(purged, u, current, unvisited[u])
                if nxt == start:
                    break
                trail.append((u, nxt))
                unvisited[u].remove(nxt)
                current = nxt
            unvisited[vid].remove(start)
            trails.append(trail)
    return trails


def reference_turning(drawing, trail):
    def wrap(x):
        return (x + math.pi) % TWO_PI - math.pi

    def corner(arrival, departure, turn):
        # a departure along the arrival's twin turns -pi if it curves left
        # of the twin and +pi if right
        score = reference_angle(drawing, arrival, departure)
        return -math.pi if score == 0.0 else math.pi if score == TWO_PI else wrap(turn)

    total, prev, prev_end, first_start = 0.0, None, None, None
    for _, se in trail:
        angles = reference_direction_samples(drawing, se)
        if prev_end is None:
            first_start = angles[0]
        else:
            total += corner(prev, se, angles[0] - prev_end)
        for a0, a1 in zip(angles[:-1], angles[1:]):
            total += wrap(a1 - a0)
        prev, prev_end = se, angles[-1]
    return total + corner(prev, trail[0][1], first_start - prev_end)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _or_error(fn, *args):
    try:
        return fn(*args)
    except CurveplanError as exc:
        return type(exc), str(exc)


def _check_table(drawing):
    """Every table entry is the bytes of the scalar code, or both raise."""
    table = halfedge_table(drawing)
    for eid, e in drawing.edges.items():
        assert _bits(table.area[eid]) == _bits(reference_edge_area(e.geometry))
        for se in (eid, -eid):
            for got, ref in (
                (table.tangent[se], reference_tangent),
                (table.curvature[se], reference_curvature),
                (table.samples[se], reference_direction_samples),
            ):
                want = _or_error(ref, drawing, se)
                if isinstance(want, tuple):
                    assert got is None and want[0] is DegenerateTangentError
                else:
                    assert got is not None and _bits(got) == _bits(want)
            t = table.tangent[se]
            assert table.angle[se] == (None if t is None else math.atan2(t[1], t[0]))


def _check_walk(drawing):
    """Same trails in the same order as the unvisited-list walk, or the same
    error; classified areas and turning equal the scalar sums bit for bit."""
    want = _or_error(reference_extract, drawing)
    got = _or_error(extract_regions, drawing)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert [r.trail for r in got.regions] == want
    classified = _check_trails_and_areas(got)
    for region in [] if classified is None else classified.all_regions():
        assert _bits(region.turning) == _bits(reference_turning(got.drawing, region.trail))


def _check_trails_and_areas(region_set):
    """Every half-edge of the purged drawing lies on exactly one trail, the
    table holds the scalar code's bits, and classified areas are the scalar
    sums bit for bit.  Returns the classified set, None if it raises."""
    purged = region_set.drawing
    on_trails = sorted(se for r in region_set.regions for _, se in r.trail)
    assert on_trails == sorted(se for eid in purged.edges for se in (eid, -eid))
    _check_table(purged)
    classified = _or_error(classify_regions, region_set)
    if isinstance(classified, tuple):
        return None
    for region in classified.all_regions():
        area = 0.0
        for _, se in region.trail:
            term = reference_edge_area(purged.edges[abs(se)].geometry)
            area += term if se > 0 else -term
        assert _bits(region.signed_area) == _bits(0.5 * area)
    return classified


def _json_curves(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return curves_from_json(fh.read())


def _interface(map1, map2):
    def load(name):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            return json.load(fh)

    def as_map(data):
        return map_from_dict(data["map"] if "map" in data else data)

    return build_interface_drawing(as_map(load(map1)), as_map(load(map2)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_drawing(_json_curves("extract_square_diagonal.json")),
        lambda: build_drawing(_json_curves("integrate_lens.json")),
        lambda: _interface("map_grid_2x2.json", "map_offset.json"),
        lambda: _interface("quasi_target.json", "quasi_source.json"),
        lambda: build_drawing(square_curves() + [segment((0, 0), (1, 1))]),
        lambda: build_drawing([circle_bspline(n_ctrl=24, n_samples=512)]),
        lambda: build_drawing([circle_bspline(), segment((0.5, -2), (0.5, 2))]),
        lambda: build_drawing([quadratic_arch(), segment((0, 0), (1, 0))]),
        lambda: build_drawing(square_curves() + square_curves(origin=(5.0, 5.0))),
    ],
)
def test_walk_and_table_equal_scalar_code_on_fixtures(make):
    _check_walk(make())


def test_walk_equals_reference_on_oracle_segment_sets():
    rng = np.random.default_rng(77)
    done = 0
    while done < 12:
        coords = rng.integers(0, 33, size=(int(rng.integers(3, 9)), 4))
        segs = [((int(a), int(b)), (int(c), int(d))) for a, b, c, d in coords]
        try:
            SegmentArrangement(segs)
        except Exception:
            continue
        done += 1
        curves = [segment((p[0] / 32, p[1] / 32), (q[0] / 32, q[1] / 32)) for p, q in segs]
        _check_walk(build_drawing(curves))


def _closed_bspline(cx, cy, rx, ry, phase):
    ang = phase + np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ctrl = np.column_stack([cx + rx * np.cos(ang), cy + ry * np.sin(ang)])
    ctrl = np.vstack([ctrl, ctrl[:1]])
    knots = np.concatenate([[0.0] * 4, np.linspace(0.0, 1.0, 7)[1:-1], [1.0] * 4])
    return ParamCurve("bspline", ctrl, degree=3, knots=knots)


def _open_bspline(pts):
    interior = np.linspace(0.0, 1.0, len(pts) - 2)[1:-1]
    knots = np.concatenate([[0.0] * 4, interior, [1.0] * 4])
    return ParamCurve("bspline", pts, degree=3, knots=knots)


_coord = st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0))
_point = st.tuples(_coord, _coord)
_curve = st.one_of(
    st.tuples(_point, _point).filter(lambda pq: pq[0] != pq[1]).map(lambda pq: segment(*pq)),
    st.lists(_point, min_size=4, max_size=4).map(lambda pts: ParamCurve("bezier", pts)),
    st.lists(_point, min_size=5, max_size=7).map(_open_bspline),
    st.builds(
        _closed_bspline,
        _coord, _coord, st.floats(0.1, 0.4), st.floats(0.1, 0.4), st.floats(0.0, 6.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_curve, min_size=2, max_size=6))
# a circle and an ellipse that touch tangentially near (0.07, 0.6) and share
# their seam point (0.55, 0.6)
@example([_closed_bspline(0.3, 0.6, 0.25, 0.25, 0.0), _closed_bspline(0.3, 0.6, 0.25, 0.125, 0.0)])
# two quadratics leave (0.5, 0.5) to the left, at angles pi and -pi + 4e-10:
# one tie group across the -pi/pi seam
@example([
    ParamCurve("bezier", [(0.5, 0.5), (0.25, 0.5), (0, 1)]),
    ParamCurve("bezier", [(0.5, 0.5), (0.25, 0.5 - 1e-10), (0, 0)]),
    segment((0.5, 0), (0.5, 1)),
    segment((0, 0), (0, 1)),
])
# a whisker through the top side of a square, crossed once more: its end
# vertex holds a single half-edge until the purge
@example(square_curves(0.5) + [segment((0.25, 0.25), (0.25, 0.75)), segment((0.125, 0.625), (0.375, 0.625))])
# two components
@example(square_curves(0.25) + square_curves(0.25, origin=(0.5, 0.5)))
# a closed quartic whose seam vertex has a vanishing tangent: both raise
@example([ParamCurve("bezier", [(0.5, 0.5), (0.5, 0.5), (1, 0.75), (0.75, 1), (0.5, 0.5)])])
def test_walk_and_table_equal_scalar_code_on_mixed_drawings(curves):
    drawing = _or_error(build_drawing, curves)
    if not isinstance(drawing, tuple):
        _check_walk(drawing)


@st.composite
def _wheels(draw):
    """A hub joined by spokes to a ring of vertices, with ring loops.

    Spokes are segments, or Bezier curves that leave the hub tangent to the
    next spoke: quadratics (an angle tie that curvature breaks), cubics
    without curvature there (a tie in curvature too where the next spoke is
    a segment) or with a vanishing tangent at the hub (a cusp).  Returns the
    drawing, the spoke kinds, the ring and the loops' areas."""
    n = draw(st.integers(3, 6))
    gaps = draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n))  # each < pi
    angles = np.cumsum(gaps) / sum(gaps) * TWO_PI + draw(st.floats(0.0, TWO_PI))
    ring = [(math.cos(a) * r, math.sin(a) * r) for a, r in zip(angles, draw(
        st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))]
    hub = np.zeros(2)
    edges, kinds = {}, []
    for k, p in enumerate(ring):
        p, nxt = np.asarray(p), np.asarray(ring[(k + 1) % n])
        kinds.append(draw(st.sampled_from(["segment", "tangent", "tangent", "straight", "cusp"])))
        s = draw(st.floats(0.05, 0.3))
        if kinds[-1] == "segment":
            spoke = segment(hub, p)
        elif kinds[-1] == "tangent":
            spoke = ParamCurve("bezier", [hub, hub + s * nxt, p])
        elif kinds[-1] == "straight":
            spoke = ParamCurve("bezier", [hub, hub + s * nxt, hub + 2 * s * nxt, p])
        else:
            spoke = ParamCurve("bezier", [hub, hub, p])
        edges[len(edges) + 1] = (spoke, 1, k + 2)
        edges[len(edges) + 1] = (segment(p, nxt), k + 2, (k + 1) % n + 2)
    loop_areas = []
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        p = np.asarray(ring[k])
        out = p / np.linalg.norm(p)
        side = np.array([-out[1], out[0]])
        loop = ParamCurve("bezier", [p, p + out + 0.4 * side, p + out - 0.4 * side, p])
        loop_areas.append(abs(0.5 * reference_edge_area(loop)))  # drawn clockwise
        edges[len(edges) + 1] = (loop, k + 2, k + 2)
    vertices = {1: hub, **{k + 2: p for k, p in enumerate(ring)}}
    return _hand_drawing(vertices, edges), kinds, np.asarray(ring), loop_areas


@settings(max_examples=150, deadline=None)
@given(_wheels())
def test_tangential_wheels_give_every_sector_and_loop(wheel):
    drawing, kinds, ring, loop_areas = wheel
    n = len(kinds)
    errors = set()
    if "cusp" in kinds:
        errors.add(DegenerateTangentError)
    if any(kinds[k - 1] == "straight" and kinds[k] == "segment" for k in range(n)):
        errors.add(TieBreakError)
    got = _or_error(extract_regions, drawing)
    if errors:
        # the scalar reference raises these too, where it meets them
        assert isinstance(got, tuple) and got[0] in errors, got
        want = _or_error(reference_extract, drawing)
        assert not isinstance(want, tuple) or want[0] in errors
        return
    assert not isinstance(got, tuple), got
    classified = _check_trails_and_areas(got)
    assert classified is not None
    assert len(classified.regions) == n + len(loop_areas) and len(classified.outer) == 1
    x, y = ring[:, 0], ring[:, 1]
    polygon = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert abs(sum(r.signed_area for r in classified.regions) - polygon - sum(loop_areas)) < 1e-9
    assert all(abs(r.turning - TWO_PI) < 1e-6 for r in classified.regions)
    assert abs(classified.outer[0].turning + TWO_PI) < 1e-6


def test_walk_raises_the_reference_tie_and_tangent_errors():
    # a hub whose spokes tie in angle and curvature, and one with a cusp
    tie_a = ParamCurve("bezier", [(0, 0), (0.5, 0), (1, 1)])
    tie_b = ParamCurve("bezier", [(0, 0), (1.0 / 3.0, 0), (2.0 / 3.0, 1.0 / 3.0), (0.8, 1.2)])
    ring = {2: (1, 1), 3: (0.8, 1.2), 4: (-1, 0)}
    spokes = {1: (tie_a, 1, 2), 2: (tie_b, 1, 3), 3: (segment((0, 0), (-1, 0)), 1, 4)}
    closing = {4: (segment((1, 1), (0.8, 1.2)), 2, 3), 5: (segment((0.8, 1.2), (-1, 0)), 3, 4),
               6: (segment((-1, 0), (1, 1)), 4, 2)}
    d = _hand_drawing({1: (0, 0), **ring}, {**spokes, **closing})
    assert _or_error(reference_extract, d)[0] is TieBreakError
    _check_walk(d)
    cusp = ParamCurve("bezier", [(0, 0), (0, 0), (1, 1)])
    d = _hand_drawing({1: (0, 0), **ring}, {**spokes, 1: (cusp, 1, 2), **closing})
    assert _or_error(reference_extract, d)[0] is DegenerateTangentError
    _check_walk(d)
