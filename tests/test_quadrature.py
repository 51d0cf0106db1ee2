"""Tiling, tensor Gauss integration and the adaptive doubling loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curveplan.arrangement import build_drawing
from curveplan.curves import ParamCurve
from curveplan.errors import GeometryError, TileError
from curveplan.quadrature import (
    BLOCK_NODES,
    Tile,
    Wedge,
    _TileStack,
    bernstein_table,
    gauss01,
    integrate_adaptive,
    integrate_region,
    integrate_tiles,
    tensor_rule,
    tile_region,
)
from curveplan.regions import extract_and_classify

from util import circle_bspline, quadratic_arch, segment, square_curves


def _square_regions():
    return extract_and_classify(build_drawing(square_curves()))


def _triangle_regions():
    curves = [
        segment((0, 0), (1, 0)),
        segment((1, 0), (0.5, 1)),
        segment((0.5, 1), (0, 0)),
    ]
    return extract_and_classify(build_drawing(curves))


def _bigon_regions():
    curves = [quadratic_arch(), segment((0, 0), (1, 0))]
    return extract_and_classify(build_drawing(curves))


#: a concave four-sided region: its bilinear Coons patch folds at (0.5, 1)
ARROWHEAD = [(0.0, 0.0), (2.0, 1.0), (0.0, 2.0), (0.5, 1.0)]


def _polygon_regions(corners):
    n = len(corners)
    curves = [segment(corners[k], corners[(k + 1) % n]) for k in range(n)]
    return extract_and_classify(build_drawing(curves))


def _pentagon_regions():
    angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    return _polygon_regions([(np.cos(a), np.sin(a)) for a in angles])


def _loop_regions():
    return extract_and_classify(build_drawing([circle_bspline(n_ctrl=12, n_samples=200)]))


def _shoelace(corners):
    """Area and first moment of x of a polygon."""
    xs, ys = np.array(corners, dtype=float).T
    cross = xs * np.roll(ys, -1) - np.roll(xs, -1) * ys
    return cross.sum() / 2, ((xs + np.roll(xs, -1)) * cross).sum() / 6


def test_rule_weights():
    for n in (1, 2, 3, 5, 8):
        rule = tensor_rule(n)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        u, w = gauss01(n)
        # 1-d rule with n points integrates t^(2n-1) exactly
        p = 2 * n - 1
        assert abs(np.dot(w, u**p) - 1.0 / (p + 1)) < 1e-13


def test_square_single_bilinear_tile():
    rs = _square_regions()
    tiles = tile_region(rs.regions[0], rs.drawing)
    assert len(tiles) == 1
    u = np.linspace(0.05, 0.95, 7)
    _, det = tiles[0].grids(u, u)
    assert np.allclose(det, 1.0, atol=1e-12)


def test_triangle_three_tiles():
    rs = _triangle_regions()
    tiles = tile_region(rs.regions[0], rs.drawing)
    assert len(tiles) == 3
    total = integrate_region(rs.regions[0], lambda x, y: 1.0, 4, drawing=rs.drawing)
    assert abs(total - 0.5) < 1e-12


def test_bigon_single_tile_after_midpoint_split():
    rs = _bigon_regions()
    tiles = tile_region(rs.regions[0], rs.drawing)
    assert len(tiles) == 1  # two boundary pieces split at midpoints -> 4 sides
    area = integrate_region(rs.regions[0], lambda x, y: 1.0, 4, drawing=rs.drawing)
    assert abs(area - 1.0 / 3.0) < 1e-9


def test_concave_quad_falls_back_to_wedges():
    rs = _polygon_regions(ARROWHEAD)
    region, drawing = rs.regions[0], rs.drawing
    # one signed Coons patch: it folds, and its integrals are still exact
    tiles = tile_region(region, drawing)
    assert len(tiles) == 1 and not isinstance(tiles[0], Wedge)
    area, moment_x = _shoelace(ARROWHEAD)
    got_area = integrate_region(region, lambda x, y: 1.0, 4, tiles=tiles)
    got_x = integrate_region(region, lambda x, y: x, 4, tiles=tiles)
    assert abs(got_area - area) < 1e-12
    assert abs(got_x - moment_x) < 1e-12


def test_integrate_region_examples():
    rs = _square_regions()
    region, drawing = rs.regions[0], rs.drawing
    assert abs(integrate_region(region, lambda x, y: 1.0, 3, drawing=drawing) - 1.0) < 1e-14
    assert abs(integrate_region(region, lambda x, y: x, 3, drawing=drawing) - 0.5) < 1e-14
    assert (
        abs(integrate_region(_bigon_regions().regions[0], lambda x, y: 1.0, 3,
                             drawing=_bigon_regions().drawing) - 1.0 / 3.0)
        < 1e-12
    )


def test_gauss_exactness_property():
    # bilinear tile map (p=1), polynomial integrand of degree q per direction
    rs = _square_regions()
    region, drawing = rs.regions[0], rs.drawing
    for q in (2, 3, 5):
        n = (1 * q + 1 + 1) // 2 + 1
        exact = 1.0 / (q + 1) * 1.0 / (q + 1)
        got = integrate_region(region, lambda x, y: x**q * y**q, n, drawing=drawing)
        assert abs(got - exact) < 1e-12


def test_adaptive_stops_level_one_for_constant():
    rs = _square_regions()
    report = integrate_adaptive(rs, lambda x, y: 1.0, max_level=6)
    assert report.stopped_at == 1
    assert len(report.levels) == 2
    assert abs(report.value - 1.0) < 1e-14


def test_adaptive_degree5_exact_from_level2():
    rs = _square_regions()
    f = lambda x, y: x**5 + y**5 - 3 * x**2 * y**3
    report = integrate_adaptive(rs, f, max_level=6, reference="auto")
    exact = 1.0 / 6 + 1.0 / 6 - 3.0 / 12
    # 4 points per direction integrate degree 7 exactly
    by_level = {lvl: err for (lvl, _, _), err in zip(report.levels, report.errors)}
    for lvl, err in by_level.items():
        if lvl >= 2:
            assert err < 1e-13
    assert abs(report.reference - exact) < 1e-13


def test_adaptive_monotone_on_smooth_integrand():
    rs = _bigon_regions()
    f = lambda x, y: np.sin(np.pi * x / 2) * np.cos(np.pi * y) * np.exp(x)
    report = integrate_adaptive(rs, f, max_level=6, reference="auto")
    errs = [e for e in report.errors if e is not None]
    for e0, e1 in zip(errs[:-1], errs[1:]):
        if e0 > 1e-13:
            assert e1 <= e0 * 1.001


def test_csv_shape():
    rs = _square_regions()
    report = integrate_adaptive(rs, lambda x, y: x * y, max_level=3, reference="auto")
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "level,points_per_dir,value,abs_delta,error_vs_reference"
    assert len(lines) == len(report.levels) + 1


def test_tile_partition_matches_boundary_area():
    # quadrature of 1 over the tiles must reproduce the classifier's
    # boundary-integral area for every tiling strategy
    fixtures = [_square_regions(), _triangle_regions(), _bigon_regions(),
                _pentagon_regions(), _polygon_regions(ARROWHEAD), _loop_regions()]
    curves = square_curves() + [segment((0.3, -0.1), (0.3, 1.1)),
                                segment((-0.1, 0.6), (1.1, 0.6))]
    fixtures.append(extract_and_classify(build_drawing(curves)))
    for rs in fixtures:
        for region in rs.regions:
            got = integrate_region(region, lambda x, y: 1.0, 6, drawing=rs.drawing)
            assert abs(got - region.signed_area) < 1e-9


def test_max_level_validation():
    rs = _square_regions()
    with pytest.raises(GeometryError):
        integrate_adaptive(rs, lambda x, y: 1.0, max_level=0)


def test_cached_rules_are_read_only():
    u, w = gauss01(7)
    nodes = u.copy()
    with pytest.raises(ValueError):
        u *= 2.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        bernstein_table(3, 7)[0, 0] = 1.0
    assert np.array_equal(gauss01(7)[0], nodes)


def test_tile_refuses_multi_span_side():
    square = square_curves()
    two_spans = ParamCurve("bspline", [(0, 0), (0.3, 0), (0.7, 0), (1, 0)], degree=2,
                           knots=[0, 0, 0, 0.5, 1, 1, 1])
    with pytest.raises(TileError, match="one polynomial span"):
        Tile(two_spans, square[1], square[2].reversed(), square[3].reversed())


def test_folded_arrowhead_patch_integrates_shoelace_area():
    # the arrowhead's bilinear patch folds at (0.5, 1); its signed
    # Jacobian still integrates to the polygon's area
    a, b, c, d = ARROWHEAD
    tile = Tile(segment(a, b), segment(b, c), segment(d, c), segment(a, d))
    assert np.min(tile.gauss_grids(4)[1]) < 0.0
    assert abs(integrate_tiles([tile], lambda x, y: 1.0, 4) - 1.5) < 1e-15


def test_tile_error_names_region():
    rs = _polygon_regions(C_SHAPE)
    region = rs.regions[0]
    # the signed wedges from the centroid integrate the C exactly
    tiles = tile_region(region, rs.drawing)
    area, moment_x = _shoelace(C_SHAPE)
    assert abs(integrate_region(region, lambda x, y: 1.0, 2, tiles=tiles) - area) < 1e-12
    assert abs(integrate_region(region, lambda x, y: x, 2, tiles=tiles) - moment_x) < 1e-12


#: a C-shaped polygon: its two inner edges face apart, so no point sees both
C_SHAPE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]


@st.composite
def _combs(draw):
    """(regions, size) of a comb of 1 to 4 teeth on a base, turned, scaled
    and moved, every side a quadratic Bezier bowed off its chord by at most
    a tenth of its length.  One tooth makes a curved quadrilateral and two
    a C; no point sees both sides of a gap between teeth."""
    teeth = draw(st.integers(1, 4))
    widths = draw(st.lists(st.floats(0.3, 1.0), min_size=2 * teeth - 1, max_size=2 * teeth - 1))
    heights = draw(st.lists(st.floats(0.05, 2.0), min_size=teeth, max_size=teeth))
    base = draw(st.floats(0.5, 1.0))
    xs = np.concatenate([[0.0], np.cumsum(widths)])
    corners = [(0.0, 0.0), (xs[-1], 0.0)]
    for k in reversed(range(teeth)):  # counter-clockwise, tooth by tooth
        x0, x1, top = xs[2 * k], xs[2 * k + 1], base + heights[k]
        corners += [(x1, base)] if k < teeth - 1 else []
        corners += [(x1, top), (x0, top)] + ([(x0, base)] if k > 0 else [])
    angle, size = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.1, 10.0))
    turn = size * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = np.array([draw(_jitter(5.0)), draw(_jitter(5.0))])
    corners = np.array(corners) @ turn.T + shift
    curves = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        normal = np.array([a[1] - b[1], b[0] - a[0]])
        bow = draw(st.floats(-0.1, 0.1))
        curves.append(ParamCurve("bezier", [a, 0.5 * (a + b) + bow * normal, b]))
    return extract_and_classify(build_drawing(curves)), size * (xs[-1] + base + max(heights))


@settings(max_examples=40, deadline=None)
@given(_combs())
def test_non_star_curved_regions_integrate_to_their_area(comb):
    rs, size = comb
    # f = 1 is smooth everywhere, so signed wedges are exact at 2 points
    report = integrate_adaptive(rs, lambda x, y: 1.0, max_level=3)
    assert abs(report.value - sum(r.signed_area for r in rs.regions)) <= 1e-12 * size**2


# ---------------------------------------------------------------------------
# Bernstein evaluation against references


def _reference_grids(tile, u, v):
    """Coons points and Jacobian from de Boor evaluation of the four sides:
    the per-tile path the cached Bernstein tables replaced."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    s, n = tile.south.point(u), tile.north.point(u)
    w, e = tile.west.point(v), tile.east.point(v)
    ds, dn = tile.south.deriv(u), tile.north.deriv(u)
    dw, de = tile.west.deriv(v), tile.east.deriv(v)
    uu = u[:, None, None]
    vv = v[None, :, None]
    c00, c10, c11, c01 = (c[None, None, :] for c in tile.corners())
    blend = (1 - uu) * (1 - vv) * c00 + uu * (1 - vv) * c10 + (1 - uu) * vv * c01 + uu * vv * c11
    pts = (1 - vv) * s[:, None, :] + vv * n[:, None, :] + (1 - uu) * w[None, :, :] \
        + uu * e[None, :, :] - blend
    dpdu = (1 - vv) * ds[:, None, :] + vv * dn[:, None, :] + (e - w)[None, :, :] \
        - ((1 - vv) * (c10 - c00) + vv * (c11 - c01))
    dpdv = (n - s)[:, None, :] + (1 - uu) * dw[None, :, :] + uu * de[None, :, :] \
        - ((1 - uu) * (c01 - c00) + uu * (c11 - c10))
    return pts, dpdu[..., 0] * dpdv[..., 1] - dpdu[..., 1] * dpdv[..., 0]


def _jitter(size):
    return st.floats(-size, size, allow_nan=False, allow_infinity=False)


@st.composite
def _near(draw, point, size):
    return (point[0] + draw(_jitter(size)), point[1] + draw(_jitter(size)))


@st.composite
def _side(draw, start, end):
    """A segment, quadratic or cubic side whose inner control points lie
    near the chord."""
    d = draw(st.integers(1, 3))
    chord = [np.add(start, (np.subtract(end, start)) * k / d) for k in range(1, d)]
    inner = [draw(_near(q, 0.4)) for q in chord]
    return ParamCurve("bezier", [start, *inner, end]) if inner else segment(start, end)


@st.composite
def _coons_tiles(draw):
    """Coons patches on a jittered unit square: most are valid, and large
    corner moves give folded and arrowhead patches."""
    c00, c10, c11, c01 = (draw(_near(c, 0.6)) for c in ((0, 0), (1, 0), (1, 1), (0, 1)))
    return Tile(
        south=draw(_side(c00, c10)), east=draw(_side(c10, c11)),
        north=draw(_side(c01, c11)), west=draw(_side(c00, c01)),
    )


@st.composite
def _wedges(draw):
    """A span seen from a center near it; the center may fall behind it."""
    p0, p1 = draw(_near((1, -1), 0.8)), draw(_near((1, 1), 0.8))
    return Wedge(np.array(draw(_near((0, 0), 1.2))), draw(_side(p0, p1)))


_tiles = st.one_of(_coons_tiles(), _wedges())


def _scale(tile):
    nets = [side.ctrl for side in (tile.south, tile.east, tile.north, tile.west)]
    return max(1.0, float(np.abs(np.concatenate(nets)).max()))


@settings(max_examples=200, deadline=None)
@given(_tiles, st.integers(1, 40), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_bernstein_grids_match_de_boor(tile, n, params):
    scale = _scale(tile)
    u, _ = gauss01(n)
    for (pts, det), (ref_pts, ref_det) in [
        (tile.gauss_grids(n), _reference_grids(tile, u, u)),
        (tile.gauss_grids(n, slice(1, None, 2)), _reference_grids(tile, u[1::2], u)),
        (tile.grids(params, params[::-1]), _reference_grids(tile, params, params[::-1])),
    ]:
        assert np.max(np.abs(pts - ref_pts), initial=0.0) <= 1e-14 * scale
        assert np.max(np.abs(det - ref_det), initial=0.0) <= 1e-14 * scale**2


# ---------------------------------------------------------------------------
# stacked tile grids against the one-tile view and per-tile integration


@st.composite
def _tile_lists(draw):
    """Coons patches with sides of degree 1 to 3 and wedges, shuffled so
    that kinds and side degrees interleave in the list."""
    tiles = draw(st.lists(_tiles, min_size=1, max_size=8))
    return draw(st.permutations(tiles))


@settings(max_examples=200, deadline=None)
@given(_tile_lists(), st.integers(1, 40), st.data())
def test_stacked_grids_equal_each_tile(tiles, n, data):
    stack = _TileStack(tiles)
    first = data.draw(st.integers(0, len(tiles) - 1))
    index = slice(first, data.draw(st.integers(first + 1, len(tiles))))
    r0 = data.draw(st.integers(0, n - 1))
    u, _ = gauss01(n)
    for rows in (slice(None), slice(r0, data.draw(st.integers(r0 + 1, n)))):
        pts, det = stack.gauss_grids(n, rows, index)
        assert pts.shape == (index.stop - index.start, len(u[rows]), n, 2)
        for tile, p, d in zip(tiles[index], pts, det):
            one_pts, one_det = tile.gauss_grids(n, rows)
            assert np.array_equal(p, one_pts) and np.array_equal(d, one_det)
            ref_pts, ref_det = _reference_grids(tile, u[rows], u)
            scale = _scale(tile)
            assert np.max(np.abs(p - ref_pts)) <= 1e-14 * scale
            assert np.max(np.abs(d - ref_det)) <= 1e-14 * scale**2


def _reference_side_values(nets, basis):
    """Points and derivatives of each side net, one product per net shape
    as ``_values`` took them, in net order."""
    pts, ders = [None] * len(nets), [None] * len(nets)
    for size in {len(net) for net in nets}:
        at = [k for k, net in enumerate(nets) if len(net) == size]
        net, d = np.array([nets[k] for k in at]), size - 1
        p, dp = basis(d) @ net, basis(d - 1) @ (d * (net[..., 1:, :] - net[..., :-1, :]))
        for k, pk, dk in zip(at, p, dp):
            pts[k], ders[k] = pk, dk
    return np.array(pts), np.array(ders)


def _reference_stacked_grids(tiles, n, rows, index):
    """The grids of the tiles in ``index`` from products per side and net
    shape, per tile kind, scattered into tile order: the per-side path that
    the per-degree stacks replaced, with its Coons and wedge arithmetic."""
    u, v = gauss01(n)[0][rows], gauss01(n)[0]
    basis_u, basis_v = (lambda d: bernstein_table(d, n)[rows]), (lambda d: bernstein_table(d, n))
    tiles = tiles[index]
    pts, det = np.empty((len(tiles), len(u), len(v), 2)), np.empty((len(tiles), len(u), len(v)))
    coons = [k for k, t in enumerate(tiles) if not isinstance(t, Wedge)]
    wedges = [k for k, t in enumerate(tiles) if isinstance(t, Wedge)]
    if coons:
        (s, ds), (nn, dn) = (_reference_side_values([getattr(tiles[k], side).ctrl for k in coons],
                                                    basis_u) for side in ("south", "north"))
        (w, dw), (e, de) = (_reference_side_values([getattr(tiles[k], side).ctrl for k in coons],
                                                   basis_v) for side in ("west", "east"))
        corners = np.array([np.array(tiles[k].corners()) for k in coons]).swapaxes(0, 1)
        c00, c10, c11, c01 = (c[:, None] for c in corners)
        s, ds = s - c00 - u[:, None] * (c10 - c00), ds - (c10 - c00)
        nn, dn = nn - c01 - u[:, None] * (c11 - c01), dn - (c11 - c01)
        uu, vv = u[:, None, None], v[None, :, None]
        pts[coons] = ((1 - vv) * s[:, :, None] + vv * nn[:, :, None]
                      + (1 - uu) * w[:, None] + uu * e[:, None])
        dpdu = (1 - vv) * ds[:, :, None] + vv * dn[:, :, None] + (e - w)[:, None]
        dpdv = (nn - s)[:, :, None] + (1 - uu) * dw[:, None] + uu * de[:, None]
        det[coons] = dpdu[..., 0] * dpdv[..., 1] - dpdu[..., 1] * dpdv[..., 0]
    if wedges:
        p, dp = _reference_side_values([tiles[k].east.ctrl for k in wedges], basis_v)
        center = np.array([tiles[k].center for k in wedges])
        rel, uc = p - center[:, None], u[:, None]
        pts[wedges] = center[:, None, None] + uc[:, None] * rel[:, None]
        det[wedges] = uc * (rel[..., 0] * dp[..., 1] - rel[..., 1] * dp[..., 0])[:, None]
    return pts, det


@settings(max_examples=200, deadline=None)
@given(_tile_lists(), st.integers(1, 40), st.data())
def test_stacked_grids_equal_the_per_side_reference(tiles, n, data):
    stack = _TileStack(tiles)
    first = data.draw(st.integers(0, len(tiles) - 1))
    index = slice(first, data.draw(st.integers(first + 1, len(tiles))))
    r0 = data.draw(st.integers(0, n - 1))
    for rows in (slice(None), slice(r0, data.draw(st.integers(r0 + 1, n)))):
        for tiles_in in (slice(None), index):
            pts, det = stack.gauss_grids(n, rows, tiles_in)
            ref_pts, ref_det = _reference_stacked_grids(tiles, n, rows, tiles_in)
            assert np.array_equal(pts, ref_pts) and np.array_equal(det, ref_det)


def _per_tile_integral(tiles, f, n):
    """``integrate_tiles`` as one-tile grids: the same (tile, rows) parts,
    at most BLOCK_NODES nodes per integrand call."""
    _, w = gauss01(n)
    rows = max(1, BLOCK_NODES // n)
    parts = [(tile, slice(r, r + rows)) for tile in tiles for r in range(0, n, rows)]
    per_block = max(1, BLOCK_NODES // (n * min(rows, n)))
    total = 0.0
    for k in range(0, len(parts), per_block):
        block = parts[k : k + per_block]
        grids = [tile.gauss_grids(n, r) for tile, r in block]
        pts = np.concatenate([p.reshape(-1, 2) for p, _ in grids])
        det = np.concatenate([d.ravel() for _, d in grids])
        weight = np.concatenate([np.outer(w[r], w).ravel() for _, r in block]) * det
        total += float(np.sum(weight * f(pts[:, 0], pts[:, 1])))
    return total


def test_integrate_tiles_cut_rows_equal_per_tile_path():
    # n^2 > BLOCK_NODES: each grid is cut by rows, one part per block; the
    # mixed lists keep kinds and side degrees interleaved
    rs = extract_and_classify(build_drawing(square_curves() + [
        ParamCurve("bezier", [(0, 0.5), (0.3, 0.75), (0.6, 0.25), (1, 0.5)]),
        segment((0.5, 1), (1, 0.5)),
    ]))
    tiles = [t for region in rs.regions for t in tile_region(region, rs.drawing)]
    assert {type(t) for t in tiles} == {Tile, Wedge} and 128**2 > BLOCK_NODES
    f = lambda x, y: np.sin(3 * x) * np.exp(y)
    for n in (1, 5, 16, 64, 128):
        assert integrate_tiles(tiles, f, n) == _per_tile_integral(tiles, f, n)
