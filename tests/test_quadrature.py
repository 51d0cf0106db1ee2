"""Tiling, tensor Gauss integration and the adaptive doubling loop."""

import numpy as np
import pytest

from curveplan.arrangement import build_drawing
from curveplan.errors import GeometryError
from curveplan.quadrature import (
    gauss01,
    integrate_adaptive,
    integrate_region,
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
    tiles = tile_region(region, drawing)
    assert len(tiles) == 4
    for tile in tiles:  # a wedge's west side is its apex, a point
        assert np.array_equal(tile.west.ctrl[0], tile.west.ctrl[-1])
    # shoelace area and first moment of x
    xs, ys = np.array(ARROWHEAD).T
    cross = xs * np.roll(ys, -1) - np.roll(xs, -1) * ys
    area = cross.sum() / 2
    moment_x = ((xs + np.roll(xs, -1)) * cross).sum() / 6
    got_area = integrate_region(region, lambda x, y: 1.0, 4, drawing=drawing)
    got_x = integrate_region(region, lambda x, y: x, 4, drawing=drawing)
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


def test_physical_map_jacobian_hook():
    class Scale2:
        def mapped_with_jacobian(self, pts):
            return 2.0 * pts, np.full(pts.shape[:-1], 4.0)

    rs = _square_regions()
    # integral of x over the scaled square [0,2]^2 = 4
    got = integrate_region(
        rs.regions[0], lambda x, y: x, 4, drawing=rs.drawing, phys_map=Scale2()
    )
    assert abs(got - 4.0) < 1e-13


def test_max_level_validation():
    rs = _square_regions()
    with pytest.raises(GeometryError):
        integrate_adaptive(rs, lambda x, y: 1.0, max_level=0)
