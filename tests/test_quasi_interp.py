"""Quasi-interpolant projection and level-set coefficient properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curveplan import quasi_interp, splines
from curveplan.curves import basis_matrix, basis_row, find_span
from curveplan.errors import GeometryError
from curveplan.quadrature import gauss01, integrate_tiles, region_tiles
from curveplan.quasi_interp import level_set_coeffs, llm_project
from curveplan.regions import extract_and_classify
from curveplan.splines import (
    SplineFunc2D,
    SplineMap2D,
    TensorSplineSpace,
    build_interface_drawing,
    composed_field,
    integrate_spline_product,
    invert_points,
)

from test_splines import make_map, unit_space


def _random_func(space, seed):
    rng = np.random.default_rng(seed)
    return SplineFunc2D(space, rng.uniform(-2, 2, (space.nu, space.nv)))


def _global_l2_projection(f, space, cuts_x, cuts_y, n=8):
    """Dense global Gram system solved with composite quadrature (oracle)."""
    from curveplan.curves import basis_row

    nodes, w = gauss01(n)
    ndof = space.nu * space.nv
    gram = np.zeros((ndof, ndof))
    rhs = np.zeros(ndof)
    for x0, x1 in zip(cuts_x[:-1], cuts_x[1:]):
        for y0, y1 in zip(cuts_y[:-1], cuts_y[1:]):
            xs = x0 + (x1 - x0) * nodes
            ys = y0 + (y1 - y0) * nodes
            for a, x in enumerate(xs):
                fu, bu = basis_row(space.tu, space.du, float(x))
                for b, y in enumerate(ys):
                    fv, bv = basis_row(space.tv, space.dv, float(y))
                    wgt = w[a] * w[b] * (x1 - x0) * (y1 - y0)
                    idx = []
                    vals = []
                    for i in range(space.du + 1):
                        for j in range(space.dv + 1):
                            idx.append((fu + i) * space.nv + (fv + j))
                            vals.append(bu[i] * bv[j])
                    idx = np.asarray(idx)
                    vals = np.asarray(vals)
                    gram[np.ix_(idx, idx)] += wgt * np.outer(vals, vals)
                    rhs[idx] += wgt * vals * float(f(x, y))
    sol = np.linalg.solve(gram, rhs)
    return sol.reshape(space.nu, space.nv)


def test_reproduces_member_of_space():
    space = unit_space((3, 2), iu=(0.25, 0.5, 0.75), iv=(0.5,))
    f = _random_func(space, 42)
    result = llm_project(f.value, space)
    assert np.max(np.abs(result.function.coeffs - f.coeffs)) < 1e-10


def test_constant_projects_to_unit_coefficients():
    space = unit_space((2, 2), iu=(0.3, 0.7), iv=(0.4,))
    result = llm_project(lambda u, v: np.ones_like(np.asarray(u, float)), space)
    assert np.allclose(result.function.coeffs, 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "degrees, iu, iv",
    [((2, 2), (0.3, 0.3, 0.7), (0.1, 0.9)), ((4, 1), (0.1, 0.2, 0.3, 0.6, 0.6), (0.25, 0.5))],
)
def test_repeated_knots_reproduce_constant_and_affine_functions(degrees, iu, iv):
    # a dof's window holds only dofs whose supports meet its own with
    # positive length; across a repeated knot i - d..i + d holds more, and
    # their zero Gram rows made the local solve singular
    space = unit_space(degrees, iu=iu, iv=iv)
    one = llm_project(lambda u, v: np.ones_like(np.asarray(u, float)), space)
    assert np.allclose(one.function.coeffs, 1.0, atol=1e-12)
    affine = lambda u, v: 0.3 + 1.7 * np.asarray(u) - 0.6 * np.asarray(v)
    got = llm_project(affine, space).function
    u, v = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9))
    assert np.allclose(got.value(u.ravel(), v.ravel()), affine(u.ravel(), v.ravel()), atol=1e-12)


def test_projector_idempotent():
    space = unit_space((2, 2), iu=(0.5,), iv=(0.5,))
    f = lambda u, v: np.sin(3 * np.asarray(u)) * np.asarray(v) ** 2
    once = llm_project(f, space)
    twice = llm_project(once.function.value, space)
    assert np.max(np.abs(once.function.coeffs - twice.function.coeffs)) < 1e-12


def test_gram_conditioning_reported():
    space = unit_space((2, 2), iu=(0.5,), iv=(0.5,))
    result = llm_project(lambda u, v: np.ones_like(np.asarray(u, float)), space)
    assert len(result.problems) == space.nu * space.nv
    assert all(np.isfinite(p.condition) for p in result.problems)
    assert all(p.residual < 1e-10 for p in result.problems)


def test_shifted_mesh_region_split_matches_global_projection():
    # target space contains the source field: both projections reproduce it
    T1 = make_map(knots_u=(0, 0, 0.25, 0.5, 0.75, 1, 1))
    T2 = make_map(knots_u=(0, 0, 0.25, 1, 1))
    s2 = _random_func(T2.space, 7)
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    f = composed_field(s2, T1, T2)
    got = llm_project(f, T1.space, regions=rs)
    want = _global_l2_projection(
        lambda x, y: float(s2.value(x, y)), T1.space, [0, 0.25, 0.5, 0.75, 1], [0, 1]
    )
    assert np.max(np.abs(got.function.coeffs - want)) < 1e-9


def test_locality_of_coefficients():
    # perturbing the far side of the second map leaves near-side coefficients
    # of the projection untouched
    T1 = make_map(knots_u=(0, 0, 0.25, 0.5, 0.75, 1, 1))

    def field_for(offset):
        T2 = make_map(transform=lambda u, v: (0.6 + offset + 0.4 * u, v))
        rs = extract_and_classify(build_interface_drawing(T1, T2))
        s2 = SplineFunc2D(T2.space, np.ones((2, 2)))
        return llm_project(composed_field(s2, T1, T2), T1.space, regions=rs)

    a = field_for(0.0)
    b = field_for(0.05)
    # dofs supported left of u = 0.5 see identical (zero) data in both runs
    for i in range(T1.space.nu):
        if T1.space.tu[i + T1.space.du + 1] <= 0.5:
            for j in range(T1.space.nv):
                assert abs(a.function.coeffs[i, j] - b.function.coeffs[i, j]) < 1e-12


def _levelset_fixture(offset=(0.0, 0.0), scale=1.0, t1_knots=((0.5,), (0.5,)),
                      degrees=(1, 1), coeff_value=None, seed=None):
    T1 = make_map(
        degrees=degrees,
        knots_u=[0.0] * (degrees[0] + 1) + list(t1_knots[0]) + [1.0] * (degrees[0] + 1),
        knots_v=[0.0] * (degrees[1] + 1) + list(t1_knots[1]) + [1.0] * (degrees[1] + 1),
    )
    T2 = make_map(transform=lambda u, v: (offset[0] + scale * u, offset[1] + scale * v))
    if coeff_value is not None:
        coeffs = np.full((T2.space.nu, T2.space.nv), float(coeff_value))
    else:
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(0.0, 2.0, (T2.space.nu, T2.space.nv))
    s2 = SplineFunc2D(T2.space, coeffs)
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    return T1, T2, s2, rs


def test_level_set_constant_full_cover():
    T1, T2, s2, rs = _levelset_fixture(coeff_value=3.0)
    field = level_set_coeffs(s2, T1, T2, rs)
    for (i, j) in field.active:
        assert abs(field.coefficients[i, j] - 3.0) < 1e-10
    assert abs(field.value(0.5, 0.5) - 3.0) < 1e-10


def test_level_set_trimmed_bounds():
    T1, T2, s2, rs = _levelset_fixture(offset=(0.4, 0.4), coeff_value=1.0)
    field = level_set_coeffs(s2, T1, T2, rs)
    vals = [field.coefficients[i, j] for (i, j) in field.active]
    assert min(vals) >= -1e-10
    assert max(vals) <= 1.0 + 1e-10
    assert 1e-6 < max(vals)  # genuinely trimmed: some average below 1, above 0


def _theta_integrals(field, s2, T1, T2, space, rs):
    """Fine integrals over Theta of the level-set field and the source.

    The field is a spline (smooth per element: element quadrature); the
    zero-extended source is discontinuous along the trimming curve, so it
    is integrated region by region with the region tiles.  The regions of
    these fixtures are convex, so every node lies in its region, and a
    region's element is that of the mean of its trail vertices.
    """
    nodes, w = gauss01(10)
    bu, bv = space.breakpoints_u(), space.breakpoints_v()
    int_field = 0.0
    for iu, iv in sorted(field.theta_elements):
        u0, u1 = bu[iu], bu[iu + 1]
        v0, v1 = bv[iv], bv[iv + 1]
        us = u0 + (u1 - u0) * nodes
        vs = v0 + (v1 - v0) * nodes
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        scale = (u1 - u0) * (v1 - v0)
        int_field += scale * float(np.sum(np.outer(w, w) * field.value(uu, vv)))

    src = composed_field(s2, T1, T2)
    int_src = 0.0
    for region in rs.regions:
        mean = np.mean([rs.drawing.vertices[vid].position for vid, _ in region.trail], axis=0)
        if space.element_of(*mean) in field.theta_elements:
            int_src += integrate_tiles(region_tiles(region, rs.drawing), src, 10)
    return int_field, int_src


def test_level_set_average_preservation_three_fixtures():
    fixtures = [
        _levelset_fixture(coeff_value=2.0),  # conforming, full cover
        _levelset_fixture(offset=(0.4, 0.4), coeff_value=1.0),  # trimmed corner
        _levelset_fixture(offset=(0.3, 0.0), scale=0.5, seed=3),  # trimmed strip
    ]
    for T1, T2, s2, rs in fixtures:
        field = level_set_coeffs(s2, T1, T2, rs)
        # checked where the active basis functions form a partition of unity
        got, want = _theta_integrals(field, s2, T1, T2, T1.space, rs)
        assert abs(got - want) < 1e-10


def test_level_set_region_split_is_exact_at_kinks():
    # for a unit field on a trimmed corner, the preserved average equals the
    # covered area exactly: [0.4, 1]^2 clipped to the square has area 0.36
    T1, T2, s2, rs = _levelset_fixture(offset=(0.4, 0.4), coeff_value=1.0)
    field = level_set_coeffs(s2, T1, T2, rs)
    got, want = _theta_integrals(field, s2, T1, T2, T1.space, rs)
    assert abs(want - 0.36) < 1e-9
    assert abs(got - 0.36) < 1e-9


# -- batched assembly against the per-node loops it replaced ----------------------
# Sums now run as matrix products, so they agree to roundoff; the tolerance is
# a few hundred ulps of the largest entry.

RTOL = 1e-13


def reference_span_gram_1d(knots, degree):
    nodes, weights = gauss01(degree + 1)
    out = []
    brk = np.unique(knots)
    for u0, u1 in zip(brk[:-1], brk[1:]):
        block = np.zeros((degree + 1, degree + 1))
        for t, w in zip(u0 + (u1 - u0) * nodes, weights * (u1 - u0)):
            first, vals = basis_row(knots, degree, float(t))
            block += w * np.outer(vals, vals)
        out.append((float(u0), float(u1), first, block))
    return out


def _element_first_dofs(space, element):
    """First dof indices (per direction) supported on a knot element."""
    bu, bv = space.breakpoints_u(), space.breakpoints_v()
    su = find_span(space.tu, space.du, 0.5 * (bu[element[0]] + bu[element[0] + 1]))
    sv = find_span(space.tv, space.dv, 0.5 * (bv[element[1]] + bv[element[1] + 1]))
    return su - space.du, sv - space.dv


def reference_element_moments(f, space, element, us, vs, weights):
    """Sum over nodes (us[k], vs[k]) of weights[k] f B_i B_j, node by node."""
    block = np.zeros((space.du + 1, space.dv + 1))
    for x, y, w in zip(us, vs, weights):
        fu, bu = basis_row(space.tu, space.du, float(x))
        fv, bv = basis_row(space.tv, space.dv, float(y))
        assert (fu, fv) == _element_first_dofs(space, element)
        block += w * float(f(x, y)) * np.outer(bu, bv)
    return block


def _close(a, b):
    return np.allclose(a, b, rtol=0.0, atol=RTOL * max(np.abs(b).max(), 1.0))


@pytest.mark.parametrize("degrees, iu, iv", [((1, 1), (0.5,), (0.3, 0.7)), ((3, 2), (0.2, 0.6), (0.4,))])
def test_batched_gram_and_plain_moments_match_node_loops(degrees, iu, iv):
    space = unit_space(degrees, iu, iv)
    for knots, degree in ((space.tu, space.du), (space.tv, space.dv)):
        got, want = quasi_interp._span_gram_1d(knots, degree), reference_span_gram_1d(knots, degree)
        assert [g[:3] for g in got] == [w[:3] for w in want]
        assert all(_close(g[3], w[3]) for g, w in zip(got, want))
    f = _random_func(space, 31)
    n = 4
    nodes, w = gauss01(n)
    moments = quasi_interp._element_moments_plain(f, space, n, n)
    bu, bv = space.breakpoints_u(), space.breakpoints_v()
    for (iu_, iv_), (fu, fv, block) in moments.items():
        us = bu[iu_] + (bu[iu_ + 1] - bu[iu_]) * nodes
        vs = bv[iv_] + (bv[iv_ + 1] - bv[iv_]) * nodes
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        scale = (bu[iu_ + 1] - bu[iu_]) * (bv[iv_ + 1] - bv[iv_])
        weights = (np.outer(w, w) * scale).ravel()
        want = reference_element_moments(f, space, (iu_, iv_), uu.ravel(), vv.ravel(), weights)
        assert (fu, fv) == _element_first_dofs(space, (iu_, iv_))
        assert _close(block, want)


def _piece_row(knots, degree, span, t):
    """The degree + 1 B-splines non-zero on knot span ``span`` at t, as
    polynomials extended beyond the span: the scalar recurrence of A2.2."""
    left, right, out = [0.0], [0.0], [1.0]
    for j in range(1, degree + 1):
        left.append(t - knots[span + 1 - j])
        right.append(knots[span + j] - t)
        saved = 0.0
        for r in range(j):
            tmp = out[r] / (right[r + 1] + left[j - r])
            out[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        out.append(saved)
    return np.array(out)


def test_batched_region_moments_match_node_loop():
    # the maps of the L-case below: nodes of the signed wedges of its
    # L-shaped regions leave them, and each node is evaluated on the
    # polynomial pieces of its own region
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.3 + 0.9 * u + 0.1 * v, 0.2 + 0.7 * v))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    space, n = T1.space, 4
    nodes, w = gauss01(n)

    def t2_inverse(x, y):
        return np.array([(x - 0.3 - 0.1 * (y - 0.2) / 0.7) / 0.9, (y - 0.2) / 0.7])

    want = []
    for region in rs.regions:
        corners = np.array([rs.drawing.vertices[vid].position for vid, _ in region.trail])
        if np.any(np.abs(t2_inverse(*corners.T) - 0.5) > 0.5 + 1e-12):
            continue  # a corner outside T2's image: the region is not covered
        mean = corners.mean(axis=0)
        su, sv = find_span(space.tu, 1, mean[0]), find_span(space.tv, 1, mean[1])
        block = np.zeros((4, 4))
        for tile in region_tiles(region, rs.drawing):
            pts, det = tile.grids(nodes, nodes)
            for (x, y), weight in zip(pts.reshape(-1, 2), (np.outer(w, w) * det).ravel()):
                b1 = np.outer(_piece_row(space.tu, 1, su, x), _piece_row(space.tv, 1, sv, y))
                u2, v2 = t2_inverse(*np.tensordot(b1, T1.ctrl[su - 1 : su + 1, sv - 1 : sv + 1]))
                b2 = np.outer(_piece_row(T2.space.tu, 1, 1, u2), _piece_row(T2.space.tv, 1, 1, v2))
                block += weight * np.outer(b1.ravel(), b2.ravel())
        window = slice(su - 1, su + 1), slice(sv - 1, sv + 1)
        want.append((space.element_of(*mean), window, block))
    got = splines._coupling_blocks(space, T2.space, T1, T2, rs, n)
    assert len(want) == 4 and [g[:2] for g in got] == [x[:2] for x in want]
    assert all(_close(g[3], x[2]) for g, x in zip(got, want))


def test_l_shaped_regions_integrate_on_their_pieces():
    # T2's image cuts L-shaped regions out of T1's elements; neither is
    # star-shaped from its centroid, so nodes of their signed wedges land
    # inside T2's image, where the zero-extended field is not 0.  Evaluated
    # on each region's polynomial pieces, the coefficients are those of star
    # wedges from a center that sees the whole boundary.
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.3 + 0.9 * u + 0.1 * v, 0.2 + 0.7 * v))
    s2 = SplineFunc2D(T2.space, np.array([[1.0, -0.5], [2.0, 0.25]]))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    got = llm_project(composed_field(s2, T1, T2), T1.space, regions=rs).function.coeffs
    want = [
        [-0.008091661807579874, -0.20361158560476308, 0.08901112931340305],
        [0.037553799805635585, 0.6428145175621263, -0.25716061270766805],
        [-0.028741496598638207, 1.333301209372638, -0.16193499622071175],
    ]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_nested_component_is_refused_by_every_spline_integral():
    # T2's image lies inside one T1 element: its boundary is a second
    # component of the interface drawing, and the region around it has a hole
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.1 + 0.2 * u, 0.1 + 0.2 * v))
    s1, s2 = SplineFunc2D(T1.space, np.ones((3, 3))), SplineFunc2D(T2.space, np.ones((2, 2)))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    vertices = rs.drawing.vertices
    nested = [c for c in rs.drawing.components()
              if all(np.max(np.abs(vertices[vid].position - 0.2)) < 0.1 + 1e-9 for vid in c)]
    assert len(nested) == 1
    message = re.escape(f"nested component at vertices {nested[0]}: holes are not yet assigned")
    for call in (
        lambda: llm_project(composed_field(s2, T1, T2), T1.space, regions=rs),
        lambda: level_set_coeffs(s2, T1, T2, rs),
        lambda: integrate_spline_product(s1, s2, T1, T2, rs, 3),
    ):
        with pytest.raises(GeometryError, match=message):
            call()


def test_space_with_knot_lines_off_the_drawing_is_refused():
    # a knot line at 0.3 cuts regions of a drawing whose lines are at 0.5
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.2 + 0.6 * u, 0.1 + 0.8 * v))
    s2 = SplineFunc2D(T2.space, np.ones((2, 2)))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    with pytest.raises(GeometryError, match="knot lines that its map does not have"):
        llm_project(composed_field(s2, T1, T2), unit_space(iu=(0.3,)), regions=rs)


def test_regions_with_a_plain_field_are_refused():
    # regions are integrated on the pieces of a composed field only
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.2 + 0.6 * u, 0.1 + 0.8 * v))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    with pytest.raises(TypeError, match="regions need f to be a composed_field"):
        llm_project(lambda u, v: np.ones_like(np.asarray(u, float)), T1.space, regions=rs)


@st.composite
def _curved_maps(draw):
    """One-element degree-2 maps of an image inside the unit square that
    crosses the knot lines 0.25, 0.5 and 0.75 both ways.  Every control
    point but the corners moves by up to 0.03, so the sides bow.  The far
    corner of the image sits near one side of its knot element, so the
    rest of that element is an L that its centroid does not see whole."""
    lo = [draw(st.floats(0.03, 0.2)) for _ in range(2)]
    hi = [draw(st.floats(0.78, 0.85)), draw(st.floats(0.92, 0.97))]
    if draw(st.booleans()):
        hi.reverse()
    g = np.array([0.0, 0.5, 1.0])
    ctrl = np.stack(np.meshgrid(lo[0] + (hi[0] - lo[0]) * g, lo[1] + (hi[1] - lo[1]) * g,
                                indexing="ij"), axis=-1)
    moves = draw(st.lists(st.floats(-0.03, 0.03), min_size=18, max_size=18))
    ctrl += np.reshape(moves, (3, 3, 2)) * np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])[:, :, None]
    return SplineMap2D(TensorSplineSpace((2, 2), [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]), ctrl)


@settings(max_examples=20, deadline=None)
@given(_curved_maps(), st.tuples(*3 * [st.floats(-2.0, 2.0)]))
def test_curved_map_pairs_reproduce_affine_fields_and_areas(T2, affine):
    T1 = make_map(knots_u=(0, 0, 0.25, 0.5, 0.75, 1, 1), knots_v=(0, 0, 0.25, 0.5, 0.75, 1, 1))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    assert any(np.min(tile.gauss_grids(4)[1]) < 0.0
               for region in rs.regions for tile in region_tiles(region, rs.drawing))
    # s2 carries the affine field at T2's control points, so s2 o T2^-1 is
    # that field, and the llm coefficients of T1 (the identity) are its values
    # at T1's control points wherever a dof's support is covered
    grad, const = np.array(affine[:2]), affine[2]
    s2 = SplineFunc2D(T2.space, T2.ctrl @ grad + const)
    got = llm_project(composed_field(s2, T1, T2), T1.space, regions=rs).function.coeffs
    space, grid = T1.space, np.linspace(-1e-3, 1 + 1e-3, 17)
    covered = []
    for i, j in np.ndindex(space.nu, space.nv):
        (a, b), (c, d) = space.tu[[i, i + 2]], space.tv[[j, j + 2]]
        box = np.stack(np.meshgrid(a + (b - a) * grid, c + (d - c) * grid), axis=-1).reshape(-1, 2)
        if invert_points(T2, T1.point_pairs(box))[1].all():
            covered.append((i, j))
    assert (2, 2) in covered
    want = T1.ctrl @ grad + const
    assert max(abs(got[ij] - want[ij]) for ij in covered) <= 1e-10
    # with s1 = s2 = 1 the product is the area of T2's image: the integral
    # of det J_T2, of degree 3 per direction, exact by 2-point Gauss
    ones = [SplineFunc2D(T.space, np.ones((T.space.nu, T.space.nv))) for T in (T1, T2)]
    u, w = gauss01(2)
    area = np.sum(np.outer(w, w) * T2.jacobian_det(*np.meshgrid(u, u, indexing="ij")))
    assert abs(integrate_spline_product(*ones, T1, T2, rs, 4) - area) <= 1e-12


def test_basis_matrix_rows_are_basis_rows():
    space = unit_space((3, 2), (0.2, 0.6, 0.6), (0.4,))
    params = np.concatenate([np.linspace(0, 1, 17), space.breakpoints_u()])
    mat = basis_matrix(space.tu, space.du, params)
    for row, t in zip(mat, params):
        first, vals = basis_row(space.tu, space.du, t)
        want = np.zeros(space.nu)
        want[first : first + space.du + 1] = vals
        assert row.tobytes() == want.tobytes()

