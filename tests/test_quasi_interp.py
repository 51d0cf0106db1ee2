"""Quasi-interpolant projection and level-set coefficient properties."""

import numpy as np
import pytest

from curveplan import quasi_interp
from curveplan.curves import basis_matrix, basis_row
from curveplan.quadrature import gauss01
from curveplan.quasi_interp import level_set_coeffs, llm_project
from curveplan.regions import extract_and_classify
from curveplan.splines import (
    SplineFunc2D,
    build_interface_drawing,
    composed_field,
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
    is integrated region by region with the region tiles.
    """
    from curveplan.quadrature import integrate_tiles
    from curveplan.quasi_interp import region_element_table
    from curveplan.splines import regions_covered_by

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

    src = composed_field(s2, T1, T2, strict=True)
    int_src = 0.0
    for k, (element, tiles) in sorted(region_element_table(rs, space).items()):
        if element not in field.theta_elements:
            continue
        if not regions_covered_by([tiles], T1, T2)[0]:
            continue
        int_src += integrate_tiles(tiles, src, 10)
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


def reference_element_moments(f, space, element, us, vs, weights):
    """Sum over nodes (us[k], vs[k]) of weights[k] f B_i B_j, node by node."""
    block = np.zeros((space.du + 1, space.dv + 1))
    for x, y, w in zip(us, vs, weights):
        fu, bu = basis_row(space.tu, space.du, float(x))
        fv, bv = basis_row(space.tv, space.dv, float(y))
        assert (fu, fv) == quasi_interp._element_first_dofs(space, element)
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
        assert (fu, fv) == quasi_interp._element_first_dofs(space, (iu_, iv_))
        assert _close(block, want)


def test_batched_region_moments_match_node_loop():
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.3 + 0.9 * u + 0.1 * v, 0.2 + 0.7 * v))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    table = quasi_interp.region_element_table(rs, T1.space)
    f = _random_func(T1.space, 32)
    n = 4
    nodes, w = gauss01(n)
    got = quasi_interp._element_moments_regions(f, T1.space, table, n)
    want = {}
    for element, tiles in (table[k] for k in sorted(table)):
        block = want.setdefault(element, np.zeros((2, 2)))
        for tile in tiles:
            pts, det = tile.grids(nodes, nodes)
            weights = (np.outer(w, w) * det).ravel()
            pts = pts.reshape(-1, 2)
            block += reference_element_moments(f, T1.space, element, pts[:, 0], pts[:, 1], weights)
    assert list(got) == list(want)
    for element, (fu, fv, block) in got.items():
        assert _close(block, want[element])


def test_l_shaped_regions_keep_their_nodes_inside():
    # T2's image cuts L-shaped regions out of T1's elements; neither is
    # star-shaped from its centroid, so signed wedges would put nodes inside
    # T2's image, where the zero-extended field is not 0.  The coefficients
    # are those of star wedges from a center that sees the whole boundary.
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.3 + 0.9 * u + 0.1 * v, 0.2 + 0.7 * v))
    s2 = SplineFunc2D(T2.space, np.array([[1.0, -0.5], [2.0, 0.25]]))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    table = quasi_interp.region_element_table(rs, T1.space)
    assert all(tile.certified for _, tiles in table.values() for tile in tiles)
    got = llm_project(composed_field(s2, T1, T2), T1.space, regions=rs).function.coeffs
    want = [
        [-0.008091661807579874, -0.20361158560476308, 0.08901112931340305],
        [0.037553799805635585, 0.6428145175621263, -0.25716061270766805],
        [-0.028741496598638207, 1.333301209372638, -0.16193499622071175],
    ]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_basis_matrix_rows_are_basis_rows():
    space = unit_space((3, 2), (0.2, 0.6, 0.6), (0.4,))
    params = np.concatenate([np.linspace(0, 1, 17), space.breakpoints_u()])
    mat = basis_matrix(space.tu, space.du, params)
    for row, t in zip(mat, params):
        first, vals = basis_row(space.tu, space.du, t)
        want = np.zeros(space.nu)
        want[first : first + space.du + 1] = vals
        assert row.tobytes() == want.tobytes()

