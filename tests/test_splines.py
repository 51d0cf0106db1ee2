"""Spline maps, inversion, pull-backs, interface drawings, spline products."""

import json
import os
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curveplan import arrangement, splines
from curveplan.curves import (
    ParamCurve,
    basis_row,
    basis_rows,
    derivative_data,
    find_span,
    find_spans,
    fit_bspline,
    project_points,
    uniform_arclength_knots,
)
from curveplan.errors import CurveplanError, FitError, GeometryError, InversionError
from curveplan.quadrature import gauss01, tile_region
from curveplan.regions import extract_and_classify
from curveplan.splines import (
    SplineFunc2D,
    SplineMap2D,
    TensorSplineSpace,
    boundary_curves,
    build_interface_drawing,
    composed_field,
    integrate_spline_product,
    invert,
    invert_points,
    knot_iso_curves,
    pull_back,
)


def greville(knots, degree):
    n = len(knots) - degree - 1
    if degree == 0:
        return 0.5 * (knots[:-1] + knots[1:])
    return np.array([np.mean(knots[i + 1 : i + degree + 1]) for i in range(n)])


def make_map(degrees=(1, 1), knots_u=(0, 0, 1, 1), knots_v=(0, 0, 1, 1), transform=None):
    """Identity-like map from greville points, optionally transformed."""
    space = TensorSplineSpace(degrees, knots_u, knots_v)
    gu, gv = greville(space.tu, space.du), greville(space.tv, space.dv)
    ctrl = np.zeros((space.nu, space.nv, 2))
    for i, u in enumerate(gu):
        for j, v in enumerate(gv):
            ctrl[i, j] = (u, v) if transform is None else transform(u, v)
    return SplineMap2D(space, ctrl)


def unit_space(degrees=(1, 1), iu=(), iv=()):
    ku = [0.0] * (degrees[0] + 1) + list(iu) + [1.0] * (degrees[0] + 1)
    kv = [0.0] * (degrees[1] + 1) + list(iv) + [1.0] * (degrees[1] + 1)
    return TensorSplineSpace(degrees, ku, kv)


# -- inversion ----------------------------------------------------------------


def test_invert_identity():
    T = make_map()
    assert np.allclose(invert(T, (0.3, 0.7)), (0.3, 0.7), atol=1e-12)


def test_invert_scaling():
    T = make_map(transform=lambda u, v: (2 * u, 2 * v))
    assert np.allclose(invert(T, (1.0, 1.0)), (0.5, 0.5), atol=1e-12)


def test_invert_bilinear_round_trip():
    space = TensorSplineSpace((1, 1), [0, 0, 1, 1], [0, 0, 1, 1])
    ctrl = np.array([[[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [3.0, 2.0]]])
    T = SplineMap2D(space, ctrl)
    p = T.point(0.25, 0.5)
    u, v = invert(T, p)
    assert abs(u - 0.25) < 1e-11 and abs(v - 0.5) < 1e-11


def test_invert_outside_image_raises():
    T = make_map()
    with pytest.raises(InversionError):
        invert(T, (2.0, 2.0))


def test_invert_round_trip_random():
    T = make_map(
        degrees=(2, 2),
        knots_u=[0, 0, 0, 0.5, 1, 1, 1],
        knots_v=[0, 0, 0, 0.4, 1, 1, 1],
        transform=lambda u, v: (u + 0.2 * v, v + 0.1 * u * 0),
    )
    rng = np.random.default_rng(5)
    for u0, v0 in rng.uniform(0.05, 0.95, size=(20, 2)):
        p = T.point(u0, v0)
        u, v = invert(T, p)
        assert np.hypot(u - u0, v - v0) < 1e-10


def test_partition_of_unity():
    space = unit_space((2, 3), iu=(0.3, 0.6), iv=(0.5,))
    ones = SplineFunc2D(space, np.ones((space.nu, space.nv)))
    rng = np.random.default_rng(8)
    uu, vv = rng.uniform(0, 1, (2, 50))
    assert np.allclose(ones.value(uu, vv), 1.0, atol=1e-13)


def test_map_control_net_is_a_read_only_copy():
    ctrl = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    T = SplineMap2D(TensorSplineSpace((1, 1), [0, 0, 1, 1], [0, 0, 1, 1]), ctrl)
    with pytest.raises(ValueError):
        T.ctrl[1, 1, 0] = 2.0
    ctrl[1, 1, 0] = 2.0
    assert T.ctrl[1, 1, 0] == 1.0
    assert np.array_equal(T.point(1.0, 1.0), [1.0, 1.0])


def test_map_bijectivity_check():
    space = TensorSplineSpace((1, 1), [0, 0, 1, 1], [0, 0, 1, 1])
    folded = np.array([[[0.0, 0.0], [0.0, 1.0]], [[-1.0, 0.5], [1.0, 1.0]]])
    with pytest.raises(GeometryError):
        SplineMap2D(space, folded)


def _sampled_check(space, ctrl):
    """The error text of the sampled Jacobian check alone, as SplineMap2D
    made it before the hodograph certificate, or None if it passes."""
    T = SplineMap2D(space, ctrl, check_bijective=False)
    us, vs = [], []
    for brk, d, acc in ((space.breakpoints_u(), space.du, us), (space.breakpoints_v(), space.dv, vs)):
        for a, b in zip(brk[:-1], brk[1:]):
            acc.extend(np.linspace(a, b, d + 3))
    uu, vv = np.meshgrid(np.unique(us), np.unique(vs), indexing="ij")
    det = T.jacobian_det(uu, vv)
    if np.min(det) > 0.0:
        return None
    return f"map Jacobian is not positive on the sampled grid (min {np.min(det):.2e})"


def _element_dets(T, m):
    """det J on an m x m grid of every knot element, each on its own piece,
    so the grid lines on a C0 knot line read both sides."""
    s = T.space
    bu, bv = s.breakpoints_u(), s.breakpoints_v()
    out = []
    for u0, u1 in zip(bu[:-1], bu[1:]):
        for v0, v1 in zip(bv[:-1], bv[1:]):
            uu, vv = (x.ravel() for x in np.meshgrid(np.linspace(u0, u1, m), np.linspace(v0, v1, m)))
            span = (find_span(s.tu, s.du, 0.5 * (u0 + u1)), find_span(s.tv, s.dv, 0.5 * (v0 + v1)))
            jac = splines._jacobian(T, uu, vv, span)
            out.append(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])
    return np.concatenate(out)


#: folded draws: of 4,000 nets of one degree-(2, 2) element, the 3 x 3 grid
#: plus N(0, 0.25^2) noise, on these 27 the sampled check passes while
#: det J < 0 somewhere on a 401 x 401 grid
_FOLD_NOISE = np.random.default_rng(0).normal(0.0, 0.25, (4000, 3, 3, 2))
FOLDED_DRAWS = (397, 537, 568, 585, 826, 969, 1141, 1156, 1196, 1274, 1416, 1444, 1769, 2184,
                2185, 2455, 2490, 2523, 2545, 2721, 2927, 2978, 3308, 3344, 3595, 3689, 3829)


def _folded_draw(k):
    grid = np.stack(np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], indexing="ij"), axis=-1)
    return unit_space((2, 2)), grid + _FOLD_NOISE[k]


@st.composite
def _jittered_nets(draw):
    """A space of degree 1-3 per direction with up to two interior knots of
    multiplicity 1 up to the degree, and its Greville grid jittered by up
    to a drawn share of the grid step."""
    degrees, knots = [], []
    for _ in range(2):
        d = draw(st.integers(1, 3))
        inner = draw(st.lists(st.sampled_from([0.2, 0.35, 0.5, 0.8]), max_size=2, unique=True))
        mult = [draw(st.integers(1, d)) for _ in inner]
        degrees.append(d)
        knots.append([0.0] * (d + 1) + [k for k, m in sorted(zip(inner, mult)) for _ in range(m)]
                     + [1.0] * (d + 1))
    space = TensorSplineSpace(degrees, *knots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.05, 0.2, 0.4, 0.8]))
    grid = np.stack(np.meshgrid(greville(space.tu, space.du), greville(space.tv, space.dv),
                                indexing="ij"), axis=-1)
    step = 1.0 / max(space.nu - 1, space.nv - 1)
    return space, grid + share * step * rng.uniform(-1.0, 1.0, grid.shape)


def _with_folded_examples(test):
    for k in FOLDED_DRAWS:
        test = example(_folded_draw(k))(test)
    return test


@settings(max_examples=200, deadline=None)
@given(_jittered_nets())
@_with_folded_examples
def test_hodograph_certificate_accepts_only_positive_jacobians(case):
    space, ctrl = case
    T = SplineMap2D(space, ctrl, check_bijective=False)
    if splines._jacobian_certified(T):
        assert np.min(_element_dets(T, 41)) > 0.0
    # the map accepts or raises exactly as the sampled check alone does
    try:
        SplineMap2D(space, ctrl)
        got = None
    except GeometryError as exc:
        got = str(exc)
    assert got == _sampled_check(space, ctrl)


def test_folded_draws_fail_the_certificate():
    for k in FOLDED_DRAWS:
        T = SplineMap2D(*_folded_draw(k), check_bijective=False)
        assert not splines._jacobian_certified(T), k


# -- tensor evaluation kernel against the per-point tensordot reference --------


def reference_tensor_eval(space, values, u, v):
    """Per-point tensordot evaluation of sum_ij values[i, j] B_i(u) B_j(v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    scalar = u.ndim == 0
    uu, vv = np.ravel(u), np.ravel(v)
    tail = values.shape[2:]
    out = np.zeros((len(uu),) + tail)
    for k in range(len(uu)):
        fu, bu = space.basis_u(uu[k])
        fv, bv = space.basis_v(vv[k])
        block = values[fu : fu + space.du + 1, fv : fv + space.dv + 1]
        out[k] = np.tensordot(np.outer(bu, bv), block, axes=2)
    out = out.reshape(u.shape + tail)
    return out[()] if scalar else out


def reference_tensor_jacobian(space, ctrl, u, v):
    """Per-point tensordot Jacobian, hodograph nets rebuilt on every call."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    scalar = u.ndim == 0
    uu, vv = np.ravel(u), np.ravel(v)
    out = np.zeros((len(uu), 2, 2))
    nu, nv = ctrl.shape[0], ctrl.shape[1]
    ku, du1, cu = derivative_data(space.tu, space.du, ctrl.reshape(nu, -1))
    cu = cu.reshape(-1, nv, *ctrl.shape[2:])
    flat_u = np.moveaxis(ctrl, 1, 0).reshape(nv, -1)
    kv, dv1, cv = derivative_data(space.tv, space.dv, flat_u)
    cv = np.moveaxis(cv.reshape(-1, nu, *ctrl.shape[2:]), 0, 1)
    for k in range(len(uu)):
        fu, bu = basis_row(ku, du1, uu[k])
        fv0, bv0 = space.basis_v(vv[k])
        block = cu[fu : fu + du1 + 1, fv0 : fv0 + space.dv + 1]
        out[k, :, 0] = np.tensordot(np.outer(bu, bv0), block, axes=2)
        fu0, bu0 = space.basis_u(uu[k])
        fv, bv = basis_row(kv, dv1, vv[k])
        block = cv[fu0 : fu0 + space.du + 1, fv : fv + dv1 + 1]
        out[k, :, 1] = np.tensordot(np.outer(bu0, bv), block, axes=2)
    out = out.reshape(u.shape + (2, 2))
    return out[()] if scalar else out


KERNEL_CASES = [
    ((1, 1), (0.5,), (0.3, 0.7)),
    ((2, 3), (0.25, 0.5, 0.5), (0.4,)),
    ((3, 2), (0.2, 0.6), (0.35, 0.7, 0.9)),
]


def _jittered_map(degrees, iu, iv, seed):
    """A bijective map: the Greville grid of the space, jittered a little."""
    space = unit_space(degrees, iu, iv)
    rng = np.random.default_rng(seed)
    return make_map(
        degrees, space.tu, space.tv, transform=lambda u, v: (u, v) + rng.uniform(-0.01, 0.01, 2)
    )


def _kernel_params(space, seed):
    """Random parameters plus every breakpoint, including u = 1 and v = 1."""
    rng = np.random.default_rng(seed)
    us = np.concatenate([rng.uniform(0, 1, 5), space.breakpoints_u()])
    vs = np.concatenate([rng.uniform(0, 1, 4), space.breakpoints_v()])
    return np.meshgrid(us, vs, indexing="ij")


@pytest.mark.parametrize("degrees, iu, iv", KERNEL_CASES)
def test_tensor_kernel_matches_tensordot_reference(degrees, iu, iv):
    T = _jittered_map(degrees, iu, iv, seed=11)
    space = T.space
    uu, vv = _kernel_params(space, seed=12)
    assert np.array_equal(T.point(uu, vv), reference_tensor_eval(space, T.ctrl, uu, vv))
    assert np.array_equal(
        T.jacobian(uu, vv), reference_tensor_jacobian(space, T.ctrl, uu, vv)
    )
    coeffs = np.random.default_rng(13).normal(size=(space.nu, space.nv))
    f = SplineFunc2D(space, coeffs)
    assert np.array_equal(
        f.value(uu, vv), reference_tensor_eval(space, coeffs[..., None], uu, vv)[..., 0]
    )
    for u, v in zip(uu.ravel(), vv.ravel()):
        assert np.array_equal(T.point(u, v), reference_tensor_eval(space, T.ctrl, u, v))
        assert np.array_equal(
            T.jacobian(u, v), reference_tensor_jacobian(space, T.ctrl, u, v)
        )


def reference_piece_point_jac(T, x, su, sv):
    """Per-point tensordot T and Jacobian at x (n, 2) on the pieces of the
    knot spans (su, sv): the scalar triangle (A2.2) at each given span, and
    each hodograph's on its own knots at one span lower."""
    s, (ku, du1, cu), (kv, dv1, cv) = T.space, T.hodograph_u, T.hodograph_v
    p, jac = np.zeros((len(x), 2)), np.zeros((len(x), 2, 2))
    for k, ((u, v), a, b) in enumerate(zip(x, su, sv)):
        bu, bv = reference_basis_funs(s.tu, s.du, a, u), reference_basis_funs(s.tv, s.dv, b, v)
        hu, hv = reference_basis_funs(ku, du1, a - 1, u), reference_basis_funs(kv, dv1, b - 1, v)
        i, j = a - s.du, b - s.dv
        p[k] = np.tensordot(np.outer(bu, bv), T.ctrl[i : i + s.du + 1, j : j + s.dv + 1], axes=2)
        jac[k, :, 0] = np.tensordot(np.outer(hu, bv), cu[i : i + s.du, j : j + s.dv + 1], axes=2)
        jac[k, :, 1] = np.tensordot(np.outer(bu, hv), cv[i : i + s.du + 1, j : j + s.dv], axes=2)
    return p, jac


@st.composite
def _kernel_lanes(draw):
    """A map of degree 1-3 per direction with repeated interior knots,
    parameters in and beyond the square (breakpoints among them) and, per
    lane, the spans of any non-empty knot interval."""
    space, ctrl = draw(_jittered_nets())
    T = SplineMap2D(space, ctrl, check_bijective=False)
    brk = sorted(set(space.breakpoints_u()) | set(space.breakpoints_v()))
    x = draw(arrays(np.float64, (draw(st.integers(1, 12)), 2),
                    elements=st.floats(-0.25, 1.25) | st.sampled_from(brk)))
    span = []
    for t, d in ((space.tu, space.du), (space.tv, space.dv)):
        pieces = (np.flatnonzero(np.diff(t[d : len(t) - d]) > 0) + d).tolist()
        span.append(np.array(draw(st.lists(st.sampled_from(pieces), min_size=len(x), max_size=len(x)))))
    return T, x, span


@settings(max_examples=150, deadline=None)
@given(_kernel_lanes())
def test_point_jac_equals_the_tensordot_references(case):
    T, x, span = case
    s = T.space
    p, jac = splines._point_jac(T, x)
    assert p.tobytes() == reference_tensor_eval(s, T.ctrl, x[:, 0], x[:, 1]).tobytes()
    assert jac.tobytes() == reference_tensor_jacobian(s, T.ctrl, x[:, 0], x[:, 1]).tobytes()
    own = [find_spans(s.tu, s.du, x[:, 0]), find_spans(s.tv, s.dv, x[:, 1])]
    ref_p, ref_jac = reference_piece_point_jac(T, x, *own)
    assert ref_p.tobytes() == p.tobytes() and ref_jac.tobytes() == jac.tobytes()
    # other pieces, extended to the lanes' parameters, in Newton's trial shape
    p, jac = splines._point_jac(T, x[:, None], [a[:, None] for a in span])
    ref_p, ref_jac = reference_piece_point_jac(T, x, *span)
    assert p[:, 0].tobytes() == ref_p.tobytes() and jac[:, 0].tobytes() == ref_jac.tobytes()
    assert splines._piece_point(T, x, span).tobytes() == ref_p.tobytes()


@pytest.mark.parametrize("degrees, iu, iv", KERNEL_CASES)
def test_invert_is_deterministic(degrees, iu, iv):
    T = _jittered_map(degrees, iu, iv, seed=21)
    twin = _jittered_map(degrees, iu, iv, seed=21)
    uu, vv = _kernel_params(T.space, seed=22)
    for p in T.point(uu, vv).reshape(-1, 2):
        first = invert(T, p)
        assert invert(T, p) == first
        assert invert(twin, p) == first
        assert invert(T, p, guess=first) == first


# -- batched inversion against the scalar Newton it replaced -------------------


def reference_invert(T, p, guess=None):
    """Scalar clamped damped Newton: the per-point inversion ``invert_points``
    batches; raises InversionError where it does not converge."""
    p = np.asarray(p, dtype=float)
    tol = T.invert_tol
    if guess is None:
        d = np.linalg.norm(T.seed_points - p, axis=-1)
        u, v = (float(x) for x in T.seed_params[int(np.argmin(d))])
    else:
        u, v = float(guess[0]), float(guess[1])
    r = T.point(u, v) - p
    res = float(np.linalg.norm(r))
    for _ in range(splines.INVERT_MAX_ITER):
        if res <= tol:
            return u, v
        jac = T.jacobian(u, v)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        step_u, step_v = float(step[0]), float(step[1])
        lam, improved = 1.0, False
        while lam > 1.0 / 4096:
            u2 = min(max(u + lam * step_u, 0.0), 1.0)
            v2 = min(max(v + lam * step_v, 0.0), 1.0)
            r2 = T.point(u2, v2) - p
            n2 = float(np.linalg.norm(r2))
            if n2 < res:
                u, v, r, res, improved = u2, v2, r2, n2, True
                break
            lam *= 0.5
        if not improved:
            break
    if res <= tol:
        return u, v
    raise InversionError(f"residual {res:.2e}")


def _reference_try(T, p, guess=None):
    try:
        return reference_invert(T, p, guess)
    except InversionError:
        return None


def _assert_lanes_match_reference(T, pts, guesses):
    uv, ok = invert_points(T, pts, guesses)
    assert uv.shape == (len(pts), 2) and ok.shape == (len(pts),)
    for k, p in enumerate(pts):
        ref = _reference_try(T, p, None if guesses is None else guesses[k])
        assert bool(ok[k]) == (ref is not None), (k, p)
        if ref is not None:
            assert np.array(ref).tobytes() == uv[k].tobytes(), (k, p, ref, uv[k])


def _polar(u, v, bend):
    return (0.3 + u) * np.cos(bend * v), (0.3 + u) * np.sin(bend * v)


@st.composite
def _inversion_problems(draw):
    """A jittered map and points inside, on and outside its image boundary
    (corners included), with or without per-lane guesses."""
    degrees, iu, iv = draw(st.sampled_from(KERNEL_CASES))
    T = _jittered_map(degrees, iu, iv, seed=draw(st.integers(0, 2**16)))
    bend = draw(st.sampled_from([0.0, 1.5, 3.0]))
    if bend:  # a polar sector: full Newton steps overshoot, damping is needed
        T = SplineMap2D(T.space, np.stack(_polar(T.ctrl[..., 0], T.ctrl[..., 1], bend), axis=-1))
    unit = st.floats(0.0, 1.0)
    inner = draw(arrays(np.float64, (draw(st.integers(1, 6)), 2), elements=unit))
    edge = draw(arrays(np.float64, (draw(st.integers(1, 6)), 2), elements=unit))
    sides = draw(st.lists(st.sampled_from([(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)]),
                          min_size=len(edge), max_size=len(edge)))
    for k, (axis, value) in enumerate(sides):
        edge[k, axis] = value
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    on_edge = T.point_pairs(np.concatenate([edge, corners]))
    push = draw(st.lists(st.floats(1e-9, 0.5), min_size=len(on_edge), max_size=len(on_edge)))
    centre = T.point(0.5, 0.5)
    outside = on_edge + np.array(push)[:, None] * (on_edge - centre)
    pts = np.concatenate([T.point_pairs(inner), on_edge, outside])
    guesses = None
    if draw(st.booleans()):
        guesses = draw(arrays(np.float64, (len(pts), 2), elements=unit))
    return T, pts, guesses


@settings(max_examples=60, deadline=None)
@given(_inversion_problems())
def test_invert_points_lanes_equal_scalar_newton(problem):
    T, pts, guesses = problem
    _assert_lanes_match_reference(T, pts, guesses)


def test_invert_points_singular_jacobian_lanes_take_least_squares_steps():
    # the edge u = 0 collapses to one point, so dT/dv vanishes there and
    # the stacked solve fails for the whole batch
    space = TensorSplineSpace((1, 1), [0, 0, 1, 1], [0, 0, 1, 1])
    ctrl = np.array([[[0.0, 0.5], [0.0, 0.5]], [[1.0, 0.0], [1.0, 1.0]]])
    T = SplineMap2D(space, ctrl, check_bijective=False)
    pts = T.point_pairs([[0.5, 0.3], [0.7, 0.6], [0.2, 0.9], [0.9, 0.1]])
    guesses = np.array([[0.0, 0.3], [0.5, 0.5], [0.0, 0.8], [0.6, 0.6]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(T.jacobian(guesses[:, 0], guesses[:, 1]), np.ones((4, 2, 1)))
    _assert_lanes_match_reference(T, pts, guesses)


def reference_piece_newton(T, p, guess, su, sv):
    """Scalar damped Newton on the piece of the spans (su, sv), unclamped:
    the per-lane loop ``splines._newton`` batches.  Returns the last
    iterate, its residual and the scale each step took."""
    x, at = np.array(guess, dtype=float), ([su], [sv])
    r = reference_piece_point_jac(T, x[None], *at)[0][0] - p
    res, scales = float(np.linalg.norm(r)), []
    for _ in range(splines.INVERT_MAX_ITER):
        if res <= T.invert_tol:
            break
        jac = reference_piece_point_jac(T, x[None], *at)[1][0]
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        for lam in splines._LINE_SEARCH:
            r2 = reference_piece_point_jac(T, (x + lam * step)[None], *at)[0][0] - p
            if np.linalg.norm(r2) < res:
                x, r, res = x + lam * step, r2, float(np.linalg.norm(r2))
                scales.append(lam)
                break
        else:
            break
    return x, res, scales


@pytest.mark.parametrize("degrees, iu, iv", KERNEL_CASES)
def test_newton_on_pieces_equals_scalar_unclamped_newton(monkeypatch, degrees, iu, iv):
    # every lane starts at the centre of an element of a polar-bent map and
    # solves on that element's piece, so most leave their element, full
    # steps overshoot and lanes accepted at a shorter scale go on
    T = _jittered_map(degrees, iu, iv, seed=5)
    T = SplineMap2D(T.space, np.stack(_polar(T.ctrl[..., 0], T.ctrl[..., 1], 3.0), axis=-1))
    s = T.space
    pts = T.point_pairs(np.random.default_rng(6).uniform(0.0, 1.0, (8, 2)))
    centres = np.array([[0.5 * (a + b), 0.5 * (c + d)] for _, _, (a, b, c, d) in s.elements()])
    pts, guess = np.repeat(pts, len(centres), axis=0), np.tile(centres, (len(pts), 1))
    span = [find_spans(s.tu, s.du, guess[:, 0]), find_spans(s.tv, s.dv, guess[:, 1])]
    calls, point_jac = [], splines._point_jac
    monkeypatch.setattr(splines, "_point_jac", lambda T, x, at: calls.append(x.shape) or point_jac(T, x, at))
    uv, ok = splines._newton(T, pts, guess.copy(), span)
    taken = []
    for k, (p, g, a, b) in enumerate(zip(pts, guess, *span)):
        x, res, scales = reference_piece_newton(T, p, g, a, b)
        assert uv[k].tobytes() == x.tobytes() and ok[k] == (res <= T.invert_tol), k
        taken.append(scales)
    assert not ok.all()  # some lanes end outside their piece's reach
    # a lane took a shorter scale and then another step, whose Jacobian a
    # call on the stale lanes (parameters (n, 2); the full steps' are
    # (n, 1, 2)) recomputed
    assert any(lam < 1.0 for scales in taken for lam in scales[:-1])
    assert any(len(shape) == 2 for shape in calls[1:])


def test_invert_points_empty_and_one_lane():
    T = _jittered_map(*KERNEL_CASES[1], seed=3)
    uv, ok = invert_points(T, np.zeros((0, 2)))
    assert uv.shape == (0, 2) and ok.shape == (0,)
    p = T.point(0.3, 0.6)
    uv, ok = invert_points(T, p)
    assert ok.tolist() == [True] and tuple(uv[0]) == invert(T, p)


def test_row_norms_round_like_the_norm_of_one_row():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2000, 2)) * 10.0 ** rng.integers(-12, 3, size=(2000, 1))
    want = np.array([np.linalg.norm(r) for r in rows])
    assert splines._norms(rows).tobytes() == want.tobytes()


def reference_basis_funs(knots, degree, span, t):
    """Scalar Cox-de Boor triangle (A2.2) at one parameter."""
    out = np.zeros(degree + 1)
    left = np.zeros(degree + 1)
    right = np.zeros(degree + 1)
    out[0] = 1.0
    for j in range(1, degree + 1):
        left[j] = t - knots[span + 1 - j]
        right[j] = knots[span + j] - t
        saved = 0.0
        for r in range(j):
            tmp = out[r] / (right[r + 1] + left[j - r])
            out[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        out[j] = saved
    return out


@st.composite
def _knots_and_params(draw):
    """Clamped knot vectors of degree 0-5 with repeated interior knots, and
    parameters at every breakpoint, both domain ends and their neighbours."""
    degree = draw(st.integers(0, 5))
    a = draw(st.sampled_from([0.0, -1.5, 0.3]))
    b = a + draw(st.sampled_from([1.0, 0.25, 3.0]))
    fracs = draw(st.lists(st.floats(0.01, 0.99), max_size=5))
    vals = np.unique([a + (b - a) * f for f in fracs])
    vals = vals[(vals > a) & (vals < b)]
    mults = draw(st.lists(st.integers(1, max(degree, 1)), min_size=len(vals), max_size=len(vals)))
    knots = np.array([a] * (degree + 1) + list(np.repeat(vals, mults)) + [b] * (degree + 1))
    brk = np.unique(knots)
    inside = draw(st.lists(st.floats(a, b), max_size=10))
    ts = np.concatenate(
        [brk, np.nextafter(brk, -np.inf), np.nextafter(brk, np.inf), inside]
    )
    return knots, degree, ts


@settings(max_examples=200, deadline=None)
@given(_knots_and_params())
def test_batched_basis_equals_scalar_triangle(case):
    knots, degree, ts = case
    first, vals = basis_rows(knots, degree, ts)
    assert vals.shape == (len(ts), degree + 1)
    for k, t in enumerate(ts):
        span = find_span(knots, degree, t)
        assert first[k] == span - degree
        ref = reference_basis_funs(knots, degree, span, t)
        assert vals[k].tobytes() == ref.tobytes()
        f, row = basis_row(knots, degree, t)
        assert f == span - degree and row.tobytes() == ref.tobytes()


# -- cold batched probing against the warm-started chain ------------------------


def reference_inside_arcs(T1, gamma, probes=129):
    """Probes inverted one by one, each warm-started from the last success;
    arc ends bisected from a cold inversion of the inside probe."""
    a, b = gamma.domain
    ts = np.linspace(a, b, probes)
    ok, warm = [], None
    for t in ts:
        warm = _reference_try(T1, gamma.point(t), warm)
        ok.append(warm is not None)

    def bisect(t_out, t_in, inside_right, tol=1e-10):
        warm = _reference_try(T1, gamma.point(t_in))
        lo, hi = (t_out, t_in) if inside_right else (t_in, t_out)
        while abs(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            sol = _reference_try(T1, gamma.point(mid), warm)
            if sol is not None:
                warm = sol
            if inside_right:
                lo, hi = (lo, mid) if sol is not None else (mid, hi)
            else:
                lo, hi = (mid, hi) if sol is not None else (lo, mid)
        return hi if inside_right else lo

    arcs, i = [], 0
    while i < len(ts):
        if not ok[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(ts) and ok[j + 1]:
            j += 1
        lo = bisect(ts[i - 1], ts[i], True) if i > 0 else ts[i]
        hi = bisect(ts[j + 1], ts[j], False) if j + 1 < len(ts) else ts[j]
        if hi - lo > 1e-9 * (b - a):
            arcs.append((float(lo), float(hi)))
        i = j + 1
    return arcs


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _fixture_map(name, key=None):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        m = json.load(fh)
    m = m[key] if key else m
    return SplineMap2D(TensorSplineSpace(m["degrees"], m["knots_u"], m["knots_v"]), m["control"])


def _partial_pair(seed, warped):
    """T1 bilinear on 2x2 elements in a random affine frame (its centre
    moved when ``warped``); T2 one bilinear element over part of T1's
    square, jittered and turned to a random side."""
    rng = np.random.default_rng(seed)
    A = np.array([[1.0, 0.0], [0.0, 1.0]]) + rng.uniform(-0.3, 0.3, (2, 2))
    shift = rng.uniform(-1.0, 1.0, 2)
    g = np.array([0.0, 0.5, 1.0])
    t1 = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    if warped:
        t1[1, 1] += rng.uniform(-0.08, 0.08, 2)
    lo, hi = np.array([rng.uniform(0.2, 0.45), -0.15]), np.array([1.15, 1.15])
    box = np.stack(np.meshgrid([0.0, 1.0], [0.0, 1.0], indexing="ij"), axis=-1)
    box = box * (hi - lo) + lo + rng.uniform(-0.04, 0.04, (2, 2, 2))
    for _ in range(int(rng.integers(4))):
        box = np.stack([1.0 - box[..., 1], box[..., 0]], axis=-1)
    knots = [0.0, 0.0, 0.5, 1.0, 1.0]
    T1 = SplineMap2D(TensorSplineSpace((1, 1), knots, knots), t1 @ A.T + shift)
    T2 = SplineMap2D(TensorSplineSpace((1, 1), [0, 0, 1, 1], [0, 0, 1, 1]), box @ A.T + shift)
    return T1, T2


def _coverage_pairs():
    yield "quasi fixtures", _fixture_map("quasi_target.json", "map"), _fixture_map(
        "quasi_source.json", "map"
    )
    yield "map fixtures", _fixture_map("map_grid_2x2.json"), _fixture_map("map_offset.json")
    for seed in range(4):
        yield f"partial {seed}", *_partial_pair(seed, warped=False)
        yield f"warped T1 {seed}", *_partial_pair(100 + seed, warped=True)
    c, s = np.cos(0.6), np.sin(0.6)
    yield "turned T2", make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1)), make_map(
        knots_u=(0, 0, 0.3, 0.7, 1, 1), knots_v=(0, 0, 0.5, 1, 1),
        transform=lambda u, v: (0.7 + 0.8 * (c * u - s * v), -0.1 + 0.8 * (s * u + c * v)),
    )
    curved = _jittered_map((2, 3), (0.25, 0.5, 0.5), (0.4,), seed=5)
    yield "curved T1", curved, make_map(
        degrees=(2, 2), knots_u=[0, 0, 0, 0.5, 1, 1, 1], knots_v=[0, 0, 0, 1, 1, 1],
        transform=lambda u, v: (0.35 + 0.9 * u + 0.1 * v * v, -0.2 + 0.8 * v),
    )


@pytest.mark.parametrize("name, T1, T2", list(_coverage_pairs()))
def test_cold_batched_probing_loses_no_coverage(name, T1, T2):
    gammas = knot_iso_curves(T2) + boundary_curves(T2)
    got = splines._inside_arcs(T1, gammas)
    assert len(got) == len(gammas)
    for gamma, arcs in zip(gammas, got):
        want = reference_inside_arcs(T1, gamma)
        assert len(arcs) == len(want), (name, arcs, want)
        assert np.allclose(arcs, want, rtol=0.0, atol=1e-10), (name, arcs, want)


def _all_pairs_inside_arcs(T1, gammas):
    """``splines._inside_arcs`` with every span tested against every wall,
    as before pairs whose boxes lie apart were skipped."""
    tol = T1.invert_tol
    walls = [w for c in boundary_curves(T1) for w in c.spans()]
    cuts = []
    for gamma in gammas:
        brk = gamma.breakpoints()
        ts = list(brk)
        for u0, u1, span in zip(brk[:-1], brk[1:], gamma.spans()):
            s0, s1 = span.domain
            for wall in walls:
                local = splines._shared_cuts(span, wall, tol)
                if local is None:
                    local = [h.t_a for h in arrangement.intersect_curve_pair(span, wall, tol)]
                ts += [u0 + (t - s0) * ((u1 - u0) / (s1 - s0)) for t in local]
        cuts.append(np.unique(ts))
    mids = [g.point(0.5 * (t[:-1] + t[1:])) for g, t in zip(gammas, cuts)]
    ok = np.split(invert_points(T1, np.concatenate(mids))[1], np.cumsum([len(m) for m in mids]))
    arcs = []
    for gamma, t, inside in zip(gammas, cuts, ok):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], inside, [0])).astype(int)))
        a, b = gamma.domain
        arcs.append([
            (float(t[i]), float(t[j]))
            for i, j in zip(edges[::2], edges[1::2])
            if t[j] - t[i] > 1e-9 * (b - a)
        ])
    return arcs


def _arcs_or_error(inside_arcs, T1, gammas):
    try:
        return repr(inside_arcs(T1, gammas))  # repr keeps signed zeros
    except CurveplanError as exc:
        return type(exc), str(exc)


def _assert_arcs_equal_all_pairs(T1, gammas):
    got = _arcs_or_error(splines._inside_arcs, T1, gammas)
    assert got == _arcs_or_error(_all_pairs_inside_arcs, T1, gammas)


@pytest.mark.parametrize("name, T1, T2", list(_coverage_pairs()))
def test_inside_arcs_equal_all_pairs(name, T1, T2):
    _assert_arcs_equal_all_pairs(T1, knot_iso_curves(T2) + boundary_curves(T2))


def test_inside_arcs_drop_segment_touches_past_the_box_pad():
    # a segment parallel to T1's bottom wall, 0.9 tol outside it, starts
    # just past the wall's end: the padded boxes lie apart, and the closed
    # form of two segments, clamped to both, finds their ends too far apart
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), transform=lambda u, v: (c * u - s * v, s * u + c * v))
    tol = T1.invert_tol
    wall = boundary_curves(T1)[0].spans()[1]
    end, d = wall.ctrl[-1], np.array([c, s])
    start = end + 0.585 * tol * d + 0.9 * tol * np.array([s, -c])
    gamma = ParamCurve("segment", [start, start + 0.5 * d])
    assert wall.kind == gamma.kind == "segment"
    assert arrangement._apart(arrangement._box(gamma.nets()[0][2]), arrangement._box(wall.nets()[0][2]), tol)
    assert arrangement.intersect_curve_pair(gamma, wall, tol) == []
    assert splines._inside_arcs(T1, [gamma]) == [[]]
    _assert_arcs_equal_all_pairs(T1, [gamma])


@st.composite
def _bilinear_pairs_on_a_line(draw):
    """T1 bilinear on the unit square; T2 one bilinear box on 1-3 elements
    per direction with a side on the line of T1's bottom, that side
    shorter or longer than T1's, turned to another side of T1 by quarter
    turns, and both maps in one turned frame."""
    knots = st.sampled_from([(), (0.5,), (0.3, 0.7)])
    ku1, kv1, ku2, kv2 = (draw(knots) for _ in range(4))
    x0 = draw(st.floats(-0.5, 0.9))
    x1 = x0 + draw(st.floats(0.05, 1.5))
    h = draw(st.floats(0.05, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    y0, y1 = min(0.0, h), max(0.0, h)
    turns = draw(st.integers(0, 3))
    angle = draw(st.sampled_from([0.0, np.pi / 4, 0.6]))
    c, s = np.cos(angle), np.sin(angle)

    def frame(x, y):
        return c * x - s * y, s * x + c * y

    def box(u, v):
        x, y = x0 + (x1 - x0) * u, y0 + (y1 - y0) * v
        for _ in range(turns):  # a quarter turn about the square's centre
            x, y = 1.0 - y, x
        return frame(x, y)

    T1 = make_map(knots_u=(0, 0, *ku1, 1, 1), knots_v=(0, 0, *kv1, 1, 1), transform=frame)
    T2 = make_map(knots_u=(0, 0, *ku2, 1, 1), knots_v=(0, 0, *kv2, 1, 1), transform=box)
    return T1, T2


@settings(max_examples=60, deadline=None)
@given(_bilinear_pairs_on_a_line())
def test_inside_arcs_of_bilinear_pairs_on_a_line_equal_all_pairs(pair):
    T1, T2 = pair
    _assert_arcs_equal_all_pairs(T1, knot_iso_curves(T2) + boundary_curves(T2))


@st.composite
def _points_about_maps(draw):
    """A jittered map, maybe bent into a polar sector and turned, and points
    inside its image, on its edges and pushed off its edges away from its
    centre by 0-10^10 times its inversion tolerance (10^10 is a tenth of
    the box diagonal), corners included."""
    degrees, iu, iv = draw(st.sampled_from(KERNEL_CASES))
    T = _jittered_map(degrees, iu, iv, seed=draw(st.integers(0, 2**16)))
    bend, angle = draw(st.sampled_from([0.0, 1.5, 3.0])), draw(st.floats(0.0, 2.0 * np.pi))
    x, y = _polar(T.ctrl[..., 0], T.ctrl[..., 1], bend) if bend else (T.ctrl[..., 0], T.ctrl[..., 1])
    c, s = np.cos(angle), np.sin(angle)
    T = SplineMap2D(T.space, np.stack([c * x - s * y, s * x + c * y], axis=-1))
    unit = st.floats(0.0, 1.0)
    inner = draw(arrays(np.float64, (draw(st.integers(1, 4)), 2), elements=unit))
    n = draw(st.integers(1, 12))
    edge = draw(arrays(np.float64, (n, 2), elements=unit))
    for k, (axis, value) in enumerate(draw(st.lists(
            st.sampled_from([(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)]), min_size=n, max_size=n))):
        edge[k, axis] = value
    on_edge = T.point_pairs(np.concatenate([edge, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]]))
    away = on_edge - T.point(0.5, 0.5)
    away /= np.linalg.norm(away, axis=1)[:, None]
    pushes = st.sampled_from([0.0, 1.0, 1.9, 2.0, 2.1, 3.0, 10.0, 1e3, 1e6, 1e9, 1e10])
    push = np.array(draw(st.lists(pushes, min_size=n + 4, max_size=n + 4)))
    return T, T.point_pairs(inner), on_edge, on_edge + (push * T.invert_tol)[:, None] * away, push


@settings(max_examples=100, deadline=None)
@given(_points_about_maps())
def test_box_pruning_drops_only_points_that_miss_the_image(case):
    T, inner, on_edge, pushed, push = case
    pad = 2.0 * T.invert_tol
    pts = np.concatenate([inner, on_edge, pushed])
    kept = splines._near_box(T, pts, pad)
    assert kept[: len(inner) + len(on_edge)].all()
    assert kept[len(inner) + len(on_edge):][push < 2.0].all()  # within the pad of the image
    dropped = pts[~kept]
    assert not invert_points(T, dropped)[1].any()
    gap = np.min([project_points(c, dropped, 65)[1] for c in boundary_curves(T)], axis=0)
    assert np.all(gap > pad)


# -- iso curves and pull-back ---------------------------------------------------


def test_knot_iso_curves_single_interior_knot():
    T = make_map(knots_u=(0, 0, 0.5, 1, 1))
    curves = knot_iso_curves(T)
    assert len(curves) == 1
    ts = np.linspace(0, 1, 9)
    pts = curves[0].point(ts)
    assert np.allclose(pts[:, 0], 0.5, atol=1e-14)
    assert np.allclose(pts[:, 1], ts, atol=1e-14)


def test_knot_iso_curves_empty_and_cross():
    assert knot_iso_curves(make_map()) == []
    both = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    assert len(knot_iso_curves(both)) == 2


def test_pull_back_identity():
    T = make_map()
    arc = ParamCurve("bezier", [(0.1, 0.1), (0.5, 0.9), (0.9, 0.1)])
    pb = pull_back(T, arc)
    assert pb.residual <= 1e-12
    for t in np.linspace(0, 1, 21):
        assert np.linalg.norm(pb.curve.point(t) - arc.point(t)) < 1e-9


def test_pull_back_scaling():
    T = make_map(transform=lambda u, v: (2 * u, 2 * v))
    seg = ParamCurve("segment", [(0, 0), (2, 2)])
    pb = pull_back(T, seg)
    assert pb.residual <= 1e-12
    assert np.allclose(pb.curve.point(0.0), [0, 0], atol=1e-10)
    assert np.allclose(pb.curve.point(1.0), [1, 1], atol=1e-10)


def test_pull_back_held_out_round_trip():
    space = TensorSplineSpace((1, 1), [0, 0, 1, 1], [0, 0, 1, 1])
    ctrl = np.array([[[0.0, 0.0], [0.2, 1.1]], [[1.0, -0.1], [1.4, 1.3]]])
    T1 = SplineMap2D(space, ctrl)
    T2 = make_map(
        transform=lambda u, v: (0.3 + 0.8 * u, 0.2 + 0.6 * v),
        knots_u=(0, 0, 0.5, 1, 1),
    )
    gamma = knot_iso_curves(T2)[0]
    pb = pull_back(T1, gamma, fit_tol=1e-8)
    held_out = np.linspace(*pb.source_range, 100)
    a, b = pb.source_range
    for t in held_out:
        s = (t - a) / (b - a)
        err = np.linalg.norm(T1.point_pairs(pb.curve.point(s)) - gamma.point(t))
        assert err <= 1e-8
    # no single cubic meets 1e-8 here, so this is the 12-control fit
    ts = splines._chebyshev_lobatto(a, b, splines.PULL_BACK_SAMPLES)
    params = (ts - a) / (b - a)
    inverted = invert_points(T1, gamma.point(ts))[0]
    knots = uniform_arclength_knots(inverted, 3, 12, sample_params=params)
    assert np.array_equal(pb.curve.knots, knots)
    assert np.array_equal(pb.curve.ctrl, fit_bspline(params, inverted, 3, knots, fix_ends=True))


def _held_out_residual(T1, gamma, pb, n=200):
    a, b = pb.source_range
    t = np.linspace(a, b, n)
    fitted = T1.point_pairs(pb.curve.point((t - a) / (b - a)))
    return float(np.max(splines._norms(fitted - gamma.point(t))))


def test_fixture_pull_backs_are_one_cubic_span():
    T1, T2 = _fixture_map("quasi_target.json", "map"), _fixture_map("quasi_source.json", "map")
    gammas = knot_iso_curves(T2) + boundary_curves(T2)
    pulled = [
        (gamma, pull_back(T1, gamma, arc=arc))
        for gamma, arcs in zip(gammas, splines._inside_arcs(T1, gammas))
        for arc in arcs
    ]
    assert pulled
    for gamma, pb in pulled:
        assert pb.curve.n_ctrl == 4 and pb.residual <= 1e-14
        assert _held_out_residual(T1, gamma, pb) <= 1e-8


@st.composite
def _affine_pull_backs(draw):
    """An affine degree-1 T1 with 0-2 interior knots per direction, and a
    one-span curve of degree 1-3 whose control points lie inside its image."""
    knots = [sorted(draw(st.lists(st.floats(0.1, 0.9), max_size=2, unique=True))) for _ in "uv"]
    space = unit_space((1, 1), *knots)
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    c, s = np.cos(angle), np.sin(angle)
    scale = np.diag([draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))])
    shear = np.array([[1.0, draw(st.floats(-0.5, 0.5))], [0.0, 1.0]])
    A = np.array([[c, -s], [s, c]]) @ shear @ scale
    shift = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    gu, gv = greville(space.tu, 1), greville(space.tv, 1)
    T1 = SplineMap2D(space, np.stack(np.meshgrid(gu, gv, indexing="ij"), axis=-1) @ A.T + shift)
    degree = draw(st.integers(1, 3))
    inner = draw(arrays(float, (degree + 1, 2), elements=st.floats(0.05, 0.95)))
    return T1, ParamCurve("bezier", inner @ A.T + shift)


@settings(max_examples=60, deadline=None)
@given(_affine_pull_backs())
def test_pull_back_through_an_affine_map_is_one_span(case):
    T1, gamma = case
    pb = pull_back(T1, gamma)
    assert pb.curve.n_ctrl == max(3, gamma.degree) + 1
    assert _held_out_residual(T1, gamma, pb) <= 1e-8


def test_pull_back_trims_to_image():
    T1 = make_map()  # unit square image
    seg = ParamCurve("segment", [(-0.5, 0.5), (1.5, 0.5)])
    pb = pull_back(T1, seg)
    assert pb.trimmed
    lo, hi = pb.source_range
    assert abs(lo - 0.25) < 1e-8 and abs(hi - 0.75) < 1e-8


def test_pull_back_finds_inside_stretch_shorter_than_any_sampling():
    # x = 600t - 300.5 and y dips to 0.8, so only t in [300.5/600, 301.5/600]
    # lies in the unit square: less than 1/128 of the curve
    gamma = ParamCurve("bezier", [(-300.5, 1.2), (-0.5, 0.4), (299.5, 1.2)])
    pb = pull_back(make_map(), gamma)
    assert pb.trimmed
    assert np.allclose(pb.source_range, (300.5 / 600, 301.5 / 600), rtol=0.0, atol=1e-12)


def _bezier_graph(f, degree):
    """The graph of a polynomial f of the given degree on [0, 1], exactly
    as a Bézier curve (its y net solves the interpolation at degree+1 points)."""
    x = np.linspace(0.0, 1.0, degree + 1)
    basis = [[comb(degree, i) * t**i * (1 - t) ** (degree - i) for i in range(degree + 1)] for t in x]
    return ParamCurve("bezier", np.column_stack([x, np.linalg.solve(basis, f(x))]))


def _sheared_map():
    """T1(u, v) = (u, v + u^2 - u): its bottom is the parabola y = x^2 - x."""
    bottom = _bezier_graph(lambda x: x * x - x, 2).ctrl
    return SplineMap2D(unit_space((2, 1)), np.stack([bottom, bottom + (0.0, 1.0)], axis=1))


def _touch_and_cross():
    # y = x^2 - x + 2 (x - 0.3)^2 (x - 0.8) touches T1's bottom from outside
    # at x = 0.3 and crosses it into T1's image at x = 0.8
    return _bezier_graph(lambda x: x * x - x + 2 * (x - 0.3) ** 2 * (x - 0.8), 3)


def test_pull_back_span_touching_and_crossing_curved_boundary():
    pb = pull_back(_sheared_map(), _touch_and_cross())
    assert np.allclose(pb.source_range, (0.8, 1.0), rtol=0.0, atol=1e-12)
    assert splines._inside_arcs(_sheared_map(), [_touch_and_cross()]) == [[pb.source_range]]


def test_shared_cuts_need_a_stretch_along_the_wall():
    wall = ParamCurve("bezier", [(-1.0, 0.0), (0.5, 0.0), (2.0, 0.0)])
    along = ParamCurve("bezier", [(-2.0, 0.0), (0.5, 0.0), (3.0, 0.0)])  # x = 5t - 2
    assert np.allclose(splines._shared_cuts(along, wall, 1e-9), (0.2, 0.8), rtol=0.0, atol=1e-12)
    arch = ParamCurve("bezier", [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])  # both ends on the wall
    assert splines._shared_cuts(arch, wall, 1e-9) is None
    # it starts within tol of the wall's end and crosses the wall later on
    corner = ParamCurve("bezier", [(2.0 + 1e-11, 0.0), (0.5, 1.0), (0.0, -1.0)])
    assert splines._shared_cuts(corner, wall, 1e-9) is None


def test_inside_arcs_raise_where_a_crossing_search_fails(monkeypatch):
    # a failed search on a pair that does not run together loses no cut
    monkeypatch.setattr(arrangement, "_MAX_STEPS", 3)
    with pytest.raises(GeometryError, match="overflow") as info:
        splines._inside_arcs(_sheared_map(), [_touch_and_cross()])
    assert type(info.value) is GeometryError


def test_pull_back_fit_error_names_worst_sample(monkeypatch):
    # T1 is bilinear on 2x2 elements with its centre moved, so T1^-1 kinks
    # where the segment crosses T1's knot lines and no cubic fits it to 1e-8
    space = unit_space((1, 1), iu=(0.5,), iv=(0.5,))
    g = np.array([0.0, 0.5, 1.0])
    ctrl = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    ctrl[1, 1] += (0.05, -0.05)
    T1 = SplineMap2D(space, ctrl)
    gamma = ParamCurve("segment", [(0.05, 0.2), (0.95, 0.8)])
    fits = []
    fit_bspline = splines.fit_bspline

    def recording_fit(params, points, degree, knots, **kw):
        ctrl = fit_bspline(params, points, degree, knots, **kw)
        fits.append((params, ParamCurve("bspline", ctrl, degree=degree, knots=knots)))
        return ctrl

    monkeypatch.setattr(splines, "fit_bspline", recording_fit)
    lo, hi = 0.1, 0.9
    with pytest.raises(FitError) as info:
        pull_back(T1, gamma, arc=(lo, hi))
    params, fit = fits[-1]
    ts = splines._chebyshev_lobatto(lo, hi, len(params))
    errs = [
        float(np.linalg.norm(T1.point_pairs(fit.point(s)) - gamma.point(t)))
        for s, t in zip(params, ts)
    ]
    assert info.value.residual == max(errs)
    assert lo < info.value.worst_sample < hi
    assert info.value.worst_sample == ts[int(np.argmax(errs))]


# -- interface drawings ---------------------------------------------------------


def test_interface_identical_maps_grid():
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    d = build_interface_drawing(T1, T2)
    rs = extract_and_classify(d)
    assert len(rs.regions) == 4
    assert np.allclose(sorted(r.signed_area for r in rs.regions), 0.25, atol=1e-9)


def test_interface_offset_map_splits_square():
    T1 = make_map()
    T2 = make_map(transform=lambda u, v: (0.5 + u, 0.5 + v))
    d = build_interface_drawing(T1, T2)
    rs = extract_and_classify(d)
    areas = sorted(r.signed_area for r in rs.regions)
    assert len(areas) == 2
    assert abs(areas[0] - 0.25) < 1e-8 and abs(areas[1] - 0.75) < 1e-8


def test_interface_short_shared_boundary_stretch():
    # T2's bottom and top run along T1's for 0.02 of T1's side, 1/51 of T2's
    T1 = make_map()
    T2 = make_map(transform=lambda u, v: (0.98 + 1.02 * u, v))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    areas = sorted(r.signed_area for r in rs.regions)
    assert len(areas) == 2
    assert abs(areas[0] - 0.02) < 1e-9 and abs(areas[1] - 0.98) < 1e-9


def _bent_map(interior_knots):
    """(u, v) -> (u, v + 0.2 u (1 - u)) exactly, degree 2 both ways, with the
    same interior knots both ways; the coefficients are blossoms."""
    knots = [0.0] * 3 + list(interior_knots) + [1.0] * 3
    pairs = list(zip(knots[1:-2], knots[2:-1]))
    ctrl = [[(a + b) / 2, (c + d) / 2 + 0.2 * ((a + b) / 2 - a * b)] for a, b in pairs for c, d in pairs]
    return SplineMap2D(unit_space((2, 2), interior_knots, interior_knots), np.reshape(ctrl, (len(pairs), len(pairs), 2)))


@pytest.mark.parametrize("knots2", [(0.5,), (0.3, 0.7)])
def test_interface_curved_shared_boundary(knots2):
    # T2 is T1 with the same image and curved boundary, on the same or other
    # knots: every boundary span pair runs together over a stretch
    rs = extract_and_classify(build_interface_drawing(_bent_map((0.5,)), _bent_map(knots2)))
    cuts = sorted({0.0, 0.5, 1.0, *knots2})
    widths = np.diff(cuts)
    want = sorted(float(a * b) for a in widths for b in widths)
    assert np.allclose(sorted(r.signed_area for r in rs.regions), want, rtol=0.0, atol=1e-9)


def test_interface_rotated_map_area_conserved():
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)

    def rot(u, v):
        x, y = u - 0.5, v - 0.5
        return (0.5 + 0.9 * (c * x - s * y), 0.5 + 0.9 * (c * x + s * y))

    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=rot)
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    assert abs(sum(r.signed_area for r in rs.regions) - 1.0) < 1e-9


def test_region_element_containment():
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1), knots_v=(0, 0, 0.5, 1, 1))
    T2 = make_map(transform=lambda u, v: (0.3 + 0.5 * u, 0.2 + 0.5 * v))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    from curveplan.quadrature import region_tiles

    u, _ = gauss01(3)
    for region in rs.regions:
        tiles = region_tiles(region, rs.drawing)
        ids = set()
        for tile in tiles:
            pts, _ = tile.grids(u, u)
            for p in pts.reshape(-1, 2):
                ids.add(T1.space.element_of(p[0], p[1]))
        assert len(ids) == 1


# -- spline products -------------------------------------------------------------


def _hat_func(space_knots, where):
    # degree-1 tensor function: hat in u at the interior knot, constant in v
    space = TensorSplineSpace((1, 1), space_knots, [0, 0, 1, 1])
    coeffs = np.zeros((space.nu, space.nv))
    coeffs[where, :] = 1.0
    return SplineFunc2D(space, coeffs)


def _composite_gauss_oracle(f, cuts_x, cuts_y, n=6):
    u, w = gauss01(n)
    total = 0.0
    for x0, x1 in zip(cuts_x[:-1], cuts_x[1:]):
        for y0, y1 in zip(cuts_y[:-1], cuts_y[1:]):
            xs = x0 + (x1 - x0) * u
            ys = y0 + (y1 - y0) * u
            xx, yy = np.meshgrid(xs, ys, indexing="ij")
            total += (x1 - x0) * (y1 - y0) * float(np.sum(np.outer(w, w) * f(xx, yy)))
    return total


def test_product_constants():
    T1, T2 = make_map(), make_map()
    s1 = SplineFunc2D(T1.space, np.ones((2, 2)))
    s2 = SplineFunc2D(T2.space, np.ones((2, 2)))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    assert abs(integrate_spline_product(s1, s2, T1, T2, rs, 2) - 1.0) < 1e-12


def test_product_separable():
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1))
    T2 = make_map(knots_v=(0, 0, 0.4, 1, 1))
    # s1 = u (linear), s2 = v (linear) -> integral over [0,1]^2 is 1/4
    s1 = SplineFunc2D(T1.space, np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]))
    s2 = SplineFunc2D(T2.space, np.array([[0.0, 0.4, 1.0], [0.0, 0.4, 1.0]]))
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    got = integrate_spline_product(s1, s2, T1, T2, rs, 3)
    assert abs(got - 0.25) < 1e-12


def test_product_hats_against_composite_oracle():
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1))
    T2 = make_map(knots_u=(0, 0, 0.3, 1, 1))
    s1 = _hat_func([0, 0, 0.5, 1, 1], where=1)
    s2 = _hat_func([0, 0, 0.3, 1, 1], where=1)
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    got = integrate_spline_product(s1, s2, T1, T2, rs, 2)
    want = _composite_gauss_oracle(
        lambda x, y: s1.value(x, y) * s2.value(x, y), [0, 0.3, 0.5, 1], [0, 1]
    )
    assert abs(got - want) < 1e-12

    # single-mesh quadrature (T1 elements only) misses the knot at 0.3
    single = _composite_gauss_oracle(
        lambda x, y: s1.value(x, y) * s2.value(x, y), [0, 0.5, 1], [0, 1], n=2
    )
    assert abs(single - want) > 1e-4


def test_product_over_regions_that_leave_their_wedges_is_exact():
    # T2's right side bows in to a waist at x = 0.55, so the part of its
    # image right of T1's knot line x = 0.5 is an hourglass whose centroid
    # lies outside it: nodes of its wedges fall outside T2's image, where
    # T2's polynomial is inverted beyond its square
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1))
    ctrl = [[(0.1, 0.1), (0.1, 0.5), (0.1, 0.9)], [(0.5, 0.1), (0.2, 0.5), (0.5, 0.9)],
            [(0.9, 0.1), (0.2, 0.5), (0.9, 0.9)]]
    T2 = SplineMap2D(TensorSplineSpace((2, 2), [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1]), ctrl)
    rs = extract_and_classify(build_interface_drawing(T1, T2))
    tiles = [tile for region in rs.regions for tile in tile_region(region, rs.drawing)]
    assert min(np.min(tile.gauss_grids(4)[1]) for tile in tiles) < 0.0
    # s1 = 1 and s2 the affine field g at T2's control points: the product
    # is the integral of g over T2's image, exact by Gauss on T2's square
    grad, const = np.array([0.7, -1.3]), 0.4
    s1 = SplineFunc2D(T1.space, np.ones((3, 2)))
    s2 = SplineFunc2D(T2.space, T2.ctrl @ grad + const)
    u, w = gauss01(4)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    want = np.sum(np.outer(w, w) * (T2.point(uu, vv) @ grad + const) * T2.jacobian_det(uu, vv))
    assert abs(integrate_spline_product(s1, s2, T1, T2, rs, 4) - want) < 1e-12


def _warped_one_element():
    ctrl = np.stack(np.meshgrid(*2 * [[0.0, 0.5, 1.0]], indexing="ij"), axis=-1)
    ctrl[1, 1] += (0.1, -0.08)
    T1 = SplineMap2D(unit_space((2, 2)), ctrl)
    return T1, make_map(transform=lambda u, v: (0.3 + 0.9 * u, -0.15 + 1.3 * v))


def _warped_four_elements():
    ctrl = np.stack(np.meshgrid(*2 * [[0.0, 0.25, 0.75, 1.0]], indexing="ij"), axis=-1)
    ctrl[1:3, 1:3] += [[[-0.017, 0.017], [-0.014, -0.014]], [[0.0, -0.058], [-0.001, 0.057]]]
    T1 = SplineMap2D(unit_space((2, 2), (0.5,), (0.5,)), ctrl)
    return T1, make_map(transform=lambda u, v: (0.257 + 0.943 * u, -0.15 + 1.3 * v))


@pytest.mark.parametrize("maps, fit_tol, n_covered",
                         [(_warped_one_element, 1e-6, 1), (_warped_four_elements, 1e-5, 4)],
                         ids=["one element", "four elements"])
def test_covered_regions_of_a_curved_target_map_count_whole(maps, fit_tol, n_covered):
    # T1 is curved, so the pull-back of T2's left side misses T2's image by
    # up to its fit error, far above the inversion tolerance; at fit_tol
    # 1e-5 by several 1e-6, above a tolerance fixed by the size of the maps
    T1, T2 = maps()
    rs = extract_and_classify(build_interface_drawing(T1, T2, fit_tol=fit_tol))
    assert rs.drawing.fit_error > 0.1 * fit_tol
    s1, s2 = (SplineFunc2D(T.space, np.ones((T.space.nu, T.space.nv))) for T in (T1, T2))
    inside = composed_field(s2, T1, T2)
    covered = [r for r in rs.regions  # these regions are convex: their vertex mean is inside
               if inside(*np.mean([rs.drawing.vertices[vid].position for vid, _ in r.trail], 0))]
    assert len(covered) == n_covered
    got = integrate_spline_product(s1, s2, T1, T2, rs, 4)
    assert abs(got - sum(r.signed_area for r in covered)) < 1e-12


def _unpruned_coupling_blocks(space1, space2, T1, T2, region_set, n):
    """``splines._coupling_blocks`` inverting every boundary sample, as
    before samples outside T2's control box were marked uncovered."""
    drawing = region_set.drawing
    tiles = [splines.region_tiles(region, drawing) for region in region_set.regions]
    samples = [splines._boundary_samples(t) for t in tiles]
    at = np.cumsum([0] + [len(x) for x in samples[:-1]])
    samples = np.concatenate(samples)
    physical = T1.point_pairs(samples)
    inverted = invert_points(T2, physical)[0]
    fit = 10.0 * drawing.fit_error
    stretch = sum(np.max(splines._norms(h[2].reshape(-1, 2))) for h in (T1.hodograph_u, T1.hodograph_v))
    cover_tol = max(T2.invert_tol, fit + stretch * max(drawing.tol, fit))
    ok = splines._norms(T2.point_pairs(inverted) - physical) <= cover_tol
    keep = np.flatnonzero(np.logical_and.reduceat(ok, at))
    c1, c2 = (0.5 * (np.minimum.reduceat(x, at) + np.maximum.reduceat(x, at))[keep]
              for x in (samples, inverted))
    sizes = [len(tiles[k]) * n * n for k in keep]
    owner = np.repeat(np.arange(len(keep)), sizes)

    def spans(S, c):
        su, sv = find_spans(S.tu, S.du, c[:, 0]), find_spans(S.tv, S.dv, c[:, 1])
        windows = [(slice(a - S.du, a + 1), slice(b - S.dv, b + 1)) for a, b in zip(su, sv)]
        return windows, (su[owner], sv[owner])

    stack = splines._TileStack(tile for k in keep for tile in tiles[k])
    x, det = stack.gauss_grids(n)
    x, det = x.reshape(-1, 2), det.ravel()
    image = splines._piece_point(T1, x, spans(T1.space, c1)[1])
    x2, ok = splines._newton(T2, image, c2[owner], spans(T2.space, c2)[1])
    assert ok.all()
    (windows1, at1), (windows2, at2) = spans(space1, c1), spans(space2, c2)
    weight = np.tile(np.outer(*2 * [gauss01(n)[1]]).ravel(), len(stack)) * det
    cuts = np.cumsum(sizes)[:-1]
    rows1 = np.split(splines._piece_rows(space1, x, at1), cuts)
    rows2 = np.split(weight[:, None] * splines._piece_rows(space2, x2, at2), cuts)
    return [
        (space1.element_of(*c), w1, w2, r1.T @ r2)
        for c, w1, w2, r1, r2 in zip(c1, windows1, windows2, rows1, rows2)
    ]


def _blocks_bits(blocks):
    return [(e, w1, w2, m.shape, m.tobytes()) for e, w1, w2, m in blocks]


@pytest.mark.parametrize("name, T1, T2", list(_coverage_pairs()) + [
    ("warped one element", *_warped_one_element()), ("warped four elements", *_warped_four_elements())])
def test_coupling_blocks_equal_the_unpruned_blocks(name, T1, T2):
    # a fit tolerance the warped pull-backs meet (residuals up to 3.6e-3)
    rs = extract_and_classify(build_interface_drawing(T1, T2, fit_tol=1e-2))
    args = (T1.space, T2.space, T1, T2, rs, 3)
    assert _blocks_bits(splines._coupling_blocks(*args)) == _blocks_bits(_unpruned_coupling_blocks(*args))


def test_composed_field_zero_extension():
    T1 = make_map()
    T2 = make_map(transform=lambda u, v: (0.5 + 0.5 * u, 0.5 + 0.5 * v))
    s2 = SplineFunc2D(T2.space, np.full((2, 2), 3.0))
    f = composed_field(s2, T1, T2)
    assert abs(f(0.9, 0.9) - 3.0) < 1e-12
    assert f(0.1, 0.1) == 0.0


def test_boundary_curves_exact():
    T = make_map(transform=lambda u, v: (2 * u, u + v))
    south, north, west, east = boundary_curves(T)
    for t in np.linspace(0, 1, 9):
        assert np.allclose(south.point(t), T.point(t, 0.0), atol=1e-14)
        assert np.allclose(north.point(t), T.point(t, 1.0), atol=1e-14)
        assert np.allclose(west.point(t), T.point(0.0, t), atol=1e-14)
        assert np.allclose(east.point(t), T.point(1.0, t), atol=1e-14)
