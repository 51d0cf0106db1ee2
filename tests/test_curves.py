"""Curve representation, evaluation, restriction and differential data."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curveplan.curves import (
    ParamCurve,
    concatenate_curves,
    deboor_point,
    find_span,
    project_points,
    signed_curvature,
    split_bspline,
    tangent_into_interior,
)
from curveplan.errors import DegenerateTangentError, GeometryError, SchemaError
from curveplan.serialize import curves_from_json

from util import circle_bspline, quadratic_arch, segment


def test_evaluate_quadratic_bezier_midpoint():
    arch = quadratic_arch()
    assert np.allclose(arch.point(0.5), [0.5, 0.5], atol=1e-15)


def test_evaluate_segment():
    s = segment((0, 0), (2, 0))
    assert np.allclose(s.point(0.25), [0.5, 0.0], atol=1e-15)


def test_evaluate_clamped_cubic_endpoint():
    c = ParamCurve(
        "bspline",
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        degree=3,
        knots=[0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert np.allclose(c.point(0.0), [0.0, 0.0], atol=1e-15)
    assert np.allclose(c.point(1.0), [0.0, 1.0], atol=1e-15)


def test_evaluate_outside_domain_raises():
    with pytest.raises(GeometryError):
        segment((0, 0), (1, 0)).point(1.5)


def test_derivative_examples():
    arch = quadratic_arch()
    assert np.allclose(arch.deriv(0.0, 1), [1.0, 2.0], atol=1e-15)
    s = segment((0, 0), (2, 0))
    assert np.allclose(s.deriv(0.7, 1), [2.0, 0.0], atol=1e-15)
    assert np.allclose(s.deriv(0.7, 2), [0.0, 0.0], atol=1e-15)
    with pytest.raises(GeometryError):
        s.deriv(0.5, 3)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    knots = [0, 0, 0, 0, 0.3, 0.55, 0.8, 1, 1, 1, 1]
    ctrl = rng.uniform(-1, 1, size=(7, 2))
    c = ParamCurve("bspline", ctrl, degree=3, knots=knots)
    h = 1e-6
    for t in rng.uniform(0.05, 0.95, size=12):
        fd = (c.point(t + h) - c.point(t - h)) / (2 * h)
        an = c.deriv(t, 1)
        assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))


def test_tangent_into_interior():
    s = segment((0, 0), (1, 0))
    assert np.allclose(tangent_into_interior(s, 0.0, 1.0, "lo"), [1, 0])
    assert np.allclose(tangent_into_interior(s, 0.0, 1.0, "hi"), [-1, 0])
    arch = quadratic_arch()
    expect = np.array([-1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(tangent_into_interior(arch, 0.0, 1.0, "hi"), expect, atol=1e-15)


def test_tangent_orientation_property():
    arch = quadratic_arch()
    eps = 1e-6
    t_lo = tangent_into_interior(arch, 0.2, 0.9, "lo")
    assert np.dot(t_lo, arch.point(0.2 + eps) - arch.point(0.2)) > 0
    t_hi = tangent_into_interior(arch, 0.2, 0.9, "hi")
    assert np.dot(t_hi, arch.point(0.9 - eps) - arch.point(0.9)) > 0


def test_degenerate_tangent_is_error():
    # cusp at t=0.5: c'(0.5) = 0 for this symmetric cubic
    cusp = ParamCurve("bezier", [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert np.allclose(cusp.deriv(0.5, 1), [0, 0], atol=1e-12)
    with pytest.raises(DegenerateTangentError):
        tangent_into_interior(cusp, 0.0, 0.5, "hi")


def test_restrict_segment():
    r = segment((0, 0), (1, 0)).restricted(0.25, 0.75)
    assert r.kind == "segment"
    assert np.allclose(r.ctrl, [(0.25, 0), (0.75, 0)], atol=1e-15)


def test_restrict_bezier_de_casteljau_half():
    r = quadratic_arch().restricted(0.0, 0.5)
    assert np.allclose(r.ctrl, [(0, 0), (0.25, 0.5), (0.5, 0.5)], atol=1e-15)


def test_restrict_full_domain_identity():
    c = circle_bspline(radius=1.0, n_ctrl=12, n_samples=200)
    r = c.restricted(0.0, 1.0)
    for t in np.linspace(0, 1, 100):
        assert np.linalg.norm(r.point(t) - c.point(t)) <= 1e-12


def test_restrict_consistency_random():
    rng = np.random.default_rng(11)
    knots = [0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1]
    c = ParamCurve("bspline", rng.uniform(0, 2, (7, 2)), degree=3, knots=knots)
    diag = c.bbox_diag()
    t0, t1 = 0.18, 0.83
    r = c.restricted(t0, t1)
    for t in rng.uniform(t0, t1, 40):
        s = (t - t0) / (t1 - t0)
        assert np.linalg.norm(r.point(s) - c.point(t)) <= 1e-12 * max(diag, 1.0)


def test_restrict_inverted_interval_raises():
    with pytest.raises(GeometryError):
        segment((0, 0), (1, 0)).restricted(0.8, 0.2)


def test_bbox_contains_samples():
    rng = np.random.default_rng(3)
    knots = [0, 0, 0, 0.2, 0.4, 0.6, 0.8, 1, 1, 1]
    c = ParamCurve("bspline", rng.normal(0, 3, (7, 2)), degree=2, knots=knots)
    lo, hi = c.bbox()
    pts = c.point(np.linspace(0, 1, 1000))
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)


def test_signed_curvature_closed_forms():
    # straight segment: zero curvature
    assert signed_curvature(segment((0, 0), (3, 1)), 0.4) == 0.0
    # arch at the apex: c'=(1,0), c''=(0,-4) -> kappa = -4 (differentiation oracle)
    assert abs(signed_curvature(quadratic_arch(), 0.5) - (-4.0)) < 1e-12


def test_signed_curvature_circle_spline():
    # oracle: the exact circle of radius 2 has curvature +1/2 everywhere (CCW)
    c = circle_bspline(radius=2.0, n_ctrl=48)
    for t in np.linspace(0.02, 0.98, 25):
        assert abs(signed_curvature(c, t) - 0.5) <= 1e-3


def test_bspline_validation():
    with pytest.raises(SchemaError):
        ParamCurve("bspline", [(0, 0), (1, 1)], degree=1, knots=[0, 0, 1])  # count
    with pytest.raises(SchemaError):
        ParamCurve(
            "bspline", [(0, 0), (1, 1), (2, 0)], degree=1, knots=[0, 0, 1, 0.5, 1]
        )  # decreasing
    with pytest.raises(SchemaError):  # cubic with a double interior knot is not C2
        ParamCurve(
            "bspline",
            np.zeros((6, 2)),
            degree=3,
            knots=[0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1],
        )


def test_low_degree_interior_knots_flagged():
    c = ParamCurve(
        "bspline",
        [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)],
        degree=2,
        knots=[0, 0, 0, 0.4, 0.7, 1, 1, 1],
    )
    assert c.reduced_continuity


def test_reversed_curve():
    arch = quadratic_arch()
    rev = arch.reversed()
    for t in np.linspace(0, 1, 17):
        assert np.allclose(rev.point(t), arch.point(1 - t), atol=1e-14)


def test_second_derivative_of_piecewise_linear_bspline_is_zero():
    polyline = ParamCurve("bspline", [(0, 0), (1, 1), (2, 0)], degree=1, knots=[0, 0, 0.5, 1, 1])
    assert np.array_equal(polyline.deriv(0.7, 2), [0.0, 0.0])
    assert np.array_equal(polyline.deriv(np.array([0.2, 0.7]), 2), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# non-finite parameters and the array shape contract


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_raise(bad):
    arch = ParamCurve("bezier", [[0, 0], [1, 2], [2, 0]])
    calls = [
        lambda: arch.point(bad),
        lambda: arch.point(np.array([0.2, bad])),
        lambda: arch.deriv(bad),
        lambda: arch.deriv(np.array([0.2, bad]), 2),
        lambda: arch.restricted(0.2, bad),
        lambda: arch.restricted(bad, 0.8),
    ]
    for call in calls:
        with pytest.raises(GeometryError):
            call()


def test_out_of_domain_message_names_first_bad_parameter():
    arch = quadratic_arch()
    with pytest.raises(GeometryError, match=r"parameter nan outside") as info:
        arch.point(np.array([0.2, np.nan, 2.0, 0.4]))
    assert "0.2" not in str(info.value)


def test_empty_parameter_array_gives_empty_point_array():
    for curve in (quadratic_arch(), segment((0, 0), (1, 2))):
        empty = np.array([])
        assert curve.point(empty).shape == (0, 2)
        assert curve.deriv(empty).shape == (0, 2)
        assert curve.deriv(empty, 2).shape == (0, 2)


# ---------------------------------------------------------------------------
# bit-exact equivalence of the batched kernels with the scalar algorithms


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_COORDS = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
_SIGNED_ZEROS = st.one_of(st.sampled_from([0.0, -0.0]), _COORDS)


@st.composite
def _clamped_curves(draw, min_interior=0, coords=_COORDS):
    """Clamped B-splines of degree 1-5 with interior knots of multiplicity
    up to the degree (as in seam concatenations), on shifted domains."""
    degree = draw(st.integers(1, 5))
    a = draw(st.sampled_from([0.0, -1.5, 0.3]))
    b = a + draw(st.sampled_from([1.0, 0.25, 3.0]))
    fracs = draw(st.lists(st.floats(0.01, 0.99), min_size=min_interior, max_size=4))
    vals = np.unique([a + (b - a) * f for f in fracs])
    vals = vals[(vals > a) & (vals < b)]
    mults = draw(st.lists(st.integers(1, degree), min_size=len(vals), max_size=len(vals)))
    knots = [a] * (degree + 1) + list(np.repeat(vals, mults)) + [b] * (degree + 1)
    n = len(knots) - degree - 1
    ctrl = draw(arrays(np.float64, (n, 2), elements=coords))
    return ParamCurve("bspline", ctrl, degree=degree, knots=knots, _allow_c0=True)


@st.composite
def _curves_and_params(draw):
    curve = draw(_clamped_curves())
    a, b = curve.domain
    pad = 1e-12 * max(b - a, 1.0)
    brk = curve.breakpoints()
    near = np.concatenate([np.nextafter(brk, -np.inf), np.nextafter(brk, np.inf)])
    inside = draw(st.lists(st.floats(a, b), max_size=12))
    ts = np.concatenate([brk, near, [a - 0.5 * pad, a - pad, b + 0.5 * pad, b + pad], inside])
    return curve, ts[(ts >= a - pad) & (ts <= b + pad)]


@settings(max_examples=200, deadline=None)
@given(_curves_and_params())
def test_batched_point_and_deriv_equal_scalar_de_boor(curve_and_params):
    curve, ts = curve_and_params
    scalar = np.array([deboor_point(curve.knots, curve.degree, curve.ctrl, float(t)) for t in ts])
    assert _same_bits(curve.point(ts), scalar)
    for order in (1, 2):
        scalar = np.array([curve.deriv(float(t), order) for t in ts])
        assert _same_bits(curve.deriv(ts, order), scalar)


@settings(max_examples=200, deadline=None)
@given(_clamped_curves(), st.floats(0.0, 300.0))
def test_clamped_curves_start_and_end_at_their_end_control_points(curve, tol):
    # what lets is_closed compare control points instead of evaluating;
    # values, not bits: de Boor may turn a -0.0 coordinate into 0.0
    a, b = curve.domain
    start, end = curve.point(a), curve.point(b)
    assert np.array_equal(start, curve.ctrl[0]) and np.array_equal(end, curve.ctrl[-1])
    assert curve.is_closed(tol) == bool(np.linalg.norm(start - end) <= tol)


def _insert_knot_reference(knots, degree, ctrl, t):
    """One Boehm knot insertion step; returns the refined (knots, ctrl)."""
    knots = np.asarray(knots, dtype=float)
    ctrl = np.asarray(ctrl, dtype=float)
    span = find_span(knots, degree, t)
    new_ctrl = np.empty((len(ctrl) + 1, ctrl.shape[1]))
    new_ctrl[: span - degree + 1] = ctrl[: span - degree + 1]
    for i in range(span - degree + 1, span + 1):
        den = knots[i + degree] - knots[i]
        alpha = 1.0 if den == 0.0 else (t - knots[i]) / den
        new_ctrl[i] = (1.0 - alpha) * ctrl[i - 1] + alpha * ctrl[i]
    new_ctrl[span + 1 :] = ctrl[span:]
    new_knots = np.insert(knots, span + 1, t)
    return new_knots, new_ctrl


def _split_reference(knots, degree, ctrl, t):
    """split_bspline by repeated single Boehm insertions."""
    snap = 1e-12 * max(knots[-1] - knots[0], 1.0)
    near = knots[np.abs(knots - t) <= snap]
    if len(near):
        t = near[0]
    mult = int(np.sum(np.abs(knots - t) <= snap))
    for _ in range(degree + 1 - mult):
        knots, ctrl = _insert_knot_reference(knots, degree, ctrl, t)
    j = int(np.searchsorted(knots, t - snap, side="left"))
    while abs(knots[j] - t) > snap:
        j += 1
    return (knots[: j + degree + 1], ctrl[:j]), (knots[j:], ctrl[j:])


@st.composite
def _curves_and_splits(draw):
    curve = draw(_clamped_curves())
    a, b = curve.domain
    interior = curve.interior_knots()
    choices = [st.floats(a, b, exclude_min=True, exclude_max=True)]
    if len(interior):
        on_knot = st.sampled_from(list(interior))
        choices.append(on_knot)
        choices.append(on_knot.map(lambda k: k + 0.5e-12 * max(b - a, 1.0)))
    return curve, draw(st.one_of(choices))


@settings(max_examples=200, deadline=None)
@given(_curves_and_splits())
def test_split_equals_repeated_boehm_insertion(curve_and_t):
    curve, t = curve_and_t
    got = split_bspline(curve.knots, curve.degree, curve.ctrl, t)
    want = _split_reference(curve.knots, curve.degree, curve.ctrl, t)
    for (gk, gc), (wk, wc) in zip(got, want):
        assert _same_bits(gk, wk) and _same_bits(gc, wc)


def _restricted_reference(curve, t_lo, t_hi, split=split_bspline):
    """ParamCurve.restricted by ``split`` alone, as before the one-span
    path: both splits, then the knots rescaled to [0, 1]."""
    a, b = curve.domain
    snap = 1e-12 * max(b - a, 1.0)
    knots, ctrl = curve.knots, curve.ctrl
    if t_lo > a + snap:
        (_, _), (knots, ctrl) = split(knots, curve.degree, ctrl, t_lo)
    if t_hi < b - snap:
        (knots, ctrl), (_, _) = split(knots, curve.degree, ctrl, t_hi)
    if not knots[-1] > knots[0]:
        raise GeometryError("restriction interval is narrower than the knot snap")
    knots = (knots - knots[0]) / (knots[-1] - knots[0])
    return curve._rewrap(knots, ctrl, allow_c0=curve.reduced_continuity)


def _curve_or_error(fn, *args):
    try:
        c = fn(*args)
    except (GeometryError, SchemaError) as exc:
        return type(exc), str(exc)
    return c.kind, c.degree, c.knots.tobytes(), c.ctrl.tobytes(), c.reduced_continuity


@st.composite
def _one_span_restrictions(draw):
    """One-span curves on shifted domains and restriction intervals with
    ends on, near and within the knot snap of the domain ends."""
    degree = draw(st.integers(1, 5))
    a = draw(st.sampled_from([0.0, -1.5, 0.3]))
    b = a + draw(st.sampled_from([1.0, 0.25, 3.0]))
    ctrl = draw(arrays(np.float64, (degree + 1, 2), elements=_COORDS))
    if a == 0.0 and b == 1.0 and draw(st.booleans()):
        curve = ParamCurve("segment" if degree == 1 else "bezier", ctrl, degree=degree)
    else:
        curve = ParamCurve("bspline", ctrl, degree=degree, knots=[a] * (degree + 1) + [b] * (degree + 1))
    snap = 1e-12 * max(b - a, 1.0)
    special = [a, b, a + 0.5 * snap, b - 0.5 * snap, a + 2 * snap, b - 2 * snap]
    ts = st.one_of(st.floats(a, b), st.sampled_from(special))
    t_lo, t_hi = sorted(draw(st.lists(ts, min_size=2, max_size=2)))
    if draw(st.booleans()):
        t_hi = min(b, t_lo + draw(st.sampled_from([0.5, 2.0, 1e3])) * snap)
    assume(t_lo < t_hi)  # the interval checks come before either path
    return curve, t_lo, t_hi


_SNAP = 1e-12  # the knot snap of a domain [0, 1]


@settings(max_examples=300, deadline=None)
@given(_one_span_restrictions())
# signed zeros: both Boehm steps must keep them
@example((ParamCurve("segment", [(-0.0, 0.5), (0.75, -0.0)]), 0.25, 0.75))
@example((ParamCurve("segment", [(-0.0, -0.0), (-1.0, 0.0)]), 0.0, 0.5))
@example((ParamCurve("segment", [(0.0, -0.0), (-0.0, 1.0)]), 0.5, 1.0))
# subnormal coordinates, whose products underflow to zero
@example((ParamCurve("segment", [(5e-324, -2.2e-310), (-1e-320, 1e-308)]), 0.1, 0.9))
@example((ParamCurve("segment", [(-5e-324, 0.0), (-0.0, 5e-324)]), 0.3, 0.6))
# cuts within the knot snap of each end, and just outside it
@example((ParamCurve("segment", [(0.0, 0.0), (1.0, 3.0)]), 0.5 * _SNAP, 0.7))
@example((ParamCurve("segment", [(0.0, 0.0), (1.0, 3.0)]), 0.3, 1.0 - 0.5 * _SNAP))
@example((ParamCurve("segment", [(0.0, 0.0), (1.0, 3.0)]), 0.5 * _SNAP, 1.0 - 0.5 * _SNAP))
@example((ParamCurve("segment", [(0.0, 0.0), (1.0, 3.0)]), 2 * _SNAP, 1.0 - 2 * _SNAP))
@example((ParamCurve("segment", [(0.0, 0.0), (1.0, 3.0)]), 0.4, 0.4 + 0.5 * _SNAP))
def test_one_span_restriction_equals_split_bspline(case):
    curve, t_lo, t_hi = case
    got = _curve_or_error(curve.restricted, t_lo, t_hi)
    assert got == _curve_or_error(_restricted_reference, curve, t_lo, t_hi)


@st.composite
def _multi_span_restrictions(draw):
    """Multi-span curves, with signed zeros among their coordinates and C0
    joins by ``concatenate_curves`` among them, and restriction intervals
    with ends on breakpoints, within their knot snap and just outside it."""
    curve = draw(_clamped_curves(min_interior=1, coords=_SIGNED_ZEROS))
    if draw(st.booleans()):
        d = curve.degree
        tail = draw(arrays(np.float64, (d, 2), elements=_SIGNED_ZEROS))
        curve = concatenate_curves(curve, ParamCurve("bezier", np.vstack([curve.ctrl[-1:], tail])))
    a, b = curve.domain
    snap = 1e-12 * max(b - a, 1.0)
    brk = curve.breakpoints().tolist()
    near = [k + f * snap for k in brk for f in (-2.0, -0.5, 0.5, 2.0)]
    ts = st.one_of(st.floats(a, b), st.sampled_from(brk), st.sampled_from(near))
    t_lo, t_hi = sorted(draw(st.lists(ts, min_size=2, max_size=2)))
    assume(a - snap <= t_lo < t_hi <= b + snap)  # restricted checks these first
    return curve, t_lo, t_hi


@settings(max_examples=300, deadline=None)
@given(_multi_span_restrictions())
# both ends within the snap of one interior knot, and of its neighbours
@example((ParamCurve("bspline", [(0, -0.0), (1, 2), (-0.0, 3), (4, 0)], degree=2,
                     knots=[0, 0, 0, 0.5, 1, 1, 1]), 0.5 - 0.5 * _SNAP, 0.5 + 0.5 * _SNAP))
@example((ParamCurve("bspline", [(0, -0.0), (1, 2), (-0.0, 3), (4, 0)], degree=2,
                     knots=[0, 0, 0, 0.5, 1, 1, 1]), 0.5 + 0.5 * _SNAP, 1.0 - 0.5 * _SNAP))
def test_multi_span_restriction_equals_repeated_boehm_insertion(case):
    curve, t_lo, t_hi = case
    got = _curve_or_error(curve.restricted, t_lo, t_hi)
    assert got == _curve_or_error(_restricted_reference, curve, t_lo, t_hi, _split_reference)


def test_sub_snap_restriction_raises_geometry_error():
    # both ends snap onto the knot 0: a geometry error, not a schema error
    # from knots divided by a zero width
    seg = ParamCurve("segment", [(0, 0), (1, 1)])
    with pytest.raises(GeometryError, match="narrower than the knot snap"):
        seg.restricted(0.0, 2.2e-311)


_EPS = np.finfo(float).eps
#: end gaps in units of tol: ties at tol and at the prefilter's 2 tol
_GAP_FACTORS = [1.0 + k * _EPS for k in range(-4, 5)] + [2.0 - 2 * _EPS, 2.0, 2.0 + 4 * _EPS, 0.0]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1e-9, 1.0, 3e5, 1e-150, 1e-155, 1e-160, 1e-300, 1e-320, 5e-324]),
    st.one_of(st.sampled_from(_GAP_FACTORS), st.floats(0.0, 4.0)),
    st.one_of(st.sampled_from(_GAP_FACTORS), st.floats(0.0, 4.0)),
    st.sampled_from([(0.0, 0.0), (1.0, -2.0), (-0.0, 1e-300)]),
)
def test_is_closed_prefilter_equals_the_norm(tol, fx, fy, start):
    x0, y0 = start
    end = (x0 + fx * tol, y0 - fy * tol)
    curve = ParamCurve("bezier", [start, (0.5, 0.5), end])
    want = bool(np.linalg.norm(curve.ctrl[-1] - curve.ctrl[0]) <= tol)
    assert curve.is_closed(tol) == want  # ends read from the control array
    curve.nets()
    assert curve.is_closed(tol) == want  # ends read from the cached net
    if start != end:  # a segment is never closed, however near its ends lie
        seg = curves_from_json(json.dumps({"curves": [{"kind": "segment", "points": [start, end]}]}))[0]
        assert not seg.is_closed(tol)


def test_breakpoints_are_cached_and_read_only():
    c = circle_bspline(n_ctrl=12, n_samples=200)
    a, b = c.domain
    brk = c.breakpoints()
    assert brk is c.breakpoints()
    assert brk.tobytes() == np.unique(np.concatenate(([a], c.interior_knots(), [b]))).tobytes()
    with pytest.raises(ValueError):
        brk[0] = 1.0
    arch = quadratic_arch()
    assert arch.spans() == [arch]
    pieces = c.spans()
    assert len(pieces) == len(brk) - 1
    assert all(len(p.breakpoints()) == 2 for p in pieces)


def test_nets_are_the_spans_control_nets_and_cached():
    c = circle_bspline(n_ctrl=12, n_samples=200)
    nets = c.nets()
    assert nets is c.nets()
    brk = c.breakpoints()
    assert [(u0, u1) for u0, u1, _ in nets] == list(zip(brk[:-1], brk[1:]))
    for (_, _, net), span in zip(nets, c.spans()):
        assert np.array(net).tobytes() == span.ctrl.tobytes()
    arch = quadratic_arch()
    assert arch.nets() == ((0.0, 1.0, tuple(map(tuple, arch.ctrl.tolist()))),)


# signed zeros in control points: nets must keep them bit for bit
_ctrl_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def _assert_one_span_path(curve):
    """breakpoints, spans and nets of a one-span curve as np.unique of its
    knots gives them."""
    brk = np.unique(curve.knots[curve.degree : len(curve.knots) - curve.degree])
    assert len(brk) == 2
    assert curve.breakpoints().tobytes() == brk.tobytes()
    assert curve.breakpoints().dtype == brk.dtype
    assert curve.spans() == [curve]
    net = tuple(map(tuple, curve.ctrl.tolist()))
    assert repr(curve.nets()) == repr(((*brk.tolist(), net),))  # repr tells -0.0 from 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.tuples(_ctrl_coord, _ctrl_coord), min_size=6, max_size=6),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_one_span_nets_equal_the_unique_path(degree, points, u, v):
    kind = "segment" if degree == 1 else "bezier"
    curve = ParamCurve(kind, points[: degree + 1])
    assume(abs(u - v) > 1e-9)
    piece = curve.restricted(min(u, v), max(u, v))
    for c in (curve, curve.reversed(), piece, piece.reversed()):
        _assert_one_span_path(c)
    # a one-span B-spline on another domain, and one whose domain is empty
    knots = [-0.5] * (degree + 1) + [2.0] * (degree + 1)
    _assert_one_span_path(ParamCurve("bspline", points[: degree + 1], degree=degree, knots=knots))
    flat = ParamCurve("bspline", points[: degree + 1], degree=degree, knots=[0.0] * (2 * degree + 2))
    assert flat.breakpoints().tobytes() == np.array([0.0]).tobytes() and flat.spans() == []


def _scalar_projection(p, curve, presamples):
    """One point at a time, as the two projection sites did before
    ``project_points``: nearest presample, then up to 8 Newton steps."""
    ts = np.linspace(*curve.domain, presamples)
    pts = curve.point(ts)
    i = int(np.argmin(np.linalg.norm(pts - p, axis=1)))
    t = float(ts[i])
    a, b = curve.domain
    for _ in range(8):
        d1 = curve.deriv(t)
        g = float(np.dot(curve.point(t) - p, d1))
        h = float(np.dot(d1, d1) + np.dot(curve.point(t) - p, curve.deriv(t, 2)))
        if h <= 0:
            break
        t = float(np.clip(t - g / h, a, b))
    return t, float(np.linalg.norm(curve.point(t) - p))


@settings(max_examples=200, deadline=None)
@given(
    _clamped_curves(),
    st.lists(st.tuples(st.floats(-120, 120), st.floats(-120, 120)), min_size=1, max_size=20),
    st.sampled_from([65, 257]),
)
def test_project_points_matches_scalar_projection(curve, points, presamples):
    pts = np.array(points, dtype=float)
    t, dist = project_points(curve, pts, presamples)
    for k, p in enumerate(pts):
        want_t, want_d = _scalar_projection(p, curve, presamples)
        assert abs(t[k] - want_t) <= 1e-9 * (curve.domain[1] - curve.domain[0])
        assert abs(dist[k] - want_d) <= 1e-9 * (1.0 + want_d)
