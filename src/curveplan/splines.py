"""Tensor-product spline maps, Newton inversion and the mesh-intersection
pipeline on the parameter square.

The interface between two maps is modeled on the first map's parameter
square: the second map's knot iso-curves and boundary curves are pulled back
by pointwise Newton inversion plus a least-squares B-spline fit, clipped to
the image overlap, and combined with the first map's own knot lines into a
curvilinear drawing whose regions are single knot elements of both spaces.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrangement import _apart, _box, build_drawing, intersect_curve_pair
from .curves import (
    ParamCurve,
    _distinct,
    _norms,
    basis_levels,
    basis_row,
    basis_rows,
    derivative_data,
    find_spans,
    fit_bspline,
    project_points,
    trusted_bezier,
    uniform_arclength_knots,
)
from .errors import FitError, GeometryError, InversionError, SchemaError
from .quadrature import _TileStack, _boundary_samples, gauss01, region_tiles

INVERT_MAX_ITER = 50
INVERT_TOL_FACTOR = 1e-11
#: points per direction of the parameter grid that seeds a cold inversion
SEED_GRID = 7
#: points per block of the batched kernels, which bounds their scratch memory
_BLOCK = 512
#: Newton step scales tried in turn: 1, 1/2, ..., 1/2048
_LINE_SEARCH = 0.5 ** np.arange(12)
#: Chebyshev samples a pull-back inverts and fits
PULL_BACK_SAMPLES = 65
#: uniform samples that seed a projection onto a curve
_PRESAMPLES = 65


class TensorSplineSpace:
    """A bivariate tensor-product B-spline space with clamped [0,1] knots."""

    def __init__(self, degrees, knots_u, knots_v):
        self.du, self.dv = int(degrees[0]), int(degrees[1])
        self.tu = np.asarray(knots_u, dtype=float)
        self.tv = np.asarray(knots_v, dtype=float)
        for name, t, d in (("knots_u", self.tu, self.du), ("knots_v", self.tv, self.dv)):
            if len(t) < 2 * (d + 1):
                raise SchemaError(f"{name}: too few knots for degree {d}", field=name)
            if not np.all(np.isfinite(t)):
                raise SchemaError(f"{name}: knots must be finite", field=name)
            if np.any(np.diff(t) < 0):
                raise SchemaError(f"{name}: knots must be non-decreasing", field=name)
            if t[0] != 0.0 or t[-1] != 1.0:
                raise SchemaError(f"{name}: knots must span [0, 1]", field=name)
            if np.any(t[: d + 1] != 0.0) or np.any(t[-d - 1 :] != 1.0):
                raise SchemaError(f"{name}: knots must be clamped", field=name)
        self.nu = len(self.tu) - self.du - 1
        self.nv = len(self.tv) - self.dv - 1
        #: flat offsets of the (du + 1) x (dv + 1) window of a net in rows of nv
        self.window = (np.arange(self.du + 1)[:, None] * self.nv + np.arange(self.dv + 1)).ravel()

    @property
    def degrees(self):
        return (self.du, self.dv)

    def breakpoints_u(self):
        return _distinct(self.tu)

    def breakpoints_v(self):
        return _distinct(self.tv)

    def interior_knots_u(self):
        return _distinct(self.tu[self.du + 1 : -self.du - 1])

    def interior_knots_v(self):
        return _distinct(self.tv[self.dv + 1 : -self.dv - 1])

    def elements(self):
        """All knot elements as (iu, iv, (u0, u1, v0, v1))."""
        bu, bv = self.breakpoints_u(), self.breakpoints_v()
        out = []
        for iu in range(len(bu) - 1):
            for iv in range(len(bv) - 1):
                out.append((iu, iv, (bu[iu], bu[iu + 1], bv[iv], bv[iv + 1])))
        return out

    def element_of(self, u, v):
        """Indices of the knot element containing (u, v); arrays of them
        when u and v are arrays."""
        bu, bv = self.breakpoints_u(), self.breakpoints_v()
        iu = np.clip(np.searchsorted(bu, u, side="right") - 1, 0, len(bu) - 2)
        iv = np.clip(np.searchsorted(bv, v, side="right") - 1, 0, len(bv) - 2)
        return (int(iu), int(iv)) if np.ndim(iu) == 0 else (iu, iv)

    def basis_u(self, t):
        return basis_row(self.tu, self.du, float(t))

    def basis_v(self, t):
        return basis_row(self.tv, self.dv, float(t))


def _tensor_eval(space, flat, window, x, span=None, terms=((0, 0, slice(None)),)):
    """Per term (a, b, cols), sum_ij net[i, j] N_i(u) M_j(v) at the pairs x
    (..., 2), on the pieces of the spans (su, sv) when given: N and M of
    levels du - a and dv - b of ``basis_levels``, net the columns cols of one
    gather from the flat net (rows of nv points) at fu * nv + fv + window.
    Per point a stacked ``np.matmul`` forms the (1, m) @ (m, k) product of
    ``np.tensordot(np.outer(bu, bv), net, axes=2)``; einsum rounds otherwise."""
    shape, x = x.shape[:-1], x.reshape(-1, 2)
    su, sv = (None, None) if span is None else (np.broadcast_to(a, shape).ravel() for a in span)
    out = [np.empty((len(x), 1, flat.shape[1])) for _ in terms]
    for k in range(0, len(x), _BLOCK):
        b = slice(k, k + _BLOCK)
        fu, *bu = basis_levels(space.tu, space.du, x[b, 0], None if su is None else su[b])
        fv, *bv = basis_levels(space.tv, space.dv, x[b, 1], None if sv is None else sv[b])
        block = flat[(fu * space.nv + fv)[:, None] + window]
        for o, (i, j, cols) in zip(out, terms):
            o[b] = np.matmul((bu[i][:, :, None] * bv[j][:, None, :]).reshape(len(block), 1, -1),
                             block[:, cols])
    return [o.reshape(shape + o.shape[2:]) for o in out]


class SplineMap2D:
    """Tensor-product spline map T: [0,1]^2 -> R^2 with positive Jacobian.

    Immutable after construction: the control net is a read-only copy, so
    what ``__init__`` derives from it for point inversion stays valid.
    """

    def __init__(self, space, control, check_bijective=True):
        if min(space.degrees) < 1:
            raise SchemaError("map degrees must be >= 1", field="degrees")
        self.space = space
        self.ctrl = np.array(control, dtype=float)
        if self.ctrl.shape != (space.nu, space.nv, 2):
            raise SchemaError(
                f"control net must have shape ({space.nu}, {space.nv}, 2)",
                field="control",
            )
        if not np.all(np.isfinite(self.ctrl)):
            raise SchemaError("control net must be finite", field="control")
        self.ctrl.flags.writeable = False
        self.box = self.ctrl.reshape(-1, 2).min(axis=0), self.ctrl.reshape(-1, 2).max(axis=0)
        nu, nv = space.nu, space.nv
        # hodographs as (knots, degree, net); ``flat`` holds T's net and theirs in
        # rows of nv points (dT/dv's padded), so one index starts all three windows
        ku, du1, cu = derivative_data(space.tu, space.du, self.ctrl.reshape(nu, -1))
        self.hodograph_u = (ku, du1, cu.reshape(-1, nv, 2))
        self.hodograph_v = derivative_data(space.tv, space.dv, self.ctrl)
        pad = np.concatenate([self.hodograph_v[2], np.zeros((nu, 1, 2))], axis=1)
        self.flat = np.concatenate([self.ctrl, self.hodograph_u[2], pad]).reshape(-1, 2)
        w, n = space.window.reshape(space.du + 1, space.dv + 1), nu * nv
        self.window = np.concatenate([w, w[:-1] + n, w[:, :-1] + 2 * n - nv], axis=None)
        m, c = w.size, w.size + w[:-1].size
        self.terms = [(0, 0, slice(0, m)), (1, 0, slice(m, c)), (0, 1, slice(c, None))]
        if check_bijective:
            self._check_jacobian_sign()
        # Newton inversion: residual tolerance and the seed grid it starts
        # from when no warm start is given
        self.invert_tol = INVERT_TOL_FACTOR * max(self.bbox_diag(), 1e-12)
        us = np.linspace(0.0, 1.0, SEED_GRID)
        uu, vv = np.meshgrid(us, us, indexing="ij")
        self.seed_params = np.column_stack([uu.ravel(), vv.ravel()])
        self.seed_points = self.point(uu, vv).reshape(-1, 2)

    def _check_jacobian_sign(self):
        """GeometryError unless det J > 0, by certificate or on the sampled grid."""
        if _jacobian_certified(self):
            return
        us, vs = [], []
        for brk, d, acc in (
            (self.space.breakpoints_u(), self.space.du, us),
            (self.space.breakpoints_v(), self.space.dv, vs),
        ):
            for a, b in zip(brk[:-1], brk[1:]):
                acc.extend(np.linspace(a, b, d + 3))
        uu, vv = np.meshgrid(_distinct(np.array(us)), _distinct(np.array(vs)), indexing="ij")
        det = self.jacobian_det(uu, vv)
        if np.min(det) <= 0.0:
            raise GeometryError(
                f"map Jacobian is not positive on the sampled grid (min {np.min(det):.2e})"
            )

    def point(self, u, v):
        return _piece_point(self, np.stack(np.broadcast_arrays(u, v), axis=-1), None)

    def point_pairs(self, pts):
        return _piece_point(self, np.asarray(pts, dtype=float), None)

    def jacobian(self, u, v):
        """Columns dT/du and dT/dv, shape (..., 2, 2)."""
        return _jacobian(self, u, v)

    def jacobian_det(self, u, v):
        jac = self.jacobian(u, v)
        return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]

    def bbox_diag(self):  # of the box of the control points, which holds the image
        return float(np.hypot(*(self.box[1] - self.box[0])))


def _jacobian(T, u, v, span=None):
    """``T.jacobian``, on the pieces of the knot spans (su, sv) when given."""
    return _point_jac(T, np.stack(np.broadcast_arrays(u, v), axis=-1), span)[1]


def _point_jac(T, x, span=None):
    """T and its Jacobian, shapes (..., 2) and (..., 2, 2), at the pairs x
    (..., 2), on the pieces of the knot spans (su, sv) when given: one
    triangle per direction and one gather serve the products with the nets
    of T, dT/du and dT/dv, each bit for bit ``_piece_point``'s on its net."""
    p, ju, jv = _tensor_eval(T.space, T.flat, T.window, x, span, T.terms)
    return p, np.stack([ju, jv], axis=-1)


def _jacobian_certified(T):
    """Whether every cross of a dT/du and a dT/dv control vector active on one
    knot element is positive: there det J is a convex combination of them, as
    their bases' products are non-negative and sum to 1, so then det J > 0."""
    s, cu, cv = T.space, T.hodograph_u[2], T.hodograph_v[2]
    a = np.flatnonzero(np.diff(s.tu[s.du : s.nu + 1]) > 0)  # the element of knot span a + du
    b = np.flatnonzero(np.diff(s.tv[s.dv : s.nv + 1]) > 0)
    wu, wv = (sliding_window_view(c, w, axis=(0, 1))[a][:, b].reshape(len(a), len(b), 2, -1)
              for c, w in ((cu, (s.du, s.dv + 1)), (cv, (s.du + 1, s.dv))))
    cross = wu[:, :, 0, :, None] * wv[:, :, 1, None] - wu[:, :, 1, :, None] * wv[:, :, 0, None]
    return bool(np.all(cross > 0.0))


def _piece_point(T, x, span):
    """T at parameter pairs x (..., 2), on the pieces of ``span`` when given."""
    return _tensor_eval(T.space, T.flat, T.space.window, x, span)[0]


class SplineFunc2D:
    """Scalar tensor-product spline function on the parameter square."""

    def __init__(self, space, coefficients):
        self.space = space
        self.coeffs = np.asarray(coefficients, dtype=float)
        if self.coeffs.shape != (space.nu, space.nv):
            raise SchemaError(
                f"coefficient grid must have shape ({space.nu}, {space.nv})",
                field="coefficients",
            )

    def value(self, u, v):
        x = np.stack(np.broadcast_arrays(u, v), axis=-1)
        return _tensor_eval(self.space, self.coeffs.reshape(-1, 1), self.space.window, x)[0][..., 0]

    def __call__(self, u, v):
        return self.value(u, v)


# ---------------------------------------------------------------------------
# inversion


def _seed_guesses(T, pts):
    """The seed-grid parameters nearest to each point, first on ties."""
    out = np.empty_like(pts)
    step = _BLOCK // 8  # a point takes a row of SEED_GRID**2 distances
    for s in range(0, len(pts), step):
        d = np.linalg.norm(T.seed_points - pts[s : s + step, None], axis=-1)
        out[s : s + step] = T.seed_params[np.argmin(d, axis=1)]
    return out


def _newton_steps(jac, r):
    """Solve jac @ step = -r per lane, by least squares where jac is singular
    (one singular lane makes the stacked solve raise for all)."""
    try:
        return np.linalg.solve(jac, -r[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return np.linalg.lstsq(jac[0], -r[0], rcond=None)[0][None]
        return np.concatenate([_newton_steps(j[None], x[None]) for j, x in zip(jac, r)])


def _near_box(T, pts, pad):
    """Which points (n, 2) lie within ``pad`` of T's box, which holds T's image;
    twice a tolerance as pad absorbs the rounding of the box and the image."""
    lo, hi = T.box
    return np.all((pts >= lo - pad) & (pts <= hi + pad), axis=1)


def invert_points(T, pts, guess=None):
    """Parameters (n, 2) with T(u, v) = pts[k], by clamped damped Newton run
    on all points at once; returns (uv, ok).

    Each lane starts from its guess row (or the nearest seed-grid node) and
    takes Newton steps scaled by 1, 1/2, ..., 1/2048 until the residual
    drops.  A lane stops when its residual is within tolerance (ok), when
    no trial improves, or after INVERT_MAX_ITER steps; uv then holds its last
    iterate.  Lanes do not interact: each is bit-for-bit ``invert``.  A step
    evaluates T and J at the full step (``_point_jac``), T alone at the rest.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if guess is None:
        uv = _seed_guesses(T, pts)
    else:
        uv = np.array(np.broadcast_to(np.asarray(guess, dtype=float), pts.shape))
    return _newton(T, pts, uv)


def _newton(T, pts, uv, span=None, tol=None):
    """The Newton loop of ``invert_points`` from the iterates uv, updated in
    place, and whether each residual is within tol (default: where lanes
    stop).  Given per-lane knot spans (su, sv), each lane solves on the
    polynomial piece of its spans, unclamped, so it may leave the square.
    A full step's evaluation brings J; a lane a shorter step moves is stale."""

    def lanes(at, x):  # the spans of lanes ``at`` for parameters x (len(at), ..., 2)
        return None if span is None else [s[at].reshape(-1, *[1] * (x.ndim - 2)) for s in span]

    p, jac = _point_jac(T, uv, lanes(slice(None), uv))
    r, stale = p - pts, np.zeros(len(uv), dtype=bool)
    res = _norms(r)
    live = np.flatnonzero(res > T.invert_tol)
    for _ in range(INVERT_MAX_ITER):
        if not len(live):
            break
        redo = live[stale[live]]
        if len(redo):
            jac[redo], stale[redo] = _point_jac(T, uv[redo], lanes(redo, uv[redo]))[1], False
        steps = _newton_steps(jac[live], r[live])
        # the full step on every lane, then all shorter ones at once on the
        # lanes it fails; a lane takes the first scale that improves
        search = live
        for full, lams in ((True, _LINE_SEARCH[:1]), (False, _LINE_SEARCH[1:])):
            if not len(search):
                break
            trial = uv[search, None] + lams[:, None] * steps[:, None]
            if span is None:
                trial = np.where(trial < 0.0, 0.0, trial)  # max(x, 0.0), then
                trial = np.where(trial > 1.0, 1.0, trial)  # min(x, 1.0) of floats
            at = lanes(search, trial)
            p2, j2 = _point_jac(T, trial, at) if full else (_piece_point(T, trial, at), None)
            r2 = p2 - pts[search, None]
            n2 = _norms(r2.reshape(-1, 2)).reshape(len(search), len(lams))
            better = n2 < res[search, None]
            miss = ~better.any(axis=1)
            found = np.flatnonzero(~miss)
            pick, hit = np.argmax(better[found], axis=1), search[found]
            uv[hit], r[hit], res[hit] = trial[found, pick], r2[found, pick], n2[found, pick]
            stale[hit] = not full
            if full:
                jac[hit] = j2[found, 0]
            search, steps = search[miss], steps[miss]
        live = live[(res[live] > T.invert_tol) & ~np.isin(live, search)]
    return uv, res <= (T.invert_tol if tol is None else tol)


def invert(T, p, guess=None):
    """Parameters (u, v) with T(u, v) = p: ``invert_points`` on one lane.

    Raises InversionError when no parameter in [0,1]^2 reproduces p to
    tolerance (the point lies outside the map image).
    """
    p = np.asarray(p, dtype=float)
    uv, ok = invert_points(T, p, None if guess is None else np.reshape(guess, (1, 2)))
    u, v = float(uv[0, 0]), float(uv[0, 1])
    if ok[0]:
        return u, v
    res = float(np.linalg.norm(T.point(u, v) - p))
    raise InversionError(
        f"point inversion did not converge (residual {res:.2e}); point outside image?"
    )


# ---------------------------------------------------------------------------
# iso-curve extraction and pull-back


def knot_iso_curves(T):
    """Physical-space curves of the map's interior knot lines, extracted
    exactly from the tensor product (one B-spline curve per interior knot
    per direction)."""
    space = T.space
    curves = []
    for ubar in space.interior_knots_u():
        first, bu = space.basis_u(ubar)
        q = np.tensordot(bu, T.ctrl[first : first + space.du + 1], axes=1)
        curves.append(
            ParamCurve("bspline", q, degree=space.dv, knots=space.tv.copy())
        )
    for vbar in space.interior_knots_v():
        first, bv = space.basis_v(vbar)
        q = np.tensordot(bv, T.ctrl[:, first : first + space.dv + 1], axes=(0, 1))
        curves.append(
            ParamCurve("bspline", q, degree=space.du, knots=space.tu.copy())
        )
    return curves


def boundary_curves(T):
    """The four boundary curves of the map image (clamped control rows)."""
    space = T.space
    return [
        ParamCurve("bspline", T.ctrl[:, 0], degree=space.du, knots=space.tu.copy()),
        ParamCurve("bspline", T.ctrl[:, -1], degree=space.du, knots=space.tu.copy()),
        ParamCurve("bspline", T.ctrl[0], degree=space.dv, knots=space.tv.copy()),
        ParamCurve("bspline", T.ctrl[-1], degree=space.dv, knots=space.tv.copy()),
    ]


@dataclass
class PulledBackCurve:
    """A least-squares fit in the parameter square of an inverted curve."""

    curve: ParamCurve
    residual: float
    source_range: tuple
    trimmed: bool


def _chebyshev_lobatto(a, b, m):
    k = np.arange(m)
    x = np.cos(np.pi * k / (m - 1))[::-1]
    return a + (b - a) * 0.5 * (x + 1.0)


def _shared_cuts(span, wall, tol):
    """The parameters on span of wall's ends if the spans run together within
    tol between two of their ends (those in the other's padded box, not all
    at one point), over a stretch longer than tol, else None."""
    ends = [wall.ctrl[[0, -1]], span.ctrl[[0, -1]]]
    near = [np.all((p >= c.ctrl.min(axis=0) - tol) & (p <= c.ctrl.max(axis=0) + tol), axis=1)
            for p, c in zip(ends, (span, wall))]
    pts = np.concatenate([p[m] for p, m in zip(ends, near)])
    if len(pts) < 2 or np.all(_norms(pts - pts[0]) <= tol):
        return None
    t, dist = project_points(span, ends[0][near[0]], _PRESAMPLES)
    _, back = project_points(wall, ends[1][near[1]], _PRESAMPLES)
    on = np.concatenate([t[dist <= tol], np.array(span.domain)[near[1]][back <= tol]])
    if len(on) < 2 or _norms(np.diff(span.point(np.array([on.min(), on.max()])), axis=0))[0] <= tol:
        return None
    stretch = span.restricted(on.min(), on.max())
    pts = stretch.point(np.linspace(*stretch.domain, 17))
    return t[dist <= tol] if _coincident(pts, wall, tol) else None


def _inside_arcs(T1, gammas):
    """Maximal parameter ranges of each curve lying inside the image of T1.

    Each curve is cut at its breakpoints and where its spans meet the spans
    of T1's boundary curves: at the ends of a stretch where they run
    together (``_shared_cuts``, maps that share a boundary), else at the
    hits of ``intersect_curve_pair`` at T1's inversion tolerance, whose
    errors propagate.  A pair whose boxes lie farther apart than that
    tolerance meets in neither.  The midpoints of all pieces are inverted in
    one batch, but for those farther than twice that tolerance outside T1's
    box (``_near_box``), which cannot invert; consecutive inside pieces join
    into one arc.
    """
    tol = T1.invert_tol
    walls = [(w, _box(w.nets()[0][2])) for c in boundary_curves(T1) for w in c.spans()]
    cuts = []
    for gamma in gammas:
        brk = gamma.breakpoints()
        ts = list(brk)
        for u0, u1, span in zip(brk[:-1], brk[1:], gamma.spans()):
            s0, s1 = span.domain
            box = _box(span.nets()[0][2])
            for wall, wall_box in walls:
                if _apart(box, wall_box, tol):
                    continue
                local = _shared_cuts(span, wall, tol)
                if local is None:
                    local = [h.t_a for h in intersect_curve_pair(span, wall, tol)]
                ts += [u0 + (t - s0) * ((u1 - u0) / (s1 - s0)) for t in local]
        cuts.append(_distinct(np.sort(ts)))
    mids = np.concatenate([g.point(0.5 * (t[:-1] + t[1:])) for g, t in zip(gammas, cuts)])
    ok = _near_box(T1, mids, 2.0 * tol)
    if ok.any():
        ok[ok] = invert_points(T1, mids[ok])[1]
    ok = np.split(ok, np.cumsum([len(t) - 1 for t in cuts]))
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


def pull_back(T1, gamma, fit_tol=1e-8, arc=None):
    """Pull a physical curve back into T1's parameter square.

    Samples PULL_BACK_SAMPLES Chebyshev-distributed parameters of the arc
    (by default the longest one inside T1's image), inverts them in one
    batch, and fits a B-spline of degree max(3, deg gamma) with the fewest
    spans of two rungs that meets ``fit_tol``: one span, else 12 control
    points on uniform-arc-length knots.  When neither fit does, FitError
    carries the second fit's residual and the curve parameter of its
    sample with the largest residual as ``worst_sample``.
    """
    a, b = gamma.domain
    if arc is None:
        arcs = _inside_arcs(T1, [gamma])[0]
        if not arcs:
            raise InversionError("curve lies outside the map image")
        arc = max(arcs, key=lambda ab: ab[1] - ab[0])
    lo, hi = arc
    trimmed = lo > a + 1e-12 or hi < b - 1e-12

    degree = max(3, gamma.degree)
    m = max(PULL_BACK_SAMPLES, 2 * degree + 3)
    ts = _chebyshev_lobatto(lo, hi, m)
    params = (ts - lo) / (hi - lo)
    target = gamma.point(ts)
    inverted, ok = invert_points(T1, target)
    if not ok.all():
        raise InversionError(
            f"inversion failed inside a trimmed arc at parameter {ts[np.argmin(ok)]:.6g}"
        )
    for n_ctrl in (degree + 1, max(degree + 1, min(12, m // 5))):
        knots = uniform_arclength_knots(inverted, degree, n_ctrl, sample_params=params)
        ctrl = fit_bspline(params, inverted, degree, knots, fix_ends=True)
        fit = ParamCurve("bspline", ctrl, degree=degree, knots=knots)
        errs = _norms(T1.point_pairs(fit.point(params)) - target)
        worst = int(np.argmax(errs))
        residual = float(errs[worst])
        if residual <= fit_tol:
            return PulledBackCurve(fit, residual, (float(lo), float(hi)), trimmed)
    raise FitError(
        f"pull-back fit residual {residual:.2e} exceeds tolerance {fit_tol:.2e}",
        worst_sample=float(ts[worst]),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# interface drawing


def _coincident(pts, existing, tol):
    """Whether every point of pts, 17 samples of a curve, lies within tol of existing."""
    lo, hi = existing.bbox()
    if np.any(pts < lo - tol) or np.any(pts > hi + tol):
        return False  # a sample lies farther than tol from existing's control hull
    _, dist = project_points(existing, pts, _PRESAMPLES)
    return bool(np.all(dist <= tol))


def build_interface_drawing(T1, T2, tol=1e-7, fit_tol=1e-8):
    """The interface drawing on T1's parameter square.

    Combines the square boundary, T1's interior knot lines, and pull-backs
    of T2's knot iso-curves and boundary curves (clipped to the image
    overlap, duplicates of already-present curves dropped).  The drawing's
    ``fit_error`` is the largest fit residual of the pull-backs.
    """
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    lines = list(zip(corners, corners[1:] + corners[:1]))
    lines += [((u, 0.0), (u, 1.0)) for u in T1.space.interior_knots_u().tolist()]
    lines += [((0.0, v), (1.0, v)) for v in T1.space.interior_knots_v().tolist()]
    curves = [trusted_bezier(np.array(net), net) for net in lines]

    gammas = knot_iso_curves(T2) + boundary_curves(T2)
    pulled = [
        pull_back(T1, gamma, fit_tol=fit_tol, arc=arc)
        for gamma, arcs in zip(gammas, _inside_arcs(T1, gammas))
        for arc in arcs
    ]

    for pb in pulled:
        dedupe_tol = max(tol, 10.0 * pb.residual)
        pts = pb.curve.point(np.linspace(*pb.curve.domain, 17))
        if not any(_coincident(pts, c, dedupe_tol) for c in curves):
            curves.append(pb.curve)

    drawing = build_drawing(curves, tol=tol)
    drawing.fit_error = max((pb.residual for pb in pulled), default=0.0)
    return drawing


# ---------------------------------------------------------------------------
# spline-product integration


def _piece_rows(S, x, span):
    """Tensor B-spline rows (len(x), (du + 1)(dv + 1)) of the space S at the
    parameters x, on the polynomial pieces of the knot spans (su, sv)."""
    _, bu = basis_rows(S.tu, S.du, x[:, 0], span[0])
    _, bv = basis_rows(S.tv, S.dv, x[:, 1], span[1])
    return (bu[:, :, None] * bv[:, None, :]).reshape(len(x), (S.du + 1) * (S.dv + 1))


def _coupling_blocks(space1, space2, T1, T2, region_set, n):
    """(element of space1, dof windows in space1 and space2, M) of every
    interior region covered by T2, in region order.

    A region lies in one element e1 of T1 and one e2 of T2, where the
    integrand is one polynomial piece: T1's on e1, the inverse of T2's on e2
    and the B-spline rows of e1 and e2.  M = B1(x)^T diag(w det) B2(x') on
    the n x n Gauss nodes x of the region's signed tiles and x' =
    T2_e2^-1(T1_e1(x)), every piece extended beyond its element, so a node
    outside the region still reads the region's piece.  e1 and e2 hold the
    centres of the boxes of samples of the region's boundary in T1's and
    T2's squares, and a region is covered iff all its samples map into T2's
    image, to the drawing's error.  A nested component of the drawing
    raises GeometryError.
    """
    drawing = region_set.drawing
    components = drawing.components()
    if len(components) > 1:
        corner = min(drawing.vertices.values(), key=lambda v: float(np.hypot(*v.position))).id
        raise GeometryError(
            f"interface drawing has a nested component at vertices "
            f"{next(c for c in components if corner not in c)}: "
            "holes are not yet assigned to their regions"
        )
    for S, T in ((space1, T1.space), (space2, T2.space)):  # each region in one element of S
        if not (np.isin(S.breakpoints_u(), T.breakpoints_u()).all()
                and np.isin(S.breakpoints_v(), T.breakpoints_v()).all()):
            raise GeometryError("a spline space has knot lines that its map does not have")
    tiles = [region_tiles(region, drawing) for region in region_set.regions]
    samples = [_boundary_samples(t) for t in tiles]
    at = np.cumsum([0] + [len(x) for x in samples[:-1]])
    samples = np.concatenate(samples)
    physical = T1.point_pairs(samples)
    # a sample on a pull-back of T2's boundary misses its image by the fit
    # error (tenfold, for the error between fitted samples), plus T1's stretch
    # (by its hodograph nets) of the drawing's dedupe tolerance in T1's square
    fit = 10.0 * drawing.fit_error
    stretch = sum(np.max(_norms(h[2].reshape(-1, 2))) for h in (T1.hodograph_u, T1.hodograph_v))
    cover_tol = max(T2.invert_tol, fit + stretch * max(drawing.tol, fit))
    near = _near_box(T2, physical, 2.0 * cover_tol)  # the others are uncovered
    inverted, ok, pts = np.zeros_like(physical), np.zeros(len(physical), dtype=bool), physical[near]
    inverted[near], ok[near] = _newton(T2, pts, _seed_guesses(T2, pts), tol=cover_tol)
    keep = np.flatnonzero(np.logical_and.reduceat(ok, at))
    c1, c2 = (0.5 * (np.minimum.reduceat(x, at) + np.maximum.reduceat(x, at))[keep]
              for x in (samples, inverted))
    sizes = [len(tiles[k]) * n * n for k in keep]
    owner = np.repeat(np.arange(len(keep)), sizes)  # of every node, its place in keep

    def spans(S, c):  # the dofs of S on each kept region, and the spans of every node
        su, sv = find_spans(S.tu, S.du, c[:, 0]), find_spans(S.tv, S.dv, c[:, 1])
        windows = [(slice(a - S.du, a + 1), slice(b - S.dv, b + 1)) for a, b in zip(su, sv)]
        return windows, (su[owner], sv[owner])

    stack = _TileStack(tile for k in keep for tile in tiles[k])
    x, det = stack.gauss_grids(n)
    x, det = x.reshape(-1, 2), det.ravel()
    image = _piece_point(T1, x, spans(T1.space, c1)[1])
    x2, ok = _newton(T2, image, c2[owner], spans(T2.space, c2)[1])
    if not ok.all():
        vid = region_set.regions[keep[owner[np.argmin(ok)]]].trail[0][0]
        raise InversionError(f"region at vertex {vid}: a node does not invert on T2's piece")
    (windows1, at1), (windows2, at2) = spans(space1, c1), spans(space2, c2)
    weight = np.tile(np.outer(*2 * [gauss01(n)[1]]).ravel(), len(stack)) * det
    cuts = np.cumsum(sizes)[:-1]
    rows1 = np.split(_piece_rows(space1, x, at1), cuts)
    rows2 = np.split(weight[:, None] * _piece_rows(space2, x2, at2), cuts)
    return [
        (space1.element_of(*c), w1, w2, r1.T @ r2)
        for c, w1, w2, r1, r2 in zip(c1, windows1, windows2, rows1, rows2)
    ]


def integrate_spline_product(s1, s2, T1, T2, region_set, n):
    """Integral over the parameter square of s1 * (s2 o T2^-1 o T1).

    The sum of c1^T M c2 over the coupling blocks of the covered regions
    (``_coupling_blocks``), exact up to inversion and pull-back tolerances
    with enough Gauss points n per direction.  Regions outside the image of
    T2 contribute zero (zero extension).
    """
    blocks = _coupling_blocks(s1.space, s2.space, T1, T2, region_set, n)
    return float(sum(s1.coeffs[w1].ravel() @ m @ s2.coeffs[w2].ravel() for _, w1, w2, m in blocks))


@dataclass(frozen=True)
class composed_field:  # noqa: N801 - a public name called like a function
    """The field s2 o T2^-1 o T1 on T1's parameter square, zero-extended:
    a grid-callable f(u, v) whose points with physical image outside T2
    evaluate to 0.  ``llm_project`` integrates it region by region."""

    s2: SplineFunc2D
    T1: SplineMap2D
    T2: SplineMap2D

    def __call__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast(u, v).shape
        uu = np.broadcast_to(u, shape).ravel()
        vv = np.broadcast_to(v, shape).ravel()
        uv, ok = invert_points(self.T2, self.T1.point(uu, vv))
        out = np.zeros(len(uu))
        out[ok] = self.s2.value(uv[ok, 0], uv[ok, 1])
        return out.reshape(shape) if shape else float(out[0])
