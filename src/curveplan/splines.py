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

from .arrangement import build_drawing, intersect_curve_pair
from .curves import (
    ParamCurve,
    _norms,
    basis_row,
    basis_rows,
    derivative_data,
    fit_bspline,
    project_points,
    trusted_bezier,
    uniform_arclength_knots,
)
from .errors import FitError, GeometryError, InversionError, SchemaError

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
            if np.any(np.diff(t) < 0):
                raise SchemaError(f"{name}: knots must be non-decreasing", field=name)
            if t[0] != 0.0 or t[-1] != 1.0:
                raise SchemaError(f"{name}: knots must span [0, 1]", field=name)
            if np.any(t[: d + 1] != 0.0) or np.any(t[-d - 1 :] != 1.0):
                raise SchemaError(f"{name}: knots must be clamped", field=name)
        self.nu = len(self.tu) - self.du - 1
        self.nv = len(self.tv) - self.dv - 1

    @property
    def degrees(self):
        return (self.du, self.dv)

    def breakpoints_u(self):
        return np.unique(self.tu)

    def breakpoints_v(self):
        return np.unique(self.tv)

    def interior_knots_u(self):
        return np.unique(self.tu[self.du + 1 : -self.du - 1])

    def interior_knots_v(self):
        return np.unique(self.tv[self.dv + 1 : -self.dv - 1])

    def elements(self):
        """All knot elements as (iu, iv, (u0, u1, v0, v1))."""
        bu, bv = self.breakpoints_u(), self.breakpoints_v()
        out = []
        for iu in range(len(bu) - 1):
            for iv in range(len(bv) - 1):
                out.append((iu, iv, (bu[iu], bu[iu + 1], bv[iv], bv[iv + 1])))
        return out

    def element_of(self, u, v, tol=0.0):
        """Indices of the knot element containing (u, v); arrays of them
        when u and v are arrays."""
        bu, bv = self.breakpoints_u(), self.breakpoints_v()
        iu = np.clip(np.searchsorted(bu, np.add(u, tol), side="right") - 1, 0, len(bu) - 2)
        iv = np.clip(np.searchsorted(bv, np.add(v, tol), side="right") - 1, 0, len(bv) - 2)
        return (int(iu), int(iv)) if np.ndim(iu) == 0 else (iu, iv)

    def basis_u(self, t):
        return basis_row(self.tu, self.du, float(t))

    def basis_v(self, t):
        return basis_row(self.tv, self.dv, float(t))


def _tensor_eval(knots_u, du, knots_v, dv, net, u, v):
    """Evaluate sum_ij net[i, j] N_i(u) M_j(v) at scalar or same-shape u, v.

    N and M are the degree-du and degree-dv B-splines on knots_u and knots_v.
    Per point this is the (1, m) @ (m, k) product over the flattened
    (du+1)(dv+1) block of non-zero basis functions, the same product
    ``np.tensordot(np.outer(bu, bv), block, axes=2)`` forms.  All points of
    a block go through one stacked ``np.matmul``, which runs that product
    per point; einsum or a plain sum would round differently.
    """
    m = (du + 1) * (dv + 1)
    u = np.asarray(u, dtype=float)
    uu, vv = u.ravel(), np.asarray(v, dtype=float).ravel()
    out = np.empty((len(uu), 1, net[0, 0].size))
    for s in range(0, len(uu), _BLOCK):
        fu, bu = basis_rows(knots_u, du, uu[s : s + _BLOCK])
        fv, bv = basis_rows(knots_v, dv, vv[s : s + _BLOCK])
        rows = (fu[:, None] + np.arange(du + 1))[:, :, None]
        cols = (fv[:, None] + np.arange(dv + 1))[:, None, :]
        block = net[rows, cols].reshape(len(fu), m, -1)
        out[s : s + _BLOCK] = np.matmul((bu[:, :, None] * bv[:, None, :]).reshape(-1, 1, m), block)
    return out.reshape(u.shape + net.shape[2:])


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
        nu, nv = space.nu, space.nv
        # hodographs as (knots, degree, net): dT/du on the knots_u side,
        # dT/dv on the knots_v side
        ku, du1, cu = derivative_data(space.tu, space.du, self.ctrl.reshape(nu, -1))
        self.hodograph_u = (ku, du1, cu.reshape(-1, nv, 2))
        flat_u = np.moveaxis(self.ctrl, 1, 0).reshape(nv, -1)
        kv, dv1, cv = derivative_data(space.tv, space.dv, flat_u)
        self.hodograph_v = (kv, dv1, np.moveaxis(cv.reshape(-1, nu, 2), 0, 1))
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
        us, vs = [], []
        for brk, d, acc in (
            (self.space.breakpoints_u(), self.space.du, us),
            (self.space.breakpoints_v(), self.space.dv, vs),
        ):
            for a, b in zip(brk[:-1], brk[1:]):
                acc.extend(np.linspace(a, b, d + 3))
        uu, vv = np.meshgrid(np.unique(us), np.unique(vs), indexing="ij")
        det = self.jacobian_det(uu, vv)
        if np.min(det) <= 0.0:
            raise GeometryError(
                f"map Jacobian is not positive on the sampled grid (min {np.min(det):.2e})"
            )

    def point(self, u, v):
        s = self.space
        return _tensor_eval(s.tu, s.du, s.tv, s.dv, self.ctrl, u, v)

    def point_pairs(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.point(pts[..., 0], pts[..., 1])

    def jacobian(self, u, v):
        """Columns dT/du and dT/dv, shape (..., 2, 2)."""
        s = self.space
        ku, du1, cu = self.hodograph_u
        kv, dv1, cv = self.hodograph_v
        dp_du = _tensor_eval(ku, du1, s.tv, s.dv, cu, u, v)
        dp_dv = _tensor_eval(s.tu, s.du, kv, dv1, cv, u, v)
        return np.stack([dp_du, dp_dv], axis=-1)

    def jacobian_det(self, u, v):
        jac = self.jacobian(u, v)
        return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]

    def mapped_with_jacobian(self, pts):
        """Quadrature hook: physical points and Jacobian determinants."""
        pts = np.asarray(pts, dtype=float)
        return self.point_pairs(pts), self.jacobian_det(pts[..., 0], pts[..., 1])

    def bbox_diag(self):
        lo = self.ctrl.reshape(-1, 2).min(axis=0)
        hi = self.ctrl.reshape(-1, 2).max(axis=0)
        return float(np.hypot(*(hi - lo)))


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
        s = self.space
        return _tensor_eval(s.tu, s.du, s.tv, s.dv, self.coeffs[..., None], u, v)[..., 0]

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


def invert_points(T, pts, guess=None):
    """Parameters (n, 2) with T(u, v) = pts[k], by clamped damped Newton run
    on all points at once; returns (uv, ok).

    Each lane starts from its guess row (or the nearest seed-grid node) and
    takes Newton steps scaled by 1, 1/2, ..., 1/2048 until the residual
    drops.  A lane stops when its residual is within tolerance (ok), when
    no trial improves, or after INVERT_MAX_ITER steps; uv then holds its last
    iterate.  Lanes do not interact: each is bit-for-bit ``invert``.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if guess is None:
        uv = _seed_guesses(T, pts)
    else:
        uv = np.array(np.broadcast_to(np.asarray(guess, dtype=float), pts.shape))
    tol = T.invert_tol
    r = T.point_pairs(uv) - pts
    res = _norms(r)
    live = np.flatnonzero(res > tol)
    for _ in range(INVERT_MAX_ITER):
        if not len(live):
            break
        steps = _newton_steps(T.jacobian(uv[live, 0], uv[live, 1]), r[live])
        # the full step on every lane, then all shorter ones at once on the
        # lanes it fails; a lane takes the first scale that improves
        search = live
        for lams in (_LINE_SEARCH[:1], _LINE_SEARCH[1:]):
            if not len(search):
                break
            trial = uv[search, None] + lams[:, None] * steps[:, None]
            trial = np.where(trial < 0.0, 0.0, trial)  # max(x, 0.0), then
            trial = np.where(trial > 1.0, 1.0, trial)  # min(x, 1.0) of floats
            r2 = T.point_pairs(trial) - pts[search, None]
            n2 = _norms(r2.reshape(-1, 2)).reshape(len(search), len(lams))
            better = n2 < res[search, None]
            found = np.flatnonzero(better.any(axis=1))
            pick, hit = np.argmax(better[found], axis=1), search[found]
            uv[hit], r[hit], res[hit] = trial[found, pick], r2[found, pick], n2[found, pick]
            search, steps = np.delete(search, found), np.delete(steps, found, axis=0)
        live = live[(res[live] > tol) & ~np.isin(live, search)]
    return uv, res <= tol


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
    return t[dist <= tol] if _coincident(span.restricted(on.min(), on.max()), wall, tol) else None


def _inside_arcs(T1, gammas):
    """Maximal parameter ranges of each curve lying inside the image of T1.

    Each curve is cut at its breakpoints and where its spans meet the spans
    of T1's boundary curves: at the ends of a stretch where they run
    together (``_shared_cuts``, maps that share a boundary), else at the
    hits of ``intersect_curve_pair`` at T1's inversion tolerance, whose
    errors propagate.  The midpoints of all pieces are inverted in one
    batch, and consecutive inside pieces join into one arc.
    """
    tol = T1.invert_tol
    walls = [w for c in boundary_curves(T1) for w in c.spans()]
    cuts = []
    for gamma in gammas:
        brk = gamma.breakpoints()
        ts = list(brk)
        for u0, u1, span in zip(brk[:-1], brk[1:], gamma.spans()):
            s0, s1 = span.domain
            for wall in walls:
                local = _shared_cuts(span, wall, tol)
                if local is None:
                    local = [h.t_a for h in intersect_curve_pair(span, wall, tol)]
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


def pull_back(T1, gamma, fit_tol=1e-8, arc=None):
    """Pull a physical curve back into T1's parameter square.

    Samples PULL_BACK_SAMPLES Chebyshev-distributed parameters of the arc
    (by default the longest one inside T1's image), inverts them in one
    batch, and fits a B-spline of degree max(3, deg gamma) with
    uniform-arc-length knots.  A fit off by more than ``fit_tol`` raises
    FitError carrying the curve parameter of the sample with the largest
    residual as ``worst_sample``.
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
    inverted, ok = invert_points(T1, gamma.point(ts))
    if not ok.all():
        raise InversionError(
            f"inversion failed inside a trimmed arc at parameter {ts[np.argmin(ok)]:.6g}"
        )
    n_ctrl = max(degree + 1, min(12, m // 5))
    knots = uniform_arclength_knots(inverted, degree, n_ctrl, sample_params=params)
    ctrl = fit_bspline(params, inverted, degree, knots, fix_ends=True)
    fit = ParamCurve("bspline", ctrl, degree=degree, knots=knots)
    errs = _norms(T1.point_pairs(fit.point(params)) - gamma.point(ts))
    worst = int(np.argmax(errs))
    residual = float(errs[worst])
    if residual > fit_tol:
        raise FitError(
            f"pull-back fit residual {residual:.2e} exceeds tolerance {fit_tol:.2e}",
            worst_sample=float(ts[worst]),
            residual=residual,
        )
    return PulledBackCurve(fit, residual, (float(lo), float(hi)), trimmed)


# ---------------------------------------------------------------------------
# interface drawing


def _coincident(candidate, existing, tol):
    pts = candidate.point(np.linspace(*candidate.domain, 17))
    lo, hi = existing.bbox()
    if np.any(pts < lo - tol) or np.any(pts > hi + tol):
        return False  # a sample lies farther than tol from existing's control hull
    _, dist = project_points(existing, pts, _PRESAMPLES)
    return bool(np.all(dist <= tol))


def build_interface_drawing(T1, T2, tol=1e-7, fit_tol=1e-8):
    """The interface drawing on T1's parameter square.

    Combines the square boundary, T1's interior knot lines, and pull-backs
    of T2's knot iso-curves and boundary curves (clipped to the image
    overlap, duplicates of already-present curves dropped).
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
        if not any(_coincident(pb.curve, c, dedupe_tol) for c in curves):
            curves.append(pb.curve)

    return build_drawing(curves, tol=tol)


# ---------------------------------------------------------------------------
# spline-product integration


def region_covered_by(region, tiles, T1, T2):
    """Whether a region maps into the image of T2 (zero-extension test)."""
    rep = tiles[0].grids(np.array([0.5]), np.array([0.5]))[0][0, 0]
    return bool(invert_points(T2, T1.point_pairs(rep))[1][0])


def integrate_spline_product(s1, s2, T1, T2, region_set, n):
    """Integral over the parameter square of s1 * (s2 o T2^-1 o T1).

    Region-aware: each extracted region lies in single knot elements of
    both spaces, so with enough Gauss points per direction the result is
    exact up to inversion and pull-back tolerances.  Regions outside the
    image of T2 contribute zero (zero extension).
    """
    from .quadrature import integrate_tiles, region_tiles

    tiles = []
    for region in region_set.regions:
        covering = region_tiles(region, region_set.drawing, probe_n=n)
        if region_covered_by(region, covering, T1, T2):
            tiles += covering
    field = composed_field(s2, T1, T2, strict=True)
    return integrate_tiles(tiles, lambda u, v: s1.value(u, v) * field(u, v), n)


def composed_field(s2, T1, T2, outside_value=0.0, strict=False):
    """The field s2 o T2^-1 o T1 on T1's parameter square, zero-extended.

    Returns a grid-callable f(u, v); points whose physical image lies
    outside T2 evaluate to ``outside_value``, or raise when ``strict``
    (for integration over regions known to be covered).
    """

    def field(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast(u, v).shape
        uu = np.broadcast_to(u, shape).ravel()
        vv = np.broadcast_to(v, shape).ravel()
        uv, ok = invert_points(T2, T1.point(uu, vv))
        if strict and not ok.all():
            k = int(np.argmin(ok))
            raise InversionError(
                f"inversion failed at ({uu[k]:.6g}, {vv[k]:.6g}) inside a "
                "region marked covered"
            )
        out = np.full(len(uu), float(outside_value))
        out[ok] = s2.value(uv[ok, 0], uv[ok, 1])
        return out.reshape(shape) if shape else float(out[0])

    return field
