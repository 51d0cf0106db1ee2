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

from .arrangement import build_drawing
from .curves import (
    ParamCurve,
    _norms,
    basis_row,
    basis_rows,
    derivative_data,
    fit_bspline,
    project_points,
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


def _try_invert(T, p, guess=None):
    try:
        return invert(T, p, guess=guess)
    except InversionError:
        return None


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


def _inside_arcs(T1, gammas, probes=129):
    """Maximal parameter ranges of each curve lying inside the image of T1.

    The probes of all curves are inverted in one batch; the arc ends are
    then refined together by bisection on the inversion-success predicate.
    """
    ts = [np.linspace(*gamma.domain, probes) for gamma in gammas]
    uv, ok = invert_points(T1, np.concatenate([g.point(t) for g, t in zip(gammas, ts)]))
    uv, ok = uv.reshape(len(gammas), probes, 2), ok.reshape(len(gammas), probes)

    arcs, ends = [], []  # runs of inside probes per curve; bisections of their ends
    for c, (gamma, t) in enumerate(zip(gammas, ts)):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], ok[c], [0])).astype(int)))
        firsts, lasts = edges[::2], edges[1::2] - 1
        arcs.append([[t[i], t[j]] for i, j in zip(firsts, lasts)])
        for run, i, j in zip(arcs[-1], firsts, lasts):
            if i > 0:
                ends.append((run, 0, gamma, t[i - 1], t[i], uv[c, i]))
            if j + 1 < probes:
                ends.append((run, 1, gamma, t[j + 1], t[j], uv[c, j]))
    for (run, side, *_), t in zip(ends, _bisect_boundaries(T1, [e[2:] for e in ends])):
        run[side] = t
    return [
        [(float(lo), float(hi)) for lo, hi in runs if hi - lo > 1e-9 * (t[-1] - t[0])]
        for t, runs in zip(ts, arcs)
    ]


def _bisect_boundaries(T1, jobs, tol=1e-10):
    """Last inside parameters of curve stretches, all bisected at once.

    Each job is (gamma, t_out, t_in, solution at t_in), with gamma(t_out)
    outside the image of T1 and gamma(t_in) inside.  Each step inverts the
    midpoint from the last inside solution; the parameters move until they
    are within tol.
    """
    t_out = np.array([job[1] for job in jobs])
    t_in = np.array([job[2] for job in jobs])
    warm = np.array([job[3] for job in jobs]).reshape(-1, 2)
    live = np.flatnonzero(np.abs(t_in - t_out) > tol)
    while len(live):
        mid = 0.5 * (t_out[live] + t_in[live])
        pts = np.array([jobs[k][0].point(t) for k, t in zip(live, mid)])
        sol, good = invert_points(T1, pts, warm[live])
        t_in[live[good]], warm[live[good]] = mid[good], sol[good]
        t_out[live[~good]] = mid[~good]
        live = live[np.abs(t_in[live] - t_out[live]) > tol]
    return t_in


def pull_back(T1, gamma, sample_count=65, fit_tol=1e-8, arc=None):
    """Pull a physical curve back into T1's parameter square.

    Samples at Chebyshev-distributed parameters, inverts them in one batch,
    and fits a B-spline of degree max(3, deg gamma) with
    uniform-arc-length knots.  One escalation (double samples and knots) is
    attempted before failing; the FitError then carries the curve parameter
    of the sample with the largest residual as ``worst_sample``.
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
    m = max(sample_count, 2 * degree + 3)
    n_ctrl = max(degree + 1, min(12, m // 5))
    for attempt in range(2):
        ts = _chebyshev_lobatto(lo, hi, m)
        params = (ts - lo) / (hi - lo)
        inverted, ok = invert_points(T1, gamma.point(ts))
        if not ok.all():
            raise InversionError(
                f"inversion failed inside a trimmed arc at parameter {ts[np.argmin(ok)]:.6g}"
            )
        knots = uniform_arclength_knots(inverted, degree, n_ctrl, sample_params=params)
        ctrl = fit_bspline(params, inverted, degree, knots, fix_ends=True)
        fit = ParamCurve("bspline", ctrl, degree=degree, knots=knots)
        errs = _norms(T1.point_pairs(fit.point(params)) - gamma.point(ts))
        worst = int(np.argmax(errs))
        residual = float(errs[worst])
        if residual <= fit_tol:
            return PulledBackCurve(fit, residual, (float(lo), float(hi)), trimmed)
        m = 2 * m - 1
        n_ctrl = min(2 * n_ctrl, m - 2)
    raise FitError(
        f"pull-back fit residual {residual:.2e} exceeds tolerance {fit_tol:.2e}",
        worst_sample=float(ts[worst]),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# interface drawing


def _coincident(candidate, existing, tol):
    pts = candidate.point(np.linspace(*candidate.domain, 17))
    lo, hi = existing.bbox()
    if np.any(pts < lo - tol) or np.any(pts > hi + tol):
        return False  # a sample lies farther than tol from existing's control hull
    _, dist = project_points(existing, pts, 65)
    return bool(np.all(dist <= tol))


def build_interface_drawing(T1, T2, tol=1e-7, fit_tol=1e-8, sample_count=65):
    """The interface drawing on T1's parameter square.

    Combines the square boundary, T1's interior knot lines, and pull-backs
    of T2's knot iso-curves and boundary curves (clipped to the image
    overlap, duplicates of already-present curves dropped).
    """
    sq = [
        ParamCurve("segment", [(0.0, 0.0), (1.0, 0.0)]),
        ParamCurve("segment", [(1.0, 0.0), (1.0, 1.0)]),
        ParamCurve("segment", [(1.0, 1.0), (0.0, 1.0)]),
        ParamCurve("segment", [(0.0, 1.0), (0.0, 0.0)]),
    ]
    curves = list(sq)
    for ubar in T1.space.interior_knots_u():
        curves.append(ParamCurve("segment", [(ubar, 0.0), (ubar, 1.0)]))
    for vbar in T1.space.interior_knots_v():
        curves.append(ParamCurve("segment", [(0.0, vbar), (1.0, vbar)]))

    gammas = knot_iso_curves(T2) + boundary_curves(T2)
    pulled = [
        pull_back(T1, gamma, sample_count=sample_count, fit_tol=fit_tol, arc=arc)
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
    return _try_invert(T2, T1.point_pairs(rep)) is not None


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
