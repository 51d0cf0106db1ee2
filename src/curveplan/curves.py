"""Planar parametric curves: segments, Bezier curves and clamped B-splines.

All three kinds are stored in a common clamped B-spline form (a segment is a
degree-1 Bezier), which keeps evaluation, differentiation and restriction
exact on polynomial pieces.  Curves are immutable; every operation returns
plain numpy data or a new curve.
"""

import functools

import numpy as np

from .errors import DegenerateTangentError, GeometryError, SchemaError

KINDS = ("segment", "bezier", "bspline")

#: relative tolerance used to snap split parameters onto existing knots
_KNOT_SNAP = 1e-12


# ---------------------------------------------------------------------------
# low-level B-spline machinery


def find_span(knots, degree, t):
    """Index i of the knot span with knots[i] <= t < knots[i+1].

    The returned span always addresses a non-empty span inside the clamped
    domain, so evaluation at the right domain end is well defined.
    """
    n = len(knots) - degree - 1
    if t >= knots[n]:
        i = n - 1
        while knots[i] == knots[i + 1]:
            i -= 1
        return i
    if t <= knots[degree]:
        i = degree
        while knots[i] == knots[i + 1]:
            i += 1
        return i
    return int(np.searchsorted(knots, t, side="right")) - 1


def find_spans(knots, degree, t):
    """``find_span`` over a 1-d parameter array, clamped the same way.

    The spans of the domain ends bound the plain search from both sides.
    """
    n = len(knots) - degree - 1
    lo = np.searchsorted(knots, knots[degree], side="right") - 1
    hi = np.searchsorted(knots, knots[n]) - 1
    return np.minimum(np.maximum(np.searchsorted(knots, t, side="right") - 1, lo), hi)


def basis_rows(knots, degree, t):
    """First indices (m,) and values (m, degree+1) of the non-zero basis
    functions at every parameter of a 1-d array.

    The Cox-de Boor triangle of A2.2 (Piegl & Tiller) run on all parameters
    at once, with the scalar recurrence's operation order per element.
    """
    knots = np.asarray(knots, dtype=float)
    t = np.asarray(t, dtype=float)
    span = find_spans(knots, degree, t)
    out = [np.ones_like(t)]
    left, right = [None], [None]
    for j in range(1, degree + 1):
        left.append(t - knots[span + 1 - j])
        right.append(knots[span + j] - t)
        saved = 0.0
        for r in range(j):
            tmp = out[r] / (right[r + 1] + left[j - r])
            out[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        out.append(saved)
    return span - degree, np.stack(out, axis=-1)


def basis_row(knots, degree, t):
    """(first_index, values) of the non-zero basis functions at parameter t."""
    first, vals = basis_rows(knots, degree, [t])
    return int(first[0]), vals[0]


def basis_matrix(knots, degree, params):
    """Dense collocation matrix B[k, i] = N_i(params[k])."""
    first, vals = basis_rows(knots, degree, params)
    mat = np.zeros((len(vals), len(knots) - degree - 1))
    np.put_along_axis(mat, first[:, None] + np.arange(degree + 1), vals, axis=1)
    return mat


def deboor_point(knots, degree, ctrl, t):
    """Evaluate a B-spline curve with the de Boor recurrence."""
    span = find_span(knots, degree, t)
    d = [np.array(ctrl[span - degree + j], dtype=float) for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = span - degree + j
            den = knots[i + degree - r + 1] - knots[i]
            alpha = 0.0 if den == 0.0 else (t - knots[i]) / den
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[degree]


def deboor_points(knots, degree, ctrl, t):
    """``deboor_point`` over a 1-d parameter array; bit-equal per element.

    Each level r of the recurrence updates all points j = r..degree of all
    parameters at once, from the previous level's values, with the scalar
    code's operation order and its alpha = 0 rule for empty knot intervals.
    ``ctrl`` may stack nets of one knot vector, shape (..., n, 2); the
    result then has shape (..., len(t), 2).
    """
    t = np.asarray(t, dtype=float)
    first = find_spans(knots, degree, t) - degree
    d = np.asarray(ctrl, dtype=float)[..., first[:, None] + np.arange(degree + 1), :]
    win = knots[first[:, None] + np.arange(2 * degree + 1)]
    tt = t[:, None]
    for r in range(1, degree + 1):
        lo = win[:, r : degree + 1]
        den = win[:, degree + 1 : 2 * degree + 2 - r] - lo
        alpha = np.divide(tt - lo, den, out=np.zeros_like(den), where=den != 0.0)[..., None]
        d[..., r:, :] = (1.0 - alpha) * d[..., r - 1 : -1, :] + alpha * d[..., r:, :]
    return d[..., degree, :]


def _norms(r):
    """Norms of the rows of an (n, 2) array, each the root of a BLAS dot as
    in ``np.linalg.norm`` of one row; ``axis=1`` would round differently."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None]))[:, 0, 0]


def derivative_data(knots, degree, ctrl):
    """Control data of the hodograph (first derivative curve); ``ctrl`` may
    stack nets of one knot vector, shape (..., n, 2)."""
    ctrl = np.asarray(ctrl, dtype=float)
    if degree == 0:
        return np.asarray(knots, dtype=float), 0, np.zeros_like(ctrl)
    n = ctrl.shape[-2]
    den = knots[degree + 1 : degree + n] - knots[1:n]
    den = np.where(den == 0.0, 1.0, den)
    dctrl = degree * (ctrl[..., 1:, :] - ctrl[..., :-1, :]) / den[:, None]
    return np.asarray(knots[1:-1], dtype=float), degree - 1, dctrl


def _multiplicity(knots, t, tol):
    return int(np.sum(np.abs(knots - t) <= tol))


def _boehm_steps(kn, degree, pts, k, t, reps):
    """Insert the interior parameter t ``reps`` times in one pass (A5.1).

    Step q is the Boehm step on span k + q, its knots read from the input
    list ``kn``.  Unlike A5.1, each step recomputes all ``degree`` points,
    also those with alpha = 0 that A5.1 copies, so the full-multiplicity
    step needs no special case and the result is bit-equal to ``reps``
    single Boehm insertions, signed zeros included.  Plain floats: nets are
    tiny.  Returns the refined list of points.
    """
    pts = list(pts)
    for q in range(reps):
        new = []
        for i in range(k + q - degree + 1, k + q + 1):
            lo = kn[i] if i <= k else t
            den = kn[i + degree - q] - lo
            alpha = 1.0 if den == 0.0 else (t - lo) / den
            new.append([(1.0 - alpha) * a + alpha * b for a, b in zip(pts[i - 1], pts[i])])
        pts[k + q - degree + 1 : k + q] = new
    return pts


def split_bspline(knots, degree, ctrl, t):
    """Split a clamped B-spline at t into two independent clamped curves."""
    knots = np.asarray(knots, dtype=float)
    ctrl = np.asarray(ctrl, dtype=float)
    span_len = knots[-1] - knots[0]
    snap = _KNOT_SNAP * max(span_len, 1.0)
    near = knots[np.abs(knots - t) <= snap]
    if len(near):
        t = near[0]
    reps = degree + 1 - _multiplicity(knots, t, snap)
    if reps > 0:
        k = find_span(knots, degree, t)
        ctrl = np.array(_boehm_steps(knots.tolist(), degree, ctrl.tolist(), k, float(t), reps))
        knots = np.concatenate((knots[: k + 1], np.full(reps, float(t)), knots[k + 1 :]))
    j = int(np.searchsorted(knots, t - snap, side="left"))
    while abs(knots[j] - t) > snap:
        j += 1
    left = (knots[: j + degree + 1].copy(), ctrl[:j].copy())
    right = (knots[j:].copy(), ctrl[j:].copy())
    return left, right


@functools.cache
def _bezier_knots(degree):
    """The clamped knot vector of a degree-``degree`` Bézier on [0, 1],
    shared and read-only."""
    knots = np.array([0.0] * (degree + 1) + [1.0] * (degree + 1))
    knots.flags.writeable = False
    return knots


# ---------------------------------------------------------------------------
# curve type


class ParamCurve:
    """A planar parametric curve of kind segment, bezier or bspline.

    Parameters
    ----------
    kind : str
        One of ``"segment"``, ``"bezier"``, ``"bspline"``.
    control_points : array_like, shape (n, 2)
    degree : int, optional
        Required for ``bspline``; implied for the other kinds.
    knots : array_like, optional
        Clamped non-decreasing knot vector, required iff kind is bspline.
    """

    __slots__ = (
        "kind", "degree", "knots", "ctrl", "domain", "reduced_continuity",
        "_d1", "_d2", "_brk", "_nets", "_diag",
    )

    def __init__(self, kind, control_points, degree=None, knots=None, *, _allow_c0=False):
        if kind not in KINDS:
            raise SchemaError(f"unknown curve kind {kind!r}", field="kind")
        try:
            ctrl = np.atleast_2d(np.asarray(control_points, dtype=float))
        except (TypeError, ValueError, OverflowError):  # ragged or not numbers
            raise SchemaError("control points must be numbers", field="points") from None
        if ctrl.ndim != 2 or ctrl.shape[1] != 2:
            raise SchemaError("control points must be an (n, 2) array", field="points")
        if not np.all(np.isfinite(ctrl)):
            raise SchemaError("control points must be finite", field="points")
        reduced = False

        if kind == "segment":
            if len(ctrl) != 2:
                raise SchemaError("segment needs exactly 2 control points", field="points")
            degree = 1
            knots = _bezier_knots(1)
        elif kind == "bezier":
            if degree is None:
                degree = len(ctrl) - 1
            if len(ctrl) != degree + 1:
                raise SchemaError("bezier needs degree+1 control points", field="points")
            if degree < 1:
                raise SchemaError("bezier degree must be >= 1", field="degree")
            knots = _bezier_knots(int(degree))
        else:
            if degree is None or knots is None:
                raise SchemaError("bspline needs degree and knots", field="knots")
            try:
                knots = np.asarray(knots, dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise SchemaError("knots must be numbers", field="knots") from None
            if len(knots) != len(ctrl) + degree + 1:
                raise SchemaError(
                    "knot count must equal control count + degree + 1", field="knots"
                )
            if np.any(np.diff(knots) < 0):
                raise SchemaError("knots must be non-decreasing", field="knots")
            if np.any(knots[: degree + 1] != knots[0]) or np.any(knots[-degree - 1 :] != knots[-1]):
                raise SchemaError("knots must be clamped", field="knots")
            reduced = self._check_interior_continuity(knots, degree, _allow_c0)
        self._set(kind, int(degree), knots, ctrl, reduced)

    def _set(self, kind, degree, knots, ctrl, reduced, net=None):
        self.kind, self.degree, self.knots, self.ctrl = kind, degree, knots, ctrl
        self.domain = float(knots[degree]), float(knots[-degree - 1])
        self.reduced_continuity = reduced
        self._d1 = self._d2 = self._brk = self._diag = None
        self._nets = None if net is None else ((0.0, 1.0, net),)
        return self

    @staticmethod
    def _trusted(kind, degree, knots, ctrl, reduced=False, net=None):
        """The constructor without its checks, for checked data; ``net``, the
        float pairs of a one-span curve on [0, 1], primes ``nets()``."""
        return ParamCurve.__new__(ParamCurve)._set(kind, degree, knots, ctrl, reduced, net)

    @staticmethod
    def _check_interior_continuity(knots, degree, allow_c0):
        """Enforce interior smoothness; returns the reduced-continuity flag.

        Degree >= 3 requires interior multiplicity <= degree-2 (a C^2 curve);
        lower degrees accept simple interior knots but are flagged.  Internal
        constructions (seam-crossing restrictions of closed curves) may relax
        this to multiplicity = degree.
        """
        interior = knots[degree + 1 : -degree - 1]
        if len(interior) == 0:
            return False
        vals, counts = np.unique(interior, return_counts=True)
        if np.any(vals <= knots[0]) or np.any(vals >= knots[-1]):
            raise SchemaError("interior knots must be strictly inside the domain", field="knots")
        max_mult = int(counts.max())
        if max_mult > degree:
            raise SchemaError("interior knot multiplicity exceeds degree", field="knots")
        if allow_c0:
            return max_mult > max(degree - 2, 0)
        if degree >= 3:
            if max_mult > degree - 2:
                raise SchemaError(
                    "interior knot multiplicity breaks the C2 requirement", field="knots"
                )
            return False
        return True  # degree <= 2 with interior knots: accepted, flagged

    # -- basic queries ------------------------------------------------------

    @property
    def n_ctrl(self):
        return len(self.ctrl)

    def interior_knots(self):
        return np.unique(self.knots[self.degree + 1 : -self.degree - 1])

    def breakpoints(self):
        """Unique knot values spanning the domain (polynomial piece bounds)."""
        if self._brk is None:
            brk = self.knots[self.degree : len(self.knots) - self.degree]
            # one span (2 degree + 2 knots): the two domain ends are unique
            one = len(brk) == 2 and brk[0] < brk[1]
            self._brk = brk.copy() if one else np.unique(brk)
            self._brk.flags.writeable = False
        return self._brk

    def spans(self):
        """Single-polynomial-span pieces; the curve itself if it has one span."""
        brk = self.breakpoints()
        if len(brk) == 2:
            return [self]
        return [self.restricted(u0, u1) for u0, u1 in zip(brk[:-1], brk[1:])]

    def nets(self):
        """Per span, ``(u0, u1, net)``: its parameter bounds and its Bézier
        control net as a tuple of ``(x, y)`` float pairs; computed once."""
        if self._nets is None:
            brk = self.breakpoints().tolist()
            self._nets = tuple(
                (u0, u1, tuple(map(tuple, span.ctrl.tolist())))
                for u0, u1, span in zip(brk[:-1], brk[1:], self.spans())
            )
        return self._nets

    def _net(self):
        """The float net of a one-span curve whose ``nets()`` ran, else None."""
        return self._nets[0][2] if self._nets is not None and len(self._nets) == 1 else None

    def _check_t(self, t):
        """Refuse parameters outside the padded domain, NaN included."""
        a, b = self.domain
        pad = 1e-12 * max(b - a, 1.0)
        lo, hi = a - pad, b + pad
        if np.ndim(t) == 0:
            bad = None if lo <= float(t) <= hi else t
        else:
            tt = np.asarray(t, dtype=float)
            ok = tt.size == 0 or (lo <= tt.min() and tt.max() <= hi)
            bad = None if ok else tt[~((tt >= lo) & (tt <= hi))][0]
        if bad is not None:
            raise GeometryError(f"parameter {bad} outside curve domain [{a}, {b}]")

    def point(self, t):
        """Evaluate the curve at a scalar t, or at a 1-d array t (shape (m, 2))."""
        self._check_t(t)
        if np.ndim(t) == 0:
            return deboor_point(self.knots, self.degree, self.ctrl, float(t))
        return deboor_points(self.knots, self.degree, self.ctrl, t)

    def _deriv_data(self, order):
        if order == 1:
            if self._d1 is None:
                self._d1 = derivative_data(self.knots, self.degree, self.ctrl)
            return self._d1
        if order == 2:
            if self._d2 is None:
                self._d2 = derivative_data(*self._deriv_data(1))
            return self._d2
        raise GeometryError("derivative order must be 1 or 2")

    def deriv(self, t, order=1):
        """Derivative of the stated order at a scalar or 1-d array t (exact hodograph)."""
        self._check_t(t)
        knots, degree, ctrl = self._deriv_data(order)
        if np.ndim(t) == 0:
            return deboor_point(knots, degree, ctrl, float(t))
        return deboor_points(knots, degree, ctrl, t)

    def bbox(self):
        """Axis-aligned (min, max) corners; contains the curve image."""
        return self.ctrl.min(axis=0), self.ctrl.max(axis=0)

    def bbox_diag(self):
        if self._diag is None:
            net = self._net()
            lo, hi = self.bbox() if net is None else (list(map(min, *net)), list(map(max, *net)))
            self._diag = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
        return self._diag

    def is_closed(self, tol=1e-9):
        """Whether the ends meet within ``tol``: a clamped curve starts and
        ends at its end control points, which ``deboor_point`` returns."""
        (x0, y0), *_, (x1, y1) = self._net() or self.ctrl[[0, -1]].tolist()
        if 1e-150 < max(abs(x1 - x0), abs(y1 - y0)) > 2.0 * tol:  # a normal square: norm > tol
            return False
        return bool(np.linalg.norm(self.ctrl[-1] - self.ctrl[0]) <= tol)

    # -- reparameterizing operations ----------------------------------------

    def restricted(self, t_lo, t_hi):
        """The sub-curve on [t_lo, t_hi], re-clamped to the domain [0, 1]."""
        a, b = self.domain
        if not (t_lo < t_hi):
            raise GeometryError("restriction interval is inverted or empty")
        pad = 1e-12 * max(b - a, 1.0)
        if not (a - pad <= t_lo and t_hi <= b + pad):
            self._check_t(t_lo)
            self._check_t(t_hi)
        snap = _KNOT_SNAP * max(b - a, 1.0)
        if len(self.knots) == 2 * self.degree + 2:
            cur = self._restricted_span(float(t_lo), float(t_hi), snap)
            if cur is not None:
                return cur
        knots, ctrl = self.knots, self.ctrl
        if t_lo > a + snap:
            (_, _), (knots, ctrl) = split_bspline(knots, self.degree, ctrl, t_lo)
        if t_hi < b - snap:
            (knots, ctrl), (_, _) = split_bspline(knots, self.degree, ctrl, t_hi)
        lo, hi = knots[0], knots[-1]
        if not hi > lo:  # both ends snapped onto one knot
            raise GeometryError("restriction interval is narrower than the knot snap")
        knots = (knots - lo) / (hi - lo)
        return self._rewrap(knots, ctrl, allow_c0=self.reduced_continuity)

    def _restricted_span(self, t_lo, t_hi, snap):
        """``restricted`` of a one-span curve by the Boehm steps of
        split_bspline on its float net, skipping its array round trips and
        checks; None where split_bspline would snap a split onto an end.
        The piece keeps its net."""
        a, b = self.domain
        d, pts, lo = self.degree, self.nets()[0][2], a
        for t, right in ((t_lo, True), (t_hi, False)):
            if (t > a + snap) if right else (t < b - snap):
                span_snap = _KNOT_SNAP * max(b - lo, 1.0)
                if abs(lo - t) <= span_snap or abs(b - t) <= span_snap:
                    return None
                pts = _boehm_steps([lo] * (d + 1) + [b] * (d + 1), d, pts, d, t, d + 1)
                pts, lo = (pts[d + 1 :], t) if right else (pts[: d + 1], lo)
        return trusted_bezier(np.array(pts), tuple(map(tuple, pts)))

    def _rewrap(self, knots, ctrl, allow_c0=False):
        if len(np.unique(knots)) == 2:  # single polynomial piece
            return trusted_bezier(ctrl)
        return ParamCurve("bspline", ctrl, degree=self.degree, knots=knots, _allow_c0=allow_c0)

    def cyclic_restricted(self, t_lo, t_hi):
        """Restriction of a closed curve across its seam (t_hi > domain end).

        The two polynomial stretches on either side of the seam are joined
        into one clamped B-spline; the seam becomes an interior knot of full
        C0 multiplicity, so the result may carry a reduced-continuity flag.
        """
        a, b = self.domain
        if not self.is_closed(tol=1e-6 * max(self.bbox_diag(), 1.0)):
            raise GeometryError("cyclic restriction requires a closed curve")
        if not (a <= t_lo < b and b < t_hi <= t_lo + (b - a)):
            raise GeometryError("cyclic restriction interval must wrap the seam once")
        first = self.restricted(t_lo, b)
        t2 = t_hi - (b - a)
        if t2 <= a + _KNOT_SNAP * max(b - a, 1.0):
            return first
        second = self.restricted(a, t2)
        return concatenate_curves(first, second)

    def reversed(self):
        """Same image traversed with the opposite parameterization."""
        knots = np.ascontiguousarray(self.knots[0] + self.knots[-1] - self.knots[::-1])
        ctrl = np.ascontiguousarray(self.ctrl[::-1])
        return ParamCurve._trusted(self.kind, self.degree, knots, ctrl, self.reduced_continuity)

    def __repr__(self):
        return f"ParamCurve({self.kind}, degree={self.degree}, n={self.n_ctrl})"


def trusted_bezier(ctrl, net=None):
    """The trusted segment or Bézier curve of checked control points (n, 2)."""
    d = len(ctrl) - 1
    return ParamCurve._trusted(("segment", "bezier")[d > 1], d, _bezier_knots(d), ctrl, net=net)


def concatenate_curves(first, second):
    """Join two same-degree curves end to start into one clamped B-spline.

    The junction knot gets multiplicity = degree (a C0 joint); use only for
    internal constructions such as seam-crossing edges.
    """
    if first.degree != second.degree:
        raise GeometryError("cannot concatenate curves of different degrees")
    d = first.degree
    gap = np.linalg.norm(first.ctrl[-1] - second.ctrl[0])
    scale = max(first.bbox_diag(), second.bbox_diag(), 1.0)
    if gap > 1e-6 * scale:
        raise GeometryError("curve concatenation endpoints do not meet")
    joint = 0.5 * (first.ctrl[-1] + second.ctrl[0])

    len1 = first.knots[-1] - first.knots[0]
    len2 = second.knots[-1] - second.knots[0]
    s = len1 / (len1 + len2)
    k1 = (first.knots - first.knots[0]) / len1 * s
    k2 = s + (second.knots - second.knots[0]) / len2 * (1.0 - s)
    knots = np.concatenate([k1[: -1], k2[d + 1 :]])
    ctrl = np.vstack([first.ctrl[:-1], joint[None, :], second.ctrl[1:]])
    cur = ParamCurve("bspline", ctrl, degree=d, knots=knots, _allow_c0=True)
    return cur


# ---------------------------------------------------------------------------
# free-function operations


def evaluate(curve, t):
    """Point c(t); exact for polynomial pieces up to roundoff."""
    return curve.point(t)


def derivative(curve, t, order=1):
    """First or second derivative vector at t."""
    return curve.deriv(t, order)


def restrict(curve, t_lo, t_hi):
    """Sub-curve on [t_lo, t_hi] reparameterized to [0, 1]."""
    return curve.restricted(t_lo, t_hi)


def bbox(curve):
    return curve.bbox()


def tangent_into_interior(curve, t_lo, t_hi, endpoint):
    """Unit tangent at an endpoint of c|[t_lo, t_hi], pointing into the edge."""
    if endpoint not in ("lo", "hi"):
        raise GeometryError("endpoint must be 'lo' or 'hi'")
    t = t_lo if endpoint == "lo" else t_hi
    v = curve.deriv(t, 1)
    if endpoint == "hi":
        v = -v
    n = np.linalg.norm(v)
    if n <= 1e-14 * max(curve.bbox_diag(), 1.0):
        raise DegenerateTangentError(f"vanishing tangent at t={t}")
    return v / n


def signed_curvature(curve, t):
    """kappa = (x' y'' - y' x'') / |c'|^3."""
    d1 = curve.deriv(t, 1)
    d2 = curve.deriv(t, 2)
    speed = np.hypot(d1[0], d1[1])
    if speed <= 1e-14 * max(curve.bbox_diag(), 1.0):
        raise DegenerateTangentError(f"curvature undefined at t={t}: |c'| = 0")
    return float((d1[0] * d2[1] - d1[1] * d2[0]) / speed**3)


def project_points(curve, pts, presamples):
    """Closest-point parameters and distances ``(t, dist)`` of points (m, 2)
    on a curve: the nearest of ``presamples`` uniform samples, then up to 8
    Newton steps on |c(t) - p|^2 for all points at once, ending once a step
    moves no point (the rest would repeat it).  A point stops for good at
    the first step whose second derivative is not positive."""
    a, b = curve.domain
    ts = np.linspace(a, b, presamples)
    t = ts[np.argmin(np.linalg.norm(curve.point(ts) - pts[:, None, :], axis=2), axis=1)]
    live = np.ones(len(t), dtype=bool)
    for _ in range(8):
        r, d1 = curve.point(t) - pts, curve.deriv(t)
        g = np.sum(r * d1, axis=1)
        h = np.sum(d1 * d1, axis=1) + np.sum(r * curve.deriv(t, 2), axis=1)
        live &= h > 0
        t, last = np.where(live, np.clip(t - g / np.where(live, h, 1.0), a, b), t), t
        if np.array_equal(t, last):
            break
    return t, _norms(curve.point(t) - pts)


def fit_bspline(params, points, degree, knots, fix_ends=False):
    """Least-squares B-spline fit of sampled points.

    Parameters
    ----------
    params : (m,) parameters in [knots[0], knots[-1]] assigned to the samples
    points : (m, k) sample values
    degree, knots : the clamped spline space to fit in
    fix_ends : bool
        Interpolate the first and last sample exactly (endpoint constraints).
    """
    params = np.asarray(params, dtype=float)
    points = np.asarray(points, dtype=float)
    mat = basis_matrix(knots, degree, params)
    n = mat.shape[1]
    if not fix_ends:
        ctrl, *_ = np.linalg.lstsq(mat, points, rcond=None)
        return ctrl
    rhs = points - np.outer(mat[:, 0], points[0]) - np.outer(mat[:, -1], points[-1])
    inner, *_ = np.linalg.lstsq(mat[:, 1 : n - 1], rhs, rcond=None)
    return np.vstack([points[0], inner, points[-1]])


def uniform_arclength_knots(samples, degree, n_ctrl, sample_params=None):
    """Clamped knot vector on [0, 1] with interior knots at equal arc fractions.

    ``samples`` is the polyline of fitted data points at the given fit
    parameters; interior knots are placed at parameters splitting the chord
    length of the polyline evenly, kept strictly increasing.
    """
    samples = np.asarray(samples, dtype=float)
    m = len(samples)
    if sample_params is None:
        sample_params = np.linspace(0.0, 1.0, m)
    seg = np.linalg.norm(np.diff(samples, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    arc = np.linspace(0.0, 1.0, m) if total <= 0 else cum / total
    n_interior = n_ctrl - degree - 1
    if n_interior <= 0:
        return np.array([0.0] * (degree + 1) + [1.0] * (degree + 1))
    fracs = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    interior = np.interp(fracs, arc, sample_params)
    gap = 1.0 / (4.0 * (n_interior + 1))
    interior = np.clip(interior, gap, 1.0 - gap)
    for i in range(1, len(interior)):  # keep knots simple: C2 fit curves
        interior[i] = max(interior[i], interior[i - 1] + 1e-6)
    return np.concatenate([[0.0] * (degree + 1), interior, [1.0] * (degree + 1)])
