"""Local L2 spline projection and spline level-set coefficients.

Every spline coefficient is produced by a small local problem posed on the
support of its basis function: a Gram system for the quasi-interpolant, or
a basis-weighted average for the level-set construction.  Right-hand sides
over an interface are assembled region by region, so integrands that are
only piecewise smooth keep full Gauss accuracy.
"""

from dataclasses import dataclass, field

import numpy as np

from .curves import _distinct, basis_rows
from .errors import GeometryError
from .quadrature import gauss01
from .splines import SplineFunc2D, _coupling_blocks, composed_field


@dataclass
class LocalProblem:
    """Diagnostics of one local Gram solve."""

    index: tuple  # (i, j) coefficient index
    dof_window: tuple  # inclusive index ranges ((i0, i1), (j0, j1))
    condition: float
    residual: float


@dataclass
class LlmResult:
    function: SplineFunc2D
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# shared assembly pieces


def _span_gram_1d(knots, degree):
    """Per-span Gram blocks: list of (u0, u1, first_dof, (d+1)x(d+1) block)."""
    nodes, weights = gauss01(degree + 1)
    out = []
    brk = _distinct(knots)
    for u0, u1 in zip(brk[:-1], brk[1:]):
        first, vals = basis_rows(knots, degree, u0 + (u1 - u0) * nodes)
        block = (vals.T * (weights * (u1 - u0))) @ vals
        out.append((float(u0), float(u1), int(first[0]), block))
    return out


def _local_gram_1d(span_blocks, lo, hi, dof_lo, dof_hi):
    """Gram of dofs [dof_lo, dof_hi] over the knot interval [lo, hi]."""
    n = dof_hi - dof_lo + 1
    gram = np.zeros((n, n))
    for u0, u1, first, block in span_blocks:
        if lo < 0.5 * (u0 + u1) < hi:  # the span's dofs all lie in the window
            at = slice(first - dof_lo, first - dof_lo + len(block))
            gram[at, at] += block
    return gram


def _dof_window(knots, degree, i):
    """First and last dof whose support meets B_i's, (t_i, t_{i+d+1}), with
    positive length: i - d..i + d clipped to the space when knots are simple,
    narrower across a repeated knot, where a wider window has zero Gram rows."""
    k0 = int(np.searchsorted(knots, knots[i], side="right")) - degree - 1
    return k0, int(np.searchsorted(knots, knots[i + degree + 1], side="left")) - 1


def _element_moments_plain(f, space, n_u, n_v, elements=None):
    """Per-element blocks of integrals of f * B_ij by plain Gauss quadrature.

    Returns {element: (fu, fv, block)} with block shape (du+1, dv+1).
    """
    bu, bv = space.breakpoints_u(), space.breakpoints_v()
    nodes_u, w_u = gauss01(n_u)
    nodes_v, w_v = gauss01(n_v)
    if elements is None:
        elements = [(iu, iv) for iu, iv, _ in space.elements()]
    out = {}
    for iu, iv in elements:
        u0, u1 = bu[iu], bu[iu + 1]
        v0, v1 = bv[iv], bv[iv + 1]
        us = u0 + (u1 - u0) * nodes_u
        vs = v0 + (v1 - v0) * nodes_v
        fu, rows_u = basis_rows(space.tu, space.du, us)
        fv, rows_v = basis_rows(space.tv, space.dv, vs)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        vals = np.asarray(f(uu, vv), dtype=float)
        weight = np.outer(w_u, w_v) * ((u1 - u0) * (v1 - v0)) * vals
        out[(iu, iv)] = (int(fu[0]), int(fv[0]), rows_u.T @ weight @ rows_v)
    return out


def _region_moments(field, space, region_set, n):
    """Per-element blocks of integrals of a composed field times B_ij,
    summed over the coupling blocks M of the covered regions: M c2."""
    c2, out = field.s2.coeffs, {}
    for element, (wu, wv), w2, m in _coupling_blocks(
        space, field.s2.space, field.T1, field.T2, region_set, n
    ):
        block = (m @ c2[w2].ravel()).reshape(space.du + 1, space.dv + 1)
        if element in out:
            block = block + out[element][2]
        out[element] = (int(wu.start), int(wv.start), block)
    return out


def _elements_in_support(space, i, j):
    """Knot elements contained in the support of basis function (i, j)."""
    bu, bv = space.breakpoints_u(), space.breakpoints_v()
    lo_u, hi_u = space.tu[i], space.tu[i + space.du + 1]
    lo_v, hi_v = space.tv[j], space.tv[j + space.dv + 1]
    out = []
    for iu in range(len(bu) - 1):
        mu = 0.5 * (bu[iu] + bu[iu + 1])
        if not lo_u < mu < hi_u:
            continue
        for iv in range(len(bv) - 1):
            mv = 0.5 * (bv[iv] + bv[iv + 1])
            if lo_v < mv < hi_v:
                out.append((iu, iv))
    return out


# ---------------------------------------------------------------------------
# quasi-interpolant


def llm_project(f, space, regions=None, n_rhs=None):
    """Quasi-interpolant of f by local L2 projections on basis supports.

    For each coefficient index the projection problem G lam = P is solved
    on the support of that basis function, and the coefficient is the entry
    of ``lam`` carrying the index itself.  With ``regions`` given (an
    interface region set), f must be a ``composed_field`` and right-hand
    sides are assembled region by region; otherwise by plain per-element
    quadrature.

    Returns an LlmResult with the spline and per-problem diagnostics.
    """
    du, dv = space.du, space.dv
    if n_rhs is None:
        n_rhs = du + dv + 3

    span_u = _span_gram_1d(space.tu, du)
    span_v = _span_gram_1d(space.tv, dv)
    if regions is not None:
        if not isinstance(f, composed_field):
            raise TypeError("llm_project: regions need f to be a composed_field")
        moments = _region_moments(f, space, regions, n_rhs)
    else:
        moments = _element_moments_plain(f, space, n_rhs, n_rhs)

    coeffs = np.zeros((space.nu, space.nv))
    problems = []
    for i in range(space.nu):
        i0, i1 = _dof_window(space.tu, du, i)
        gu = _local_gram_1d(span_u, space.tu[i], space.tu[i + du + 1], i0, i1)
        for j in range(space.nv):
            j0, j1 = _dof_window(space.tv, dv, j)
            gv = _local_gram_1d(span_v, space.tv[j], space.tv[j + dv + 1], j0, j1)
            gram = np.kron(gu, gv)
            ncols = j1 - j0 + 1

            rhs = np.zeros((i1 - i0 + 1, ncols))
            for element in _elements_in_support(space, i, j):
                if element in moments:  # its dofs all lie in the window
                    fu, fv, block = moments[element]
                    rhs[fu - i0 : fu - i0 + du + 1, fv - j0 : fv - j0 + dv + 1] += block
            rhs = rhs.ravel()

            try:
                lam = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError as exc:
                raise GeometryError(
                    f"singular local Gram matrix at dof {(i, j)}"
                ) from exc
            coeffs[i, j] = lam[(i - i0) * ncols + (j - j0)]
            problems.append(
                LocalProblem(
                    (i, j),
                    ((i0, i1), (j0, j1)),
                    float(np.linalg.cond(gram)),
                    float(np.linalg.norm(gram @ lam - rhs)),
                )
            )
    return LlmResult(SplineFunc2D(space, coeffs), problems)


# ---------------------------------------------------------------------------
# level-set coefficients


@dataclass
class LevelSetField:
    """Basis-weighted averages of a zero-extended interface field."""

    function: SplineFunc2D
    coefficients: np.ndarray
    active: set  # dof indices whose support meets the covered interface
    theta_elements: set  # knot elements of the averaging domain

    def value(self, u, v):
        return self.function.value(u, v)


def level_set_coeffs(delta2, T1, T2, region_set, n_rhs=None):
    """Level-set coefficients p_i of the zero-extended field of delta2.

    p_i = (integral over Theta of B_i * field) / (integral over Theta of
    B_i), where the field is delta2 composed through the two maps inside
    the covered interface and zero outside, and Theta is the union of the
    supports of all basis functions meeting the covered part.  Numerators
    are assembled region by region; denominators by plain element rules.
    """
    space = T1.space
    du, dv = space.du, space.dv
    if n_rhs is None:
        n_rhs = du + dv + 3

    numerators = _region_moments(composed_field(delta2, T1, T2), space, region_set, n_rhs)
    if not numerators:
        raise GeometryError("no region of the interface is covered by the second map")

    # active dofs: support contains a covered element
    active = set()
    for fu, fv, _ in numerators.values():
        active.update((fu + a, fv + b) for a in range(du + 1) for b in range(dv + 1))

    theta_elements = set()
    for (i, j) in active:
        theta_elements.update(_elements_in_support(space, i, j))

    denominators = _element_moments_plain(
        lambda u, v: np.ones_like(np.asarray(u, dtype=float)),
        space,
        max(du, dv) + 1,
        max(du, dv) + 1,
        elements=sorted(theta_elements),
    )

    num = np.zeros((space.nu, space.nv))
    den = np.zeros((space.nu, space.nv))
    for table_src, acc in ((numerators, num), (denominators, den)):
        for element, (fu, fv, block) in table_src.items():
            acc[fu : fu + du + 1, fv : fv + dv + 1] += block

    coeffs = np.zeros((space.nu, space.nv))
    for (i, j) in sorted(active):
        if den[i, j] <= 0:
            raise GeometryError(
                f"zero averaging denominator at dof {(i, j)}; "
                "support disjoint from the averaging domain"
            )
        coeffs[i, j] = num[i, j] / den[i, j]

    return LevelSetField(
        SplineFunc2D(space, coeffs), coeffs, active, theta_elements
    )
