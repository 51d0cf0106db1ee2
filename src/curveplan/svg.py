"""SVG rendering of extracted regions: one filled path per region.

Curves of degree up to three map directly onto SVG path commands; higher
degrees are approximated by adaptively subdivided cubics (display only).
"""

import numpy as np

from .curves import trusted_bezier

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]

CUBIC_TOL = 1e-4


def _fmt(x):
    return f"{x:.9g}"


def _cubic_hermite(p0, d0, p1, d1):
    return np.array([p0, p0 + d0 / 3.0, p1 - d1 / 3.0, p1])


def _cubics_for(piece, depth=0):
    """Approximate one polynomial piece by cubic segments within CUBIC_TOL."""
    p0, p1 = piece.point(0.0), piece.point(1.0)
    d0, d1 = piece.deriv(0.0), piece.deriv(1.0)
    ctrl = _cubic_hermite(p0, d0, p1, d1)
    bez = trusted_bezier(ctrl)
    err = max(
        float(np.linalg.norm(bez.point(t) - piece.point(t))) for t in (0.25, 0.5, 0.75)
    )
    if err <= CUBIC_TOL or depth >= 10:
        return [ctrl]
    left, right = piece.restricted(0.0, 0.5), piece.restricted(0.5, 1.0)
    return _cubics_for(left, depth + 1) + _cubics_for(right, depth + 1)


def _points(pts):
    return " ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)


def _start(ctrl, degree):
    """``point(0.0)`` of a clamped curve from its float control points: at
    the domain start every alpha of the de Boor recurrence is 0, so it is
    ctrl[0] plus zero terms, which can turn -0.0 into 0.0."""
    d = ctrl[: degree + 1]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):  # deboor_point's loop at alpha = 0
            d[j] = [u + 0.0 * v for u, v in zip(d[j - 1], d[j])]
    return d[degree]


def _piece_commands(geometry, se):
    """SVG path commands (sans initial move) for half-edge ``se`` of an edge
    of this geometry, from its Bézier span nets; a twin reads them in
    reverse order, each reversed."""
    nets = [net for _, _, net in geometry.nets()]
    cmds = []
    for net in nets if se > 0 else [net[::-1] for net in reversed(nets)]:
        if len(net) <= 4:
            cmds.append(f"{'LQC'[len(net) - 2]} {_points(net[1:])}")
        else:
            cubics = _cubics_for(trusted_bezier(np.array(net), net))
            cmds.extend(f"C {_points(ctrl[1:])}" for ctrl in cubics)
    return cmds


def region_path(drawing, region):
    """Closed SVG path data for one region boundary."""
    se = region.trail[0][1]
    g = drawing.edges[abs(se)].geometry
    ctrl = g.ctrl.tolist()
    x, y = _start(ctrl if se > 0 else ctrl[::-1], g.degree)
    parts = [f"M {_fmt(x)} {_fmt(y)}"]
    for _, se in region.trail:
        parts.extend(_piece_commands(drawing.edges[abs(se)].geometry, se))
    parts.append("Z")
    return " ".join(parts)


def regions_svg(region_set, include_outer=False, stroke="#333333", stroke_width=None):
    """A complete SVG document with one filled path per interior region."""
    drawing = region_set.drawing
    pts = np.array([v.position for v in drawing.vertices.values()])
    if len(pts) == 0:
        lo, hi = np.zeros(2), np.ones(2)
    else:
        pts = np.vstack([pts, *(e.geometry.ctrl for e in drawing.edges.values())])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(max(span))
    width, height = span + 2 * pad
    if stroke_width is None:
        stroke_width = 0.004 * float(max(span))

    regions = list(region_set.regions)
    if include_outer:
        regions += list(region_set.outer)

    body = []
    for k, region in enumerate(regions):
        color = "none" if region.orientation == "outer" else PALETTE[k % len(PALETTE)]
        body.append(
            f'  <path d="{region_path(drawing, region)}" fill="{color}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    # flip the y axis so the mathematical orientation displays upright
    flip = f"matrix(1 0 0 -1 0 {_fmt(float(lo[1] + hi[1]))})"
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(float(lo[0] - pad))} {_fmt(float(lo[1] - pad))} '
            f'{_fmt(float(width))} {_fmt(float(height))}">',
            f'<g transform="{flip}">',
            *body,
            "</g>",
            "</svg>",
        ]
    ) + "\n"
