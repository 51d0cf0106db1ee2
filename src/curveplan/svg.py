"""SVG rendering of extracted regions: one filled path per region.

Curves of degree up to three map directly onto SVG path commands; higher
degrees are approximated by adaptively subdivided cubics (display only).
"""

import numpy as np

from .curves import ParamCurve

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
    bez = ParamCurve("bezier", ctrl)
    err = max(
        float(np.linalg.norm(bez.point(t) - piece.point(t))) for t in (0.25, 0.5, 0.75)
    )
    if err <= CUBIC_TOL or depth >= 10:
        return [ctrl]
    left, right = piece.restricted(0.0, 0.5), piece.restricted(0.5, 1.0)
    return _cubics_for(left, depth + 1) + _cubics_for(right, depth + 1)


def _piece_commands(geometry):
    """SVG path commands (sans initial move) for one oriented edge."""
    cmds = []
    for piece in geometry.spans():
        if piece.degree == 1:
            p = piece.ctrl[-1]
            cmds.append(f"L {_fmt(p[0])} {_fmt(p[1])}")
        elif piece.degree == 2:
            c, p = piece.ctrl[1], piece.ctrl[2]
            cmds.append(f"Q {_fmt(c[0])} {_fmt(c[1])} {_fmt(p[0])} {_fmt(p[1])}")
        elif piece.degree == 3:
            c1, c2, p = piece.ctrl[1], piece.ctrl[2], piece.ctrl[3]
            cmds.append(
                f"C {_fmt(c1[0])} {_fmt(c1[1])} {_fmt(c2[0])} {_fmt(c2[1])} "
                f"{_fmt(p[0])} {_fmt(p[1])}"
            )
        else:
            for ctrl in _cubics_for(piece):
                cmds.append(
                    f"C {_fmt(ctrl[1][0])} {_fmt(ctrl[1][1])} "
                    f"{_fmt(ctrl[2][0])} {_fmt(ctrl[2][1])} "
                    f"{_fmt(ctrl[3][0])} {_fmt(ctrl[3][1])}"
                )
    return cmds


def region_path(drawing, region):
    """Closed SVG path data for one region boundary."""
    parts = []
    for k, (_, se) in enumerate(region.trail):
        g = drawing.oriented_geometry(se)
        if k == 0:
            start = g.point(0.0)
            parts.append(f"M {_fmt(start[0])} {_fmt(start[1])}")
        parts.extend(_piece_commands(g))
    parts.append("Z")
    return " ".join(parts)


def regions_svg(region_set, include_outer=False, stroke="#333333", stroke_width=None):
    """A complete SVG document with one filled path per interior region."""
    drawing = region_set.drawing
    pts = np.array([v.position for v in drawing.vertices.values()])
    if len(pts) == 0:
        lo, hi = np.zeros(2), np.ones(2)
    else:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        for e in drawing.edges.values():
            blo, bhi = e.geometry.bbox()
            lo, hi = np.minimum(lo, blo), np.maximum(hi, bhi)
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
