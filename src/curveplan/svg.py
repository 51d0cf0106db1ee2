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

_fmt = "{:.9g}".format  # a number as SVG writes it


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


def _start(edge, se):
    """``point(0.0)`` of half-edge ``se`` of ``edge`` from its float control
    points: at the domain start every alpha of the de Boor recurrence is 0,
    so it is ctrl[0] plus zero terms, which can turn -0.0 into 0.0."""
    g = edge.geometry if edge.stack is None else None
    ctrl, degree = (edge.stack[edge.row].tolist(), 1) if g is None else (g.ctrl.tolist(), g.degree)
    d = (ctrl if se > 0 else ctrl[::-1])[: degree + 1]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):  # deboor_point's loop at alpha = 0
            d[j] = [u + 0.0 * v for u, v in zip(d[j - 1], d[j])]
    return d[degree]


def _net_commands(nets):
    """SVG path commands of consecutive Bézier nets, as one string."""
    cmds = []
    for net in nets:
        if len(net) <= 4:
            cmds.append(f"{'LQC'[len(net) - 2]} {_points(net[1:])}")
        else:
            cubics = _cubics_for(trusted_bezier(np.array(net), net))
            cmds.extend(f"C {_points(ctrl[1:])}" for ctrl in cubics)
    return " ".join(cmds)


def _edge_commands(edges):
    """SVG path commands (sans initial move) per signed half-edge id, each
    formatted once, a twin's in reverse order, each reversed; and the
    control points of the edges, segment edges' read from their stacks."""
    cmds, stacks, ctrl = {}, {}, []
    for eid, e in edges.items():
        if e.stack is None:
            nets = [net for _, _, net in e.geometry.nets()]
            cmds[eid] = _net_commands(nets)
            cmds[-eid] = _net_commands([net[::-1] for net in nets[::-1]])
            ctrl.append(e.geometry.ctrl)
        else:
            stacks.setdefault(id(e.stack), (e.stack, []))[1].append(e)
    for stack, group in stacks.values():
        ctrl.append(stack[[e.row for e in group]].reshape(-1, 2))
        f = iter(map(_fmt, ctrl[-1].ravel().tolist()))
        for e, x0, y0, x1, y1 in zip(group, f, f, f, f):
            cmds[e.id], cmds[-e.id] = f"L {x1} {y1}", f"L {x0} {y0}"
    return cmds, ctrl


def regions_svg(region_set, include_outer=False, stroke="#333333", stroke_width=None):
    """A complete SVG document with one filled path per interior region."""
    drawing = region_set.drawing
    cmds, ctrl = _edge_commands(drawing.edges)
    if not drawing.vertices:
        lo, hi = np.zeros(2), np.ones(2)
    else:
        pts = np.vstack([np.array([v.position for v in drawing.vertices.values()]), *ctrl])
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
        se = region.trail[0][1]
        x, y = _start(drawing.edges[abs(se)], se)
        path = " ".join([f"M {_fmt(x)} {_fmt(y)}", *(cmds[se] for _, se in region.trail), "Z"])
        body.append(
            f'  <path d="{path}" fill="{color}" '
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
