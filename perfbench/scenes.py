"""Seeded input scenes for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain
JSON-ready dictionaries plus the facts the correctness checks need.  The
generators never import curveplan, so a change to the program cannot change
its own inputs.  Straight-segment coordinates sit on a 1/GRID lattice so the
exact Fraction oracle sees small rationals and the floats are exact.
"""

import numpy as np

GRID = 4096


def _segment(p, q):
    return {"kind": "segment", "degree": 1, "points": [list(map(float, p)), list(map(float, q))]}


def dense_segments(rng, n=26, tilt=0.35):
    """Long random segments in two families, near-horizontal and near-vertical.

    The segments of a family run across the square from one point in the
    first to one point in the last 6% of the family's axis; the other
    coordinate starts uniform in [0.07, 0.93] and ends in that range too,
    tilted by up to ``tilt`` radians.  Every cross-family pair crosses, and
    within a family the start and end coordinates are paired in sorted
    order, so no two segments of a family cross.  That pins the crossings at (n/2)^2 and the interior regions at
    (n/2 - 1)^2 on every seed: random crossings within a family moved the
    cost of a scene by ~7% (sd) from seed to seed.  Seeds change the
    spacing and the tilts.  Returns (scene, integer endpoints).
    """
    slope = np.tan(tilt)
    lo, hi = 0.07, 0.93
    ints = []
    for family in range(2):
        m = n // 2 + (n % 2 if family == 0 else 0)
        x0, x1 = rng.uniform(0.0, 0.06), rng.uniform(0.94, 1.0)
        b0 = rng.uniform(lo, hi, size=m)
        reach = slope * (x1 - x0)
        b1 = rng.uniform(np.maximum(lo, b0 - reach), np.minimum(hi, b0 + reach))
        for y0, y1 in zip(np.sort(b0), np.sort(b1)):
            p, q = (x0, y0), (x1, y1)
            if family:
                p, q = (y0, x0), (y1, x1)
            ints.append(tuple((int(round(x * GRID)), int(round(y * GRID))) for x, y in (p, q)))
    return _scene_from_ints(ints), ints


def sparse_segments(rng, n=200, length=0.05):
    """Short segments (length ~0.05) with uniform centres and directions."""
    half = 0.5 * length * GRID
    centres = rng.uniform(half, GRID - half, size=(n, 2))
    angles = rng.uniform(0.0, np.pi, size=n)
    ints = []
    for (cx, cy), th in zip(centres, angles):
        dx, dy = half * np.cos(th), half * np.sin(th)
        p = (int(round(cx - dx)), int(round(cy - dy)))
        q = (int(round(cx + dx)), int(round(cy + dy)))
        ints.append((p, q))
    return _scene_from_ints(ints), ints


def _scene_from_ints(ints):
    return {
        "curves": [
            _segment((p[0] / GRID, p[1] / GRID), (q[0] / GRID, q[1] / GRID))
            for p, q in ints
        ]
    }


# -- quadrature_curved ------------------------------------------------------


def _side_point(side, s):
    return [(s, 0.0), (1.0, s), (s, 1.0), (0.0, s)][side]


def _clamped_cubic_basis(knots, t):
    """Cox-de Boor values of all cubic basis functions at parameters t."""
    t = np.asarray(t, dtype=float)
    n = len(knots) - 4
    last = np.searchsorted(knots, knots[-1]) - 1
    b = np.zeros((len(t), len(knots) - 1))
    for i in range(len(knots) - 1):
        if knots[i] < knots[i + 1]:
            b[:, i] = (knots[i] <= t) & (t < knots[i + 1])
    b[t >= knots[-1], last] = 1.0
    for k in range(1, 4):
        nb = np.zeros((len(t), len(knots) - 1 - k))
        for i in range(len(knots) - 1 - k):
            left = knots[i + k] - knots[i]
            right = knots[i + k + 1] - knots[i + 1]
            if left > 0:
                nb[:, i] += (t - knots[i]) / left * b[:, i]
            if right > 0:
                nb[:, i] += (knots[i + k + 1] - t) / right * b[:, i + 1]
        b = nb
    return b[:, :n]


def circle_curve(center, radius, n_ctrl=8, samples=256):
    """Closed clamped cubic B-spline: least-squares fit of a CCW circle.

    Eight control points keep the radius within 0.5% and the arcs few, so
    the tiles cut from them, and the cost of failing on them, vary little.
    """
    ts = np.linspace(0.0, 1.0, samples)
    ang = 2.0 * np.pi * ts
    pts = np.stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)], axis=1)
    interior = np.linspace(0.0, 1.0, n_ctrl - 2)[1:-1]
    knots = np.concatenate([[0.0] * 4, interior, [1.0] * 4])
    basis = _clamped_cubic_basis(knots, ts)
    # fix both ends on the start point so the curve closes exactly
    inner = basis[:, 1:-1]
    rhs = pts - np.outer(basis[:, 0] + basis[:, -1], pts[0])
    ctrl_inner, *_ = np.linalg.lstsq(inner, rhs, rcond=None)
    ctrl = np.vstack([pts[0], ctrl_inner, pts[0]])
    return {
        "kind": "bspline",
        "degree": 3,
        "knots": [float(k) for k in knots],
        "points": [[float(x), float(y)] for x, y in ctrl],
    }


def _bezier_points(ctrl, samples=1001):
    t = np.linspace(0.0, 1.0, samples)[:, None]
    p0, p1, p2, p3 = (np.asarray(c, dtype=float) for c in ctrl)
    return ((1 - t) ** 3) * p0 + 3 * ((1 - t) ** 2) * t * p1 + 3 * (1 - t) * t * t * p2 + t**3 * p3


def curved_chords(rng, circle=None, n_chords=4):
    """Unit square cut by gently curved cubic Bezier chords.

    Chords alternate between joining the left and right sides and joining
    the bottom and top sides.  Chord k of a family has both ends within 0.07
    of its own slot (1/3 and 2/3 of the side for four chords), so
    cross-family chords always cross and same-family ones do not: the tile
    count, and with it the cost, stays close across seeds, where
    unstratified chords vary it by ~2.5x.  The inner control points are the straight thirds pushed
    sideways by up to 0.06, clipped into the square.

    ``circle`` adds a small closed B-spline circle whose radius is 50-80% of
    its clearance (capped at 0.08): "cell" centres it between chord slots,
    clear of every chord, so it is isolated; "chord" centres it on a random
    chord midway between two slots, so it crosses that chord and no other.
    Returns (scene, facts); facts["isolated"] says whether the circle
    touches no chord.
    """
    curves = [
        _segment((0, 0), (1, 0)),
        _segment((1, 0), (1, 1)),
        _segment((1, 1), (0, 1)),
        _segment((0, 1), (0, 0)),
    ]
    per_family = n_chords // 2
    chords = []
    for k in range(n_chords):
        start, end = (3, 1) if k % 2 == 0 else (0, 2)
        slot = (k // 2 + 1) / (per_family + 1)
        a = np.array(_side_point(start, slot + float(rng.uniform(-0.07, 0.07))))
        b = np.array(_side_point(end, slot + float(rng.uniform(-0.07, 0.07))))
        d = b - a
        normal = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        bumps = rng.uniform(-0.06, 0.06, size=2)
        c1 = np.clip(a + d / 3.0 + bumps[0] * normal, 0.02, 0.98)
        c2 = np.clip(a + 2.0 * d / 3.0 + bumps[1] * normal, 0.02, 0.98)
        chords.append((a, c1, c2, b))
        curves.append(
            {"kind": "bezier", "degree": 3,
             "points": [[float(x), float(y)] for x, y in (a, c1, c2, b)]}
        )
    facts = {"circle": circle, "isolated": False}
    if circle is not None:
        samples = [_bezier_points(c) for c in chords]
        if circle == "cell":
            step = 1.0 / (per_family + 1)
            center = (rng.integers(0, per_family + 1, size=2) + 0.5) * step
            others = samples
        else:
            k = int(rng.integers(n_chords))
            center = samples[k][int(rng.choice([300, 500, 700]))]
            others = samples[:k] + samples[k + 1 :]
        # stay clear of the square's sides and of every chord but the host
        clear = min(min(center.min(), 1.0 - center.max()),
                    min(np.min(np.hypot(*(p - center).T)) for p in others))
        radius = float(rng.uniform(0.5, 0.8)) * min(clear, 0.08)
        # listed first, so its vertices get the lowest ids and the regions
        # around it are walked, tiled and (for Defect 2) failed first
        curves.insert(0, circle_curve(center, radius))
        gaps = [np.min(np.hypot(*(p - center).T)) for p in samples]
        facts["isolated"] = bool(min(gaps) > radius)
    return {"curves": curves}, facts


# -- spline_transfer --------------------------------------------------------


def _bilinear_map(corners_grid, knots_u, knots_v):
    return {
        "degrees": [1, 1],
        "knots_u": list(map(float, knots_u)),
        "knots_v": list(map(float, knots_v)),
        "control": [[[float(x), float(y)] for x, y in row] for row in corners_grid],
    }


def _affine(rng, scale=(0.8, 1.25), rot=0.3, shear=0.2):
    th = rng.uniform(-rot, rot)
    rot_m = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    sh = np.array([[1.0, rng.uniform(-shear, shear)], [0.0, 1.0]])
    sc = np.diag(rng.uniform(*scale, size=2))
    return rot_m @ sh @ sc, rng.uniform(-0.5, 0.5, size=2)


def spline_variant(rng, kind):
    """One quasi-interp input pair plus the facts its checks need.

    T1 (the target) is bilinear with 2x2 elements; its control net is an
    affine image A of the unit-square Greville grid.  T2 (the source map) is
    built in the same frame: a box in T1's parameter square, jittered by up
    to 0.04 and mapped by A, so whether T2 covers a T1 support is known
    exactly.  kind:
      "cover"      one-element T2 over [-0.15, 1.15]^2: covers T1's image;
      "partial"    one-element T2 over [a, 1.15] x [-0.15, 1.15], a in
                   [0.2, 0.45], turned to a random side: T2 covers the
                   supports of the dofs on that side and cuts the rest;
      "warped_t1"  as "partial" but T1's centre control point is moved, so
                   T1 is not affine;
      "knotted_t2" T2 with 2x2 elements over [-0.15, 1.15]^2: covers T1's
                   image, and its interior iso-curves cross it.
    The source coefficients encode a random affine field of physical space.
    Returns (source, target, facts).
    """
    A, shift = _affine(rng)

    def frame(p):
        return p @ A.T + shift

    g = np.array([0.0, 0.5, 1.0])
    t1_ctrl = frame(np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1))
    if kind == "warped_t1":
        t1_ctrl[1, 1] += rng.uniform(-0.08, 0.08, size=2)
    lo, hi = np.array([-0.15, -0.15]), np.array([1.15, 1.15])
    if kind in ("partial", "warped_t1"):
        lo[0] = rng.uniform(0.2, 0.45)
    n2 = 3 if kind == "knotted_t2" else 2
    g2 = np.linspace(0.0, 1.0, n2)
    box = np.stack(np.meshgrid(g2, g2, indexing="ij"), axis=-1) * (hi - lo) + lo
    box += rng.uniform(-0.04, 0.04, size=box.shape)
    # quarter turns about the square's centre keep the map orientation
    for _ in range(int(rng.integers(4))):
        box = np.stack([1.0 - box[..., 1], box[..., 0]], axis=-1)
    t2_ctrl = frame(box)
    grad = rng.uniform(-1.0, 1.0, size=2)
    const = float(rng.uniform(-1.0, 1.0))
    coeffs = t2_ctrl @ grad + const
    k1 = [0.0, 0.0, 0.5, 1.0, 1.0]
    k2 = k1 if n2 == 3 else [0.0, 0.0, 1.0, 1.0]
    source = {"map": _bilinear_map(t2_ctrl, k2, k2),
              "coefficients": [[float(c) for c in row] for row in coeffs]}
    target = {"map": _bilinear_map(t1_ctrl, k1, k1)}
    facts = {"kind": kind, "covers": kind in ("cover", "knotted_t2")}
    return source, target, facts
