"""The four workloads: seeded op lists, correctness checks and known defects.

Each workload turns a seed into a fixed list of CLI ops.  Every op carries
a check of its outputs and, where the program at the seed fails on the
input for a documented reason, a classifier that names that known defect.
A failure that no classifier explains makes the run incorrect; an explained
one is still counted as failed.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

import scenes
from setup_probe import QUAD_F, QUAD_MAX_LEVEL

#: why each workload exists; printed with every run, and BENCHMARK.json
#: carries the same text (selfcheck.py compares them)
WHY = {
    "arrangement_dense": "extract --svg on 6 drawings of 26 long segments crossing in a "
    "warped 13x13 grid (144 regions each): clustering, face walk and classification dominate",
    "arrangement_sparse": "extract on 8 drawings of 200 short mostly disjoint segments: "
    "the all-pairs intersection test dominates while clustering and regions idle",
    "quadrature_curved": "integrate over the unit square cut by 4 curved chords, 2 of 8 "
    "scenes with a circle: tiling, Jacobian probe and tensor Gauss dominate",
    "spline_transfer": "quasi-interp llm and levelset on the repo fixture and 4 seeded "
    "map pairs: Newton inversion and pull-backs dominate",
}

DENSE_SCENES = 6
SPARSE_SCENES = 8
#: circle placement per quadrature scene (see scenes.curved_chords): a
#: quarter of the scenes get one
QUAD_CIRCLES = (None, "cell", None, None, None, "chord", None, None)
#: seeded spline variants and the modes each runs.  The out-of-family ones
#: fail while building the interface drawing, before the mode matters, and
#: partial-coverage llm is already run on the fixture.
SPLINE_VARIANTS = (
    ("cover", ("llm", "levelset")),
    ("partial", ("levelset",)),
    ("warped_t1", ("llm",)),
    ("knotted_t2", ("levelset",)),
)

#: closed-form integral of QUAD_F over the unit square
QUAD_EXACT = (
    (np.e * (np.sin(12.0) - 12.0 * np.cos(12.0)) + 12.0) / 145.0
) * (np.sin(12.0) / 12.0)

AREA_TOL = 1e-9
QUAD_TOL = 1e-9
LLM_TOL = 1e-7
BOUND_TOL = 1e-10


@dataclass
class Op:
    """One CLI call: argv, the files it writes, its check and known defects."""

    name: str
    argv: list
    outputs: list
    check: object  # callable(dict path -> bytes) -> None or failure message
    known: object = None  # callable(outcome, error_kind) -> defect label or None


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def build(workload, seed, root, work):
    """The op list of ``workload`` for ``seed``; inputs are written to ``work``."""
    rng = np.random.default_rng([seed, sorted(WHY).index(workload)])
    return _BUILDERS[workload](rng, root, work)


# -- arrangements -------------------------------------------------------------


def _arrangement_ops(rng, work, prefix, count, generate, svg):
    ops = []
    for k in range(count):
        scene, ints = generate(rng)
        name = f"{prefix}-{k}"
        src = os.path.join(work, f"{name}.json")
        _write_json(src, scene)
        out = os.path.join(work, f"{name}.regions.json")
        argv = ["extract", "--input", src, "--keep-outer", "--out", out]
        outputs = [out]
        if svg:
            argv += ["--svg", os.path.join(work, f"{name}.svg")]
            outputs.append(argv[-1])
        ops.append(Op(name, argv, outputs, _oracle_check(out, ints)))
    return ops


def _build_dense(rng, root, work):
    return _arrangement_ops(rng, work, "dense", DENSE_SCENES, scenes.dense_segments, True)


def _build_sparse(rng, root, work):
    return _arrangement_ops(rng, work, "sparse", SPARSE_SCENES, scenes.sparse_segments, False)


def _bbox_groups(ints):
    """Segments split into groups whose bounding boxes never meet.

    Face cycles never leave a connected component, so the exact oracle run
    per group yields the same faces as one run on all segments, at a
    fraction of its all-pairs cost.
    """
    seg = np.asarray(ints, dtype=np.int64).reshape(-1, 4)
    lo = np.minimum(seg[:, :2], seg[:, 2:])
    hi = np.maximum(seg[:, :2], seg[:, 2:])
    meet = np.all(
        (lo[:, None, :] <= hi[None, :, :]) & (lo[None, :, :] <= hi[:, None, :]), axis=2
    )
    parent = list(range(len(ints)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(np.triu(meet, 1))):
        parent[find(int(i))] = find(int(j))
    groups = {}
    for i in range(len(ints)):
        groups.setdefault(find(i), []).append(ints[i])
    return [g for g in groups.values() if len(g) > 1]


def oracle_faces(ints):
    """(sorted interior areas in lattice units squared, outer count)."""
    from arrangement_oracle import SegmentArrangement

    interior, outer = [], 0
    for group in _bbox_groups(ints):
        faces = SegmentArrangement(group).faces()
        interior += [float(a) for a in faces if a > 0]
        outer += sum(1 for a in faces if a < 0)
    return sorted(interior), outer


def _oracle_check(out, ints):
    def check(outputs):
        data = json.loads(outputs[out])
        got = sorted(r["signed_area"] for r in data["regions"])
        want, want_outer = oracle_faces(ints)
        scale = float(scenes.GRID) ** 2
        if len(got) != len(want):
            return f"{len(got)} regions, oracle has {len(want)}"
        worst = max((abs(g * scale - w) / scale for g, w in zip(got, want)), default=0.0)
        if worst > AREA_TOL:
            return f"region area off by {worst:.3e}"
        if len(data.get("outer", [])) != want_outer:
            return f"{len(data.get('outer', []))} outer regions, oracle has {want_outer}"
        return None

    return check


# -- quadrature -----------------------------------------------------------------


def _build_quadrature(rng, root, work):
    ops = []
    for k, circle in enumerate(QUAD_CIRCLES):
        scene, facts = scenes.curved_chords(rng, circle)
        name = f"quad-{k}" + (f"-{circle}" if circle else "")
        src = os.path.join(work, f"{name}.json")
        _write_json(src, scene)
        out = os.path.join(work, f"{name}.csv")
        argv = [
            "integrate", "--input", src, "--f", QUAD_F,
            "--max-level", str(QUAD_MAX_LEVEL), "--out", out,
        ]
        ops.append(Op(name, argv, [out], _integral_check(out), _quadrature_known(facts)))
    return ops


def _integral_check(out):
    def check(outputs):
        last = outputs[out].decode().strip().splitlines()[-1]
        value = float(last.split(",")[2])
        err = abs(value - QUAD_EXACT)
        if not err <= QUAD_TOL:
            return f"integral {value:.17g} off the closed form by {err:.3e}"
        return None

    return check


def _quadrature_known(facts):
    def known(outcome, kind):
        if outcome == "exit_3" and kind == "TileError":
            return "defect2_non_star_tile_error"
        if outcome == "wrong_output" and facts["isolated"]:
            return "defect1_isolated_circle_wrong_integral"
        return None

    return known


# -- spline transfer --------------------------------------------------------------


def _build_spline(rng, root, work):
    pairs = [(
        "fixture",
        os.path.join(root, "fixtures", "quasi_source.json"),
        os.path.join(root, "fixtures", "quasi_target.json"),
        {"kind": "fixture"},
        ("llm", "levelset"),
    )]
    for kind, modes in SPLINE_VARIANTS:
        source, target, facts = scenes.spline_variant(rng, kind)
        src = os.path.join(work, f"{kind}.source.json")
        tgt = os.path.join(work, f"{kind}.target.json")
        _write_json(src, source)
        _write_json(tgt, target)
        pairs.append((kind, src, tgt, facts, modes))
    ops = []
    for kind, src, tgt, facts, modes in pairs:
        with open(src, encoding="utf-8") as fh:
            source = json.load(fh)
        with open(tgt, encoding="utf-8") as fh:
            target = json.load(fh)
        for mode in modes:
            out = os.path.join(work, f"{kind}.{mode}.json")
            argv = ["quasi-interp", "--source", src, "--target", tgt, "--mode", mode, "--out", out]
            check = (_llm_check if mode == "llm" else _levelset_check)(out, source, target, facts)
            ops.append(Op(f"{kind}-{mode}", argv, [out], check, _spline_known(facts)))
    return ops


def _affine_field(source):
    """(grad, const) of the affine physical-space field the source encodes."""
    ctrl = np.asarray(source["map"]["control"], dtype=float).reshape(-1, 2)
    coeffs = np.asarray(source["coefficients"], dtype=float).ravel()
    design = np.column_stack([ctrl, np.ones(len(ctrl))])
    sol, *_ = np.linalg.lstsq(design, coeffs, rcond=None)
    if np.max(np.abs(design @ sol - coeffs)) > 1e-12:
        raise ValueError("source field is not affine in physical space")
    return sol[:2], float(sol[2])


def _inside_convex(points, quad):
    """True when every point lies strictly inside the convex quadrilateral."""
    quad = np.asarray(quad, dtype=float)
    edges = np.roll(quad, -1, axis=0) - quad

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    sign = np.sign(cross(edges[0], edges[1]))
    rel = np.asarray(points, dtype=float)[:, None, :] - quad[None, :, :]
    return bool(np.all(sign * cross(edges[None, :, :], rel) > 0))


def _covered_dofs(source, target, facts):
    """T1 dofs whose whole basis support maps inside T2's image.

    T1 is bilinear, so the image of a support is bounded by the control
    points in it; with a one-element (convex) T2 those points inside its
    corner quad put the whole support inside.  Variants built to cover T1
    say so in ``facts``.
    """
    t1 = np.asarray(target["map"]["control"], dtype=float)
    t2 = np.asarray(source["map"]["control"], dtype=float)
    nu, nv = t1.shape[:2]
    if facts.get("covers"):
        return {(i, j) for i in range(nu) for j in range(nv)}
    if t2.shape[:2] != (2, 2):
        return set()
    quad = [t2[0, 0], t2[1, 0], t2[1, 1], t2[0, 1]]
    out = set()
    for i in range(nu):
        for j in range(nv):
            window = t1[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2].reshape(-1, 2)
            if _inside_convex(window, quad):
                out.add((i, j))
    return out


def _llm_check(out, source, target, facts):
    """Coefficients on covered supports reproduce the affine field exactly."""

    def check(outputs):
        data = json.loads(outputs[out])
        coeffs = np.asarray(data["coefficients"], dtype=float)
        grad, const = _affine_field(source)
        t1 = np.asarray(target["map"]["control"], dtype=float)
        want = t1 @ grad + const
        covered = _covered_dofs(source, target, facts)
        if not covered:
            return "no covered dof to check"
        worst = max(abs(coeffs[i, j] - want[i, j]) for i, j in covered)
        if not worst <= LLM_TOL:
            return f"llm reproduction error {worst:.3e} on covered dofs"
        return None

    return check


def _levelset_check(out, source, target, facts):
    """Active coefficients within the source field's bounds (0 included when
    the interface is trimmed); inactive coefficients zero."""

    def check(outputs):
        data = json.loads(outputs[out])
        coeffs = np.asarray(data["coefficients"], dtype=float)
        src = np.asarray(source["coefficients"], dtype=float)
        lo, hi = float(src.min()), float(src.max())
        if not facts.get("covers"):
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        active = {tuple(ij) for ij in data["report"]["active"]}
        if not active:
            return "no active coefficient"
        for (i, j), p in np.ndenumerate(coeffs):
            if (i, j) in active and not lo - BOUND_TOL <= p <= hi + BOUND_TOL:
                return f"p{(i, j)} = {p!r} outside [{lo!r}, {hi!r}]"
            if (i, j) not in active and p != 0.0:
                return f"inactive p{(i, j)} = {p!r} is not zero"
        return None

    return check


def _spline_known(facts):
    def known(outcome, kind):
        if outcome == "exit_4" and kind == "FitError" and facts["kind"] in ("warped_t1", "knotted_t2"):
            return "fit_error_out_of_family"
        return None

    return known


_BUILDERS = {
    "arrangement_dense": _build_dense,
    "arrangement_sparse": _build_sparse,
    "quadrature_curved": _build_quadrature,
    "spline_transfer": _build_spline,
}
