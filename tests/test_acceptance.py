"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import curveplan
from curveplan.arrangement import build_drawing
from curveplan.curves import ParamCurve
from curveplan.quadrature import integrate_adaptive
from curveplan.quasi_interp import level_set_coeffs, llm_project
from curveplan.regions import extract_and_classify, purge_dangling_nodes
from curveplan.splines import (
    SplineFunc2D,
    build_interface_drawing,
    integrate_spline_product,
)

from arrangement_oracle import SegmentArrangement
from test_splines import make_map, unit_space, _composite_gauss_oracle, _hat_func
from util import circle_bspline, segment

PASS = "[PASS] {}"


def _check_invariants(rs):
    """Euler characteristic and half-edge conservation, per component."""
    purged = rs.drawing
    assert sum(len(r.trail) for r in rs.all_regions()) == 2 * len(purged.edges)
    comp_of_vertex = {}
    for k, comp in enumerate(purged.components()):
        for vid in comp:
            comp_of_vertex[vid] = k
    counts = {}
    for r in rs.all_regions():
        k = comp_of_vertex[r.trail[0][0]]
        counts.setdefault(k, [0, 0])[0 if r.orientation == "interior" else 1] += 1
    for k, comp in enumerate(purged.components()):
        v = len(comp)
        e = sum(
            1
            for edge in purged.edges.values()
            if comp_of_vertex[edge.v_from] == k
        )
        interior, outer = counts.get(k, (0, 0))
        assert outer == 1, f"component {k}: expected exactly one outer region"
        assert v - e + interior + outer == 2, f"Euler check failed on component {k}"


def _dense_loop_area(curve, n=4000):
    ts = np.linspace(*curve.domain, n)
    pts = curve.point(ts)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def test_criterion_1_structural_analog():
    """Dangling branch, bigon, attached loop, isolated loop."""
    t0 = time.monotonic()

    square_a = [
        segment((0, 0), (4, 0)), segment((4, 0), (4, 4)),
        segment((4, 4), (0, 4)), segment((0, 4), (0, 0)),
    ]
    whisker = segment((2, 0), (2, -2))
    crossbar = segment((1.5, -1), (2.5, -1))
    bigon = [
        ParamCurve("bezier", [(6, 1), (7, 2), (8, 1)]),
        ParamCurve("bezier", [(6, 1), (7, 0), (8, 1)]),
    ]
    square_b = [
        segment((10, 0), (12, 0)), segment((12, 0), (12, 2)),
        segment((12, 2), (10, 2)), segment((10, 2), (10, 0)),
    ]
    teardrop = ParamCurve("bezier", [(11, 2), (10, 4), (12, 4), (11, 2)])
    lone_loop = circle_bspline(radius=0.8, center=(15, 2), n_ctrl=24, n_samples=512)

    curves = square_a + [whisker, crossbar] + bigon + square_b + [teardrop, lone_loop]
    drawing = build_drawing(curves)

    # the whisker-crossbar crossing is a genuine dangling branch
    purged = purge_dangling_nodes(drawing)
    assert len(drawing.vertices) - len(purged.vertices) == 1
    assert len(drawing.edges) - len(purged.edges) == 1
    assert len(purged.vertices) == 13 and len(purged.edges) == 14

    rs = extract_and_classify(drawing)
    assert len(rs.regions) == 5  # hand count: square A, lens, square B, teardrop, loop
    assert len(rs.outer) == 4  # one per connected component
    _check_invariants(rs)

    areas = sorted(r.signed_area for r in rs.regions)
    teardrop_area = abs(_dense_loop_area(teardrop))
    loop_area = abs(_dense_loop_area(lone_loop))
    expect = sorted([16.0, 4.0 / 3.0, 4.0, teardrop_area, loop_area])
    assert np.allclose(areas, expect, atol=1e-5)
    assert abs(areas[-1] - 16.0) < 1e-9
    assert any(abs(a - 4.0 / 3.0) < 1e-9 for a in areas)  # the lens

    # loop regions are single-pair closed trails
    one_pair = [r for r in rs.regions if len(r.trail) == 1]
    assert len(one_pair) == 2  # teardrop interior + isolated loop interior
    assert any(len(r.trail) == 1 for r in rs.outer)  # isolated loop's outside

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s (limit 1s)"
    print(PASS.format(f"criterion 1: structural analog ({elapsed:.2f}s)"))


def test_criterion_2_and_3_oracle_equivalence():
    """200 random segment arrangements against the exact rational oracle."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260811)
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 2000, "rejection sampling runaway"
        n = int(rng.integers(3, 9))
        coords = rng.integers(0, 65, size=(n, 4))
        segs = [((int(a), int(b)), (int(c), int(d))) for a, b, c, d in coords]
        if any(p == q for p, q in segs):
            continue
        try:
            oracle = SegmentArrangement(segs)
        except Exception:
            continue  # overlapping configuration: redraw
        gap = oracle.min_vertex_gap_squared()
        if gap is not None and float(gap) < 1e-8:
            continue  # nearly coincident vertices: redraw
        done += 1

        scale = 64.0
        curves = [
            segment((p[0] / scale, p[1] / scale), (q[0] / scale, q[1] / scale))
            for p, q in segs
        ]
        rs = extract_and_classify(build_drawing(curves))
        got = sorted(r.signed_area * scale * scale for r in rs.regions)
        want = [float(a) for a in oracle.interior_areas()]
        assert len(got) == len(want), f"region count mismatch on trial {done}"
        assert np.allclose(got, want, atol=1e-9 * scale * scale), (
            f"areas mismatch on trial {done}"
        )
        assert len(rs.outer) == oracle.outer_count()
        if rs.regions or rs.outer:
            _check_invariants(rs)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s (limit 30s)"
    print(PASS.format(f"criterion 2: oracle equivalence, 200 trials ({elapsed:.1f}s)"))
    print(PASS.format("criterion 3: Euler + handshake invariants on all trials"))


def _lens_regions():
    curves = [
        ParamCurve("bezier", [(0, 0), (0.5, 1.0), (1, 0)]),
        ParamCurve("bezier", [(0, 0), (0.5, -1.0), (1, 0)]),
    ]
    return extract_and_classify(build_drawing(curves))


def test_criterion_4_convergence_decay():
    """Error drops >= 10x per level for j = 1..3 and below 1e-11 by j = 5."""
    t0 = time.monotonic()
    rs = _lens_regions()
    f = lambda x, y: np.sin(np.pi * x / 2) * np.cos(np.pi * y) * np.exp(x)
    report = integrate_adaptive(rs, f, max_level=5, reference="auto", stop_threshold=0.0)
    errs = report.errors
    assert len(errs) == 6
    for j in (1, 2, 3):
        assert errs[j] <= errs[j - 1] / 10.0, (
            f"E({j}) = {errs[j]:.3e} is not 10x below E({j-1}) = {errs[j-1]:.3e}"
        )
    assert errs[5] < 1e-11, f"E(5) = {errs[5]:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s (limit 5s)"
    decay = " -> ".join(f"{e:.2e}" for e in errs)
    print(PASS.format(f"criterion 4: convergence decay {decay} ({elapsed:.2f}s)"))


def test_criterion_5_stopping_rule():
    """The loop halts at the first level with |I(j) - I(j-1)| < 1e-12."""
    curves = [
        segment((0, 0), (1, 0)), segment((1, 0), (1, 1)),
        segment((1, 1), (0, 1)), segment((0, 1), (0, 0)),
    ]
    rs = extract_and_classify(build_drawing(curves))
    # constant integrand: I(0) = I(1) = area exactly, so the halt level is 1
    report = integrate_adaptive(rs, lambda x, y: 1.0, max_level=8)
    assert report.stopped_at == 1
    assert len(report.levels) == 2
    assert report.deltas[1] < 1e-12
    assert abs(report.value - 1.0) < 1e-14
    print(PASS.format("criterion 5: stopping rule halts at the known level 1"))


def test_criterion_6_spline_product_exactness():
    """Region-aware quadrature is exact where single-mesh quadrature fails."""
    t0 = time.monotonic()
    T1 = make_map(knots_u=(0, 0, 0.5, 1, 1))
    T2 = make_map(knots_u=(0, 0, 0.3, 1, 1))
    s1 = _hat_func([0, 0, 0.5, 1, 1], where=1)
    s2 = _hat_func([0, 0, 0.3, 1, 1], where=1)
    rs = extract_and_classify(build_interface_drawing(T1, T2))

    product = lambda x, y: s1.value(x, y) * s2.value(x, y)
    exact = _composite_gauss_oracle(product, [0, 0.3, 0.5, 1], [0, 1])
    got = integrate_spline_product(s1, s2, T1, T2, rs, 2)
    assert abs(got - exact) < 1e-12, f"region-aware error {abs(got - exact):.2e}"

    single_mesh = _composite_gauss_oracle(product, [0, 0.5, 1], [0, 1], n=2)
    assert abs(single_mesh - exact) > 1e-4, "single-mesh comparison unexpectedly exact"

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s (limit 5s)"
    print(
        PASS.format(
            f"criterion 6: product exact to {abs(got - exact):.1e}, single-mesh "
            f"errs {abs(single_mesh - exact):.1e} ({elapsed:.2f}s)"
        )
    )


def test_criterion_7_llm_reproduction():
    """Projecting a member of the space returns its coefficients."""
    space = unit_space((3, 2), iu=(0.2, 0.4, 0.7), iv=(0.5,))
    rng = np.random.default_rng(99)
    f = SplineFunc2D(space, rng.uniform(-1, 1, (space.nu, space.nv)))
    projected = llm_project(f.value, space)
    err = np.max(np.abs(projected.function.coeffs - f.coeffs))
    assert err < 1e-10, f"reproduction error {err:.2e}"

    again = llm_project(projected.function.value, space)
    drift = np.max(np.abs(again.function.coeffs - projected.function.coeffs))
    assert drift < 1e-12, f"idempotence drift {drift:.2e}"
    print(PASS.format(f"criterion 7: reproduction {err:.1e}, idempotence {drift:.1e}"))


def test_criterion_8_level_set_properties():
    """Coefficient bounds and average preservation on three fixtures."""
    from test_quasi_interp import _levelset_fixture, _theta_integrals

    fixtures = [
        ("conforming", _levelset_fixture(coeff_value=2.0)),
        ("trimmed corner", _levelset_fixture(offset=(0.4, 0.4), coeff_value=1.0)),
        ("trimmed strip", _levelset_fixture(offset=(0.3, 0.0), scale=0.5, seed=3)),
    ]
    for name, (T1, T2, s2, rs) in fixtures:
        field = level_set_coeffs(s2, T1, T2, rs)
        # bounds of the zero-extended field: sampled extrema of the source
        # and (for trimmed interfaces) the zero extension
        samples = s2.value(*np.meshgrid(np.linspace(0, 1, 33), np.linspace(0, 1, 33)))
        lo, hi = float(np.min(samples)), float(np.max(samples))
        covered_everything = name == "conforming"
        if not covered_everything:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        for (i, j) in field.active:
            p = field.coefficients[i, j]
            assert lo - 1e-10 <= p <= hi + 1e-10, f"{name}: p{(i, j)} = {p}"
        got, want = _theta_integrals(field, s2, T1, T2, T1.space, rs)
        assert abs(got - want) < 1e-10, f"{name}: average drift {abs(got - want):.2e}"
    print(PASS.format("criterion 8: level-set bounds and average preservation (3 fixtures)"))


def test_criterion_9_cli_determinism(tmp_path):
    """Two consecutive runs of every CLI fixture are byte-identical."""
    jobs = [
        (
            "extract",
            ["extract", "--input", "fixtures/extract_square_diagonal.json",
             "--keep-outer"],
            {"--out": ".json", "--svg": ".svg"},
        ),
        (
            "integrate",
            ["integrate", "--input", "fixtures/integrate_lens.json",
             "--f", "sin(pi/2*x)*cos(pi*y)*exp(x)", "--max-level", "5",
             "--reference", "auto"],
            {"--out": ".csv"},
        ),
        (
            "mesh-intersect",
            ["mesh-intersect", "--map1", "fixtures/map_grid_2x2.json",
             "--map2", "fixtures/map_offset.json", "--keep-outer"],
            {"--regions": ".json", "--svg": ".svg"},
        ),
        (
            "quasi-interp",
            ["quasi-interp", "--source", "fixtures/quasi_source.json",
             "--target", "fixtures/quasi_target.json", "--mode", "levelset"],
            {"--out": ".json"},
        ),
    ]
    # the CLI subprocesses import the same curveplan as this test process
    pkg_root = str(Path(curveplan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    for name, args, outputs in jobs:
        results = []
        for run_id in range(2):
            argv = list(args)
            paths = []
            for flag, suffix in outputs.items():
                path = tmp_path / f"{name.replace('-', '_')}_{run_id}{suffix}"
                argv += [flag, str(path)]
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, "-m", "curveplan", *argv],
                capture_output=True,
                cwd=".",
                env=env,
            )
            assert proc.returncode == 0, f"{name}: {proc.stderr.decode()[:400]}"
            results.append(tuple(p.read_bytes() for p in paths))
        assert results[0] == results[1], f"{name}: outputs differ between runs"
    print(PASS.format("criterion 9: CLI outputs byte-identical across runs"))
