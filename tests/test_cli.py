"""Command-line behavior: outputs, determinism, error contracts."""

import json
import os
import re

import numpy as np
import pytest

from curveplan.cli import build_parser, main
from curveplan.serialize import region_set_from_json, region_set_to_json

FIXTURES = "fixtures"


def run(argv):
    return main(argv)


def test_extract_square_diagonal(tmp_path):
    out = tmp_path / "regions.json"
    svg = tmp_path / "out.svg"
    code = run([
        "extract", "--input", f"{FIXTURES}/extract_square_diagonal.json",
        "--out", str(out), "--svg", str(svg),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    areas = sorted(r["signed_area"] for r in data["regions"])
    assert len(areas) == 2  # shoelace oracle: two triangles of area 1/2
    assert np.allclose(areas, [0.5, 0.5], atol=1e-12)
    assert "outer" not in data
    svg_text = svg.read_text()
    assert svg_text.count("<path") == 2


def test_extract_keep_outer(tmp_path):
    out = tmp_path / "regions.json"
    code = run([
        "extract", "--input", f"{FIXTURES}/extract_square_diagonal.json",
        "--out", str(out), "--keep-outer",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["outer"]) == 1
    assert data["outer"][0]["orientation"] == "outer"


def test_calls_in_one_process_parse_their_own_argv(tmp_path):
    # the parser is built once per process; no flag, default or subcommand
    # of one call may carry over to the next
    assert build_parser() is build_parser()
    square = f"{FIXTURES}/extract_square_diagonal.json"
    first, second, table = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "t.csv"
    assert run(["extract", "--input", square, "--out", str(first), "--keep-outer"]) == 0
    assert run([
        "integrate", "--input", f"{FIXTURES}/integrate_lens.json",
        "--f", "1", "--max-level", "2", "--out", str(table),
    ]) == 0
    assert run(["extract", "--input", square, "--out", str(second)]) == 0
    assert len(json.loads(first.read_text())["outer"]) == 1
    assert "outer" not in json.loads(second.read_text())
    rows = table.read_text().strip().split("\n")
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]


def test_integrate_constant_gives_area(tmp_path):
    out = tmp_path / "table.csv"
    code = run([
        "integrate", "--input", f"{FIXTURES}/integrate_lens.json",
        "--f", "1", "--max-level", "6", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "level,points_per_dir,value,abs_delta,error_vs_reference"
    final_value = float(rows[-1].split(",")[2])
    # lens area oracle: integral of 4x(1-x) over [0,1] = 2/3
    assert abs(final_value - 2.0 / 3.0) < 1e-12


def test_integrate_expression_grammar(tmp_path):
    out = tmp_path / "table.csv"
    code = run([
        "integrate", "--input", f"{FIXTURES}/integrate_lens.json",
        "--f", "sin(pi/2*x)*cos(pi*y)*exp(x)", "--max-level", "5",
        "--reference", "auto", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    errs = [float(r.split(",")[4]) for r in rows]
    assert errs[-1] < 1e-11


def test_malformed_knots_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "curves": [{
            "kind": "bspline", "degree": 1,
            "knots": [0, 0, 1, 0.5, 1],
            "points": [[0, 0], [1, 1], [2, 0]],
        }]
    }))
    code = run(["extract", "--input", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "knots"


def test_degree_zero_map_exit_2(tmp_path, capsys):
    bad = tmp_path / "map0.json"
    bad.write_text(json.dumps({
        "degrees": [0, 1],
        "knots_u": [0, 0.5, 1], "knots_v": [0, 0, 1, 1],
        "control": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]],
    }))
    code = run([
        "mesh-intersect", "--map1", str(bad), "--map2", f"{FIXTURES}/map_offset.json",
        "--regions", str(tmp_path / "r.json"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "SchemaError"
    assert err["error"]["field"] == "degrees"


def test_zero_length_segment_exit_2_names_its_curve(tmp_path, capsys):
    # the second curve is a point on the first
    bad = tmp_path / "point.json"
    bad.write_text(json.dumps({
        "curves": [
            {"kind": "segment", "points": [[0, 0], [1, 0]]},
            {"kind": "segment", "points": [[0.5, 0], [0.5, 0]]},
            {"kind": "segment", "points": [[0, 0], [0.5, 1]]},
            {"kind": "segment", "points": [[0.5, 1], [1, 0]]},
        ]
    }))
    code = run(["extract", "--input", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "SchemaError" and err["field"] == "points"
    assert "curves[1]" in err["message"]


def test_overlap_exit_3(tmp_path, capsys):
    bad = tmp_path / "overlap.json"
    bad.write_text(json.dumps({
        "curves": [
            {"kind": "segment", "points": [[0, 0], [1, 0]]},
            {"kind": "segment", "points": [[0.5, 0], [2, 0]]},
        ]
    }))
    code = run(["extract", "--input", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "OverlapError"


def test_non_star_region_exit_3_names_its_vertex(tmp_path, capsys):
    # a C-shaped polygon: no point sees both inner edges of its arms
    corners = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]
    sides = [[corners[k], corners[(k + 1) % 8]] for k in range(8)]
    src = tmp_path / "c_shape.json"
    src.write_text(json.dumps({"curves": [{"kind": "segment", "points": s} for s in sides]}))
    regions = tmp_path / "regions.json"
    assert run(["extract", "--input", str(src), "--out", str(regions)]) == 0
    vertex = json.loads(regions.read_text())["regions"][0]["trail"][0]["vertex"]
    code = run(["integrate", "--input", str(src), "--f", "1", "--out", str(tmp_path / "t.csv")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "TileError"
    assert f"region at vertex {vertex}: no star center found" in err["message"]


def test_bad_option_exit_2(tmp_path, capsys):
    code = run([
        "integrate", "--input", f"{FIXTURES}/integrate_lens.json",
        "--f", "1", "--max-level", "40", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    capsys.readouterr()


def test_mesh_intersect(tmp_path):
    regions = tmp_path / "regions.json"
    svg = tmp_path / "mesh.svg"
    code = run([
        "mesh-intersect", "--map1", f"{FIXTURES}/map_grid_2x2.json",
        "--map2", f"{FIXTURES}/map_offset.json",
        "--regions", str(regions), "--svg", str(svg),
    ])
    assert code == 0
    data = json.loads(regions.read_text())
    total = sum(r["signed_area"] for r in data["regions"])
    assert abs(total - 1.0) < 1e-8  # regions partition the parameter square
    assert len(data["regions"]) > 4


@pytest.mark.parametrize("name, count", [("map_grid_2x2", 4), ("map_offset", 1)])
def test_mesh_intersect_of_a_map_with_itself_keeps_its_elements(tmp_path, name, count):
    # every pulled-back curve coincides with one of the map's own lines and
    # is dropped, so the regions are the map's knot elements
    regions = tmp_path / "regions.json"
    code = run([
        "mesh-intersect", "--map1", f"{FIXTURES}/{name}.json",
        "--map2", f"{FIXTURES}/{name}.json", "--regions", str(regions),
    ])
    assert code == 0
    assert len(json.loads(regions.read_text())["regions"]) == count


def test_quasi_interp_llm_and_levelset(tmp_path):
    for mode in ("llm", "levelset"):
        out = tmp_path / f"{mode}.json"
        code = run([
            "quasi-interp", "--source", f"{FIXTURES}/quasi_source.json",
            "--target", f"{FIXTURES}/quasi_target.json",
            "--mode", mode, "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        coeffs = np.asarray(data["coefficients"])
        assert coeffs.shape == (3, 3)
        assert data["report"]["mode"] == mode
        if mode == "llm":
            # local L2 projection of the zero-extended step may overshoot
            assert all(p["condition"] > 0 for p in data["report"]["problems"])
        else:
            # the averaged coefficients are bounded by the field extrema
            assert np.all(coeffs >= -1e-9) and np.all(coeffs <= 1 + 1e-9)


def test_regions_json_round_trip(tmp_path):
    out = tmp_path / "regions.json"
    run([
        "extract", "--input", f"{FIXTURES}/extract_square_diagonal.json",
        "--out", str(out), "--keep-outer",
    ])
    text = out.read_text()
    rs = region_set_from_json(text)
    assert region_set_to_json(rs, keep_outer=True) == text


def test_cli_runs_are_deterministic(tmp_path):
    argsets = [
        ["extract", "--input", f"{FIXTURES}/extract_square_diagonal.json"],
        ["integrate", "--input", f"{FIXTURES}/integrate_lens.json", "--f",
         "x*y + sin(x)", "--max-level", "4"],
        ["mesh-intersect", "--map1", f"{FIXTURES}/map_grid_2x2.json",
         "--map2", f"{FIXTURES}/map_offset.json"],
    ]
    for k, args in enumerate(argsets):
        outs = []
        for run_id in range(2):
            path = tmp_path / f"out_{k}_{run_id}"
            if args[0] == "extract":
                full = args + ["--out", f"{path}.json", "--svg", f"{path}.svg"]
                run(full)
                outs.append((path.with_suffix(".json").read_bytes(),
                             path.with_suffix(".svg").read_bytes()))
            elif args[0] == "integrate":
                run(args + ["--out", f"{path}.csv"])
                outs.append(path.with_suffix(".csv").read_bytes())
            else:
                run(args + ["--regions", f"{path}.json"])
                outs.append(path.with_suffix(".json").read_bytes())
        assert outs[0] == outs[1]


def _svg_paths_close(svg_text, tol=1e-6):
    for d in re.findall(r'd="([^"]+)"', svg_text):
        tokens = d.replace(",", " ").split()
        assert tokens[0] == "M" and tokens[-1] == "Z"
        start = np.array([float(tokens[1]), float(tokens[2])])
        nums = [t for t in tokens[3:-1] if not t.isalpha()]
        end = np.array([float(nums[-2]), float(nums[-1])])
        assert np.linalg.norm(end - start) <= tol


def test_svg_paths_close(tmp_path):
    svg = tmp_path / "r.svg"
    run([
        "extract", "--input", f"{FIXTURES}/extract_square_diagonal.json",
        "--svg", str(svg), "--keep-outer",
    ])
    _svg_paths_close(svg.read_text())


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize(
    "source, name",
    [
        pytest.param(f"{FIXTURES}/extract_square_diagonal.json", "extract_square_diagonal",
                     id="square_diagonal"),
        # square sides on x = -0.0, a quadratic, a cubic, a degree-4 Bézier
        # (SVG cubics by _cubics_for) and a closed cubic B-spline with a
        # seam-crossing edge
        pytest.param(os.path.join(GOLDEN, "extract_curved.json"), "extract_curved", id="curved"),
    ],
)
def test_extract_outputs_equal_golden_bytes(tmp_path, source, name):
    out, svg = tmp_path / "regions.json", tmp_path / "out.svg"
    code = run([
        "extract", "--input", source, "--keep-outer", "--out", str(out), "--svg", str(svg),
    ])
    assert code == 0
    for got, suffix in ((out, ".regions.json"), (svg, ".svg")):
        with open(os.path.join(GOLDEN, name + suffix), "rb") as fh:
            assert got.read_bytes() == fh.read()
