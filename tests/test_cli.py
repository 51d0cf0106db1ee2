"""Command-line behavior: outputs, determinism, error contracts."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from curveplan import quadrature
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


_NAN_KNOTS = [0, 0, 0, float("nan"), 1, 1, 1]
_INF_KNOTS = [0, 0, 0, 0.5, float("inf"), float("inf"), float("inf")]


@pytest.mark.parametrize("knots", [_NAN_KNOTS, _INF_KNOTS], ids=["nan", "infinity"])
def test_non_finite_curve_knots_exit_2_name_their_curve(tmp_path, capsys, knots):
    # Python's json reads NaN and Infinity; a segment crosses the curve
    bad = tmp_path / "knots.json"
    bad.write_text(json.dumps({
        "curves": [
            {"kind": "bspline", "degree": 2, "knots": knots,
             "points": [[0, 0], [0.3, 1], [0.7, 1], [1, 0]]},
            {"kind": "segment", "points": [[0.5, -1], [0.5, 2]]},
        ]
    }))
    code = run(["extract", "--input", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "SchemaError" and err["field"] == "knots"
    assert "curves[0]" in err["message"] and "finite" in err["message"]


def test_non_finite_map_knots_exit_2_name_their_map(tmp_path, capsys):
    with open(f"{FIXTURES}/quasi_target.json", encoding="utf-8") as fh:
        target = json.load(fh)
    target["map"]["knots_u"] = [0, 0, float("nan"), 1, 1]
    bad = tmp_path / "target.json"
    bad.write_text(json.dumps(target))
    code = run(["quasi-interp", "--source", f"{FIXTURES}/quasi_source.json", "--target", str(bad),
                "--mode", "llm", "--out", str(tmp_path / "q.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "SchemaError" and err["field"] == "knots_u"
    assert "target.map" in err["message"] and "finite" in err["message"]


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


@pytest.mark.parametrize("mode", ["llm", "levelset"])
def test_quasi_interp_nested_component_exit_3(tmp_path, capsys, mode):
    # the source map's image lies inside one element of the target's
    source = tmp_path / "source.json"
    source.write_text(json.dumps({
        "map": {"degrees": [1, 1], "knots_u": [0, 0, 1, 1], "knots_v": [0, 0, 1, 1],
                "control": [[[0.1, 0.1], [0.1, 0.3]], [[0.3, 0.1], [0.3, 0.3]]]},
        "coefficients": [[1.0, 1.0], [1.0, 1.0]],
    }))
    code = run(["quasi-interp", "--source", str(source), "--target",
                f"{FIXTURES}/quasi_target.json", "--mode", mode, "--out", str(tmp_path / "q.json")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "GeometryError" and "nested component" in err["message"]


def test_non_star_region_integrates_to_its_area(tmp_path):
    # a C-shaped polygon of area 7: no point sees both inner edges of its
    # arms, and the signed wedges from its centroid still sum to its area
    table = tmp_path / "t.csv"
    src = os.path.join(GOLDEN, "integrate_c_shape.json")
    assert run(["integrate", "--input", src, "--f", "1", "--out", str(table)]) == 0
    assert table.read_text().splitlines()[-1].split(",")[2] == "7"


def test_bad_option_exit_2(tmp_path, capsys):
    code = run([
        "integrate", "--input", f"{FIXTURES}/integrate_lens.json",
        "--f", "1", "--max-level", "40", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    capsys.readouterr()


#: every subcommand with the options it validates as finite and positive
_SUBCOMMAND_OPTIONS = {
    "extract": (["--input", f"{FIXTURES}/extract_square_diagonal.json"], ["tol"]),
    "integrate": (["--input", f"{FIXTURES}/integrate_lens.json", "--f", "1"],
                  ["tol", "stop_threshold", "reference"]),
    "mesh-intersect": (["--map1", f"{FIXTURES}/map_grid_2x2.json",
                        "--map2", f"{FIXTURES}/map_offset.json"], ["tol", "fit_tol"]),
    "quasi-interp": (["--source", f"{FIXTURES}/quasi_source.json",
                      "--target", f"{FIXTURES}/quasi_target.json"], ["tol", "fit_tol"]),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, name", [
    (command, name) for command, (_, names) in _SUBCOMMAND_OPTIONS.items() for name in names])
def test_non_finite_option_values_exit_2_name_their_field(tmp_path, capsys, command, name, value):
    # before, --tol nan gave the lens an area of 0 with exit 0, and other
    # values crashed, failed to converge or never stopped early
    args, _ = _SUBCOMMAND_OPTIONS[command]
    out = [] if command == "mesh-intersect" else ["--out", str(tmp_path / "out")]
    code = run([command, *args, *out, f"--{name.replace('_', '-')}={value}"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "SchemaError" and err["field"] == name
    assert "finite" in err["message"]
    assert not os.path.exists(tmp_path / "out")


def test_reference_over_node_budget_exits_2_before_any_level(tmp_path, capsys, monkeypatch):
    # the lens is one tile, so its reference level at --max-level 12 has
    # 4^14 nodes: minutes of work, refused before a level is evaluated
    def no_level(*args):
        raise AssertionError("a level was evaluated")

    monkeypatch.setattr(quadrature, "integrate_tiles", no_level)
    code = run([
        "integrate", "--input", f"{FIXTURES}/integrate_lens.json", "--f", "x",
        "--max-level", "12", "--reference", "auto", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "SchemaError" and err["field"] == "max_level"
    assert str(4**14) in err["message"] and str(quadrature.REFERENCE_NODE_BUDGET) in err["message"]


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
        # perfbench's scenes.dense_segments(default_rng(1), n=16): a warped
        # 8 x 8 grid of crossings, 49 regions
        pytest.param(os.path.join(GOLDEN, "extract_dense.json"), "extract_dense", id="dense"),
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


_QUASI = ["quasi-interp", "--source", f"{FIXTURES}/quasi_source.json",
          "--target", f"{FIXTURES}/quasi_target.json", "--mode"]


def test_quasi_interp_leaves_numpy_ma_unimported(tmp_path):
    # the first call of np.unique imports numpy.ma, about 15 ms of start-up;
    # the package finds distinct knots without it
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    script = (
        "import sys\n"
        "from curveplan.cli import main\n"
        "for mode in ('llm', 'levelset'):\n"
        f"    assert main({_QUASI!r} + [mode, '--out', {str(tmp_path / 'q.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize(
    "argv, name",
    [
        # the reference level has 128 points per direction, so every grid
        # is cut into blocks of rows
        pytest.param(["integrate", "--input", f"{FIXTURES}/integrate_lens.json", "--f",
                      "x*y + sin(x)", "--max-level", "5", "--reference", "auto"],
                     "integrate_lens.csv", id="lens"),
        # two Coons patches whose curved sides lie on different sides, and a
        # three-sided region of wedges, in one stack; every level runs
        pytest.param(["integrate", "--input", os.path.join(GOLDEN, "integrate_mixed.json"),
                      "--f", "x*y + sin(x)", "--max-level", "5", "--stop-threshold", "1e-300",
                      "--reference", "auto"], "integrate_mixed.csv", id="mixed"),
        # the C-shaped region of signed wedges from its centroid; these
        # bytes come from signed tiling, as star-wedge tiling refused it
        pytest.param(["integrate", "--input", os.path.join(GOLDEN, "integrate_c_shape.json"),
                      "--f", "x*y + sin(x)", "--max-level", "5", "--stop-threshold", "1e-300",
                      "--reference", "auto"], "integrate_c_shape.csv", id="c_shape"),
        pytest.param(_QUASI + ["llm"], "quasi_interp.llm.json", id="llm"),
        pytest.param(_QUASI + ["levelset"], "quasi_interp.levelset.json", id="levelset"),
    ],
)
def test_quadrature_outputs_equal_golden_bytes(tmp_path, argv, name):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert out.read_bytes() == fh.read()
