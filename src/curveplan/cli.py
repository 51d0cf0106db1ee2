"""Command-line front end: extract, integrate, mesh-intersect, quasi-interp.

All outputs are canonical (sorted-key JSON, fixed-format CSV/SVG) so two
runs on the same inputs are byte-identical.  Errors exit with a
machine-readable JSON object on standard error: schema problems exit 2,
geometric degeneracies 3, convergence failures 4.
"""

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass, fields

from .arrangement import build_drawing
from .errors import ConvergenceError, CurveplanError, GeometryError, SchemaError
from .expressions import parse_expression
from .quadrature import integrate_adaptive
from .quasi_interp import level_set_coeffs, llm_project
from .regions import extract_and_classify
from .serialize import (
    curves_from_json,
    dumps_canonical,
    func_from_dict,
    func_to_dict,
    load_json,
    map_from_dict,
    region_set_to_json,
)
from .splines import build_interface_drawing, composed_field
from .svg import regions_svg

log = logging.getLogger("curveplan")

EXIT_SCHEMA = 2
EXIT_GEOMETRY = 3
EXIT_CONVERGENCE = 4

MAX_LEVEL_CAP = 12


@dataclass
class JobConfig:
    """Validated run configuration shared by all subcommands."""

    command: str
    tol: float = 1e-7
    fit_tol: float = 1e-8
    stop_threshold: float = 1e-12
    max_level: int = 6
    keep_outer: bool = False
    svg: str | None = None
    out: str | None = None

    def __post_init__(self):
        for name in ("tol", "fit_tol", "stop_threshold"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both
                raise SchemaError(f"--{name.replace('_', '-')} must be finite and > 0", field=name)
        if not 1 <= self.max_level <= MAX_LEVEL_CAP:
            raise SchemaError(
                f"--max-level must be between 1 and {MAX_LEVEL_CAP}", field="max_level"
            )


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _config(ns):
    """JobConfig from the fields the subcommand parsed; the rest default."""
    names = [f.name for f in fields(JobConfig) if hasattr(ns, f.name)]
    return JobConfig(**{name: getattr(ns, name) for name in names})


# -- subcommands ----------------------------------------------------------------


def _cmd_extract(ns):
    cfg = _config(ns)
    curves = curves_from_json(_read(ns.input))
    drawing = build_drawing(curves, tol=cfg.tol)
    rs = extract_and_classify(drawing)
    log.info("extracted %d interior and %d outer regions", len(rs.regions), len(rs.outer))
    payload = region_set_to_json(rs, keep_outer=cfg.keep_outer)
    if cfg.out:
        _write_text(cfg.out, payload)
    else:
        sys.stdout.write(payload)
    if cfg.svg:
        _write_text(cfg.svg, regions_svg(rs, include_outer=cfg.keep_outer))
    return 0


def _cmd_integrate(ns):
    cfg = _config(ns)
    curves = curves_from_json(_read(ns.input))
    f = parse_expression(ns.f)
    rs = extract_and_classify(build_drawing(curves, tol=cfg.tol))
    if ns.reference in (None, "auto"):
        reference = ns.reference
    else:
        try:
            reference = float(ns.reference)
        except ValueError:
            reference = math.nan
        if not math.isfinite(reference):
            raise SchemaError("--reference must be 'auto' or a finite number", field="reference")
    report = integrate_adaptive(
        rs, f, cfg.max_level, stop_threshold=cfg.stop_threshold, reference=reference
    )
    log.info("stopped at level %d, value %.17g", report.stopped_at, report.value)
    if cfg.out:
        _write_text(cfg.out, report.to_csv())
    else:
        sys.stdout.write(report.to_csv())
    if cfg.svg:
        _write_text(cfg.svg, regions_svg(rs, include_outer=cfg.keep_outer))
    return 0


def _cmd_mesh_intersect(ns):
    cfg = _config(ns)
    T1 = map_from_dict(load_json(ns.map1), where="map1")
    T2 = map_from_dict(load_json(ns.map2), where="map2")
    drawing = build_interface_drawing(T1, T2, tol=cfg.tol, fit_tol=cfg.fit_tol)
    rs = extract_and_classify(drawing)
    log.info("interface drawing has %d regions", len(rs.regions))
    if ns.regions:
        _write_text(ns.regions, region_set_to_json(rs, keep_outer=cfg.keep_outer))
    if cfg.svg:
        _write_text(cfg.svg, regions_svg(rs, include_outer=cfg.keep_outer))
    return 0


def _cmd_quasi_interp(ns):
    cfg = _config(ns)
    source = load_json(ns.source)
    target = load_json(ns.target)
    if "map" not in source or "coefficients" not in source:
        raise SchemaError("source file needs 'map' and 'coefficients'", field="source")
    if "map" not in target:
        raise SchemaError("target file needs 'map'", field="map")
    T2 = map_from_dict(source["map"], where="source.map")
    s2 = func_from_dict(
        {**source["map"], "coefficients": source["coefficients"]}, where="source"
    )
    T1 = map_from_dict(target["map"], where="target.map")
    rs = extract_and_classify(
        build_interface_drawing(T1, T2, tol=cfg.tol, fit_tol=cfg.fit_tol)
    )
    if ns.mode == "llm":
        result = llm_project(composed_field(s2, T1, T2), T1.space, regions=rs)
        payload = func_to_dict(result.function)
        payload["report"] = {
            "mode": "llm",
            "problems": [
                {
                    "index": list(p.index),
                    "condition": p.condition,
                    "residual": p.residual,
                }
                for p in result.problems
            ],
        }
    else:
        field = level_set_coeffs(s2, T1, T2, rs)
        payload = func_to_dict(field.function)
        payload["report"] = {
            "mode": "levelset",
            "active": sorted(list(map(list, field.active))),
            "theta_elements": sorted(list(map(list, field.theta_elements))),
        }
    _write_text(cfg.out, dumps_canonical(payload))
    return 0


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise SchemaError(f"input file not found: {path}") from exc


# -- parser -----------------------------------------------------------------------


def _add_common(sp, fit_tol=False):
    sp.add_argument("--tol", type=float, default=1e-7, help="intersection/cluster tolerance")
    if fit_tol:
        sp.add_argument("--fit-tol", dest="fit_tol", type=float, default=1e-8,
                        help="pull-back fit tolerance")
    sp.add_argument("--svg", default=None, help="write an SVG rendering here")
    sp.add_argument("--keep-outer", dest="keep_outer", action="store_true",
                    help="include outer (clockwise) regions in outputs")


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="curveplan",
        description="Region extraction for curvilinear drawings and "
        "region-aware quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract regions from a curve file")
    p.add_argument("--input", required=True, help="curves JSON file")
    p.add_argument("--out", default=None, help="regions JSON output")
    _add_common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("integrate", help="adaptive integration over the regions")
    p.add_argument("--input", required=True, help="curves JSON file")
    p.add_argument("--f", required=True, help="integrand expression in x, y, pi")
    p.add_argument("--max-level", dest="max_level", type=int, default=6)
    p.add_argument("--stop-threshold", dest="stop_threshold", type=float, default=1e-12)
    p.add_argument("--reference", default=None,
                   help="'auto' for an overkill reference, or a number")
    p.add_argument("--out", default=None, help="CSV output (stdout if omitted)")
    _add_common(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("mesh-intersect", help="interface drawing of two spline maps")
    p.add_argument("--map1", required=True, help="first map JSON file")
    p.add_argument("--map2", required=True, help="second map JSON file")
    p.add_argument("--regions", default=None, help="regions JSON output")
    _add_common(p, fit_tol=True)
    p.set_defaults(func=_cmd_mesh_intersect)

    p = sub.add_parser("quasi-interp", help="project a field between spline spaces")
    p.add_argument("--source", required=True, help="source field JSON (map + coefficients)")
    p.add_argument("--target", required=True, help="target space JSON (map)")
    p.add_argument("--mode", choices=("llm", "levelset"), default="llm")
    p.add_argument("--out", required=True, help="coefficients JSON output")
    _add_common(p, fit_tol=True)
    p.set_defaults(func=_cmd_quasi_interp)

    return parser


def _emit_error(exc, code):
    payload = {
        "error": {
            "kind": type(exc).__name__,
            "message": str(exc),
            "field": getattr(exc, "field", None),
        }
    }
    sys.stderr.write(dumps_canonical(payload))
    return code


def main(argv=None):
    level = os.environ.get("CURVEPLAN_LOG", "warn").upper()
    logging.basicConfig(level={"WARN": "WARNING"}.get(level, level))
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except SchemaError as exc:
        return _emit_error(exc, EXIT_SCHEMA)
    except GeometryError as exc:
        return _emit_error(exc, EXIT_GEOMETRY)
    except ConvergenceError as exc:
        return _emit_error(exc, EXIT_CONVERGENCE)
    except CurveplanError as exc:  # base-class fallback
        return _emit_error(exc, EXIT_GEOMETRY)


if __name__ == "__main__":
    sys.exit(main())
