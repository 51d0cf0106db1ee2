"""JSON schemas for curves, regions and spline data.

All writers emit canonical JSON (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

import json
import math

import numpy as np

from .curves import ParamCurve, trusted_bezier
from .errors import SchemaError
from .regions import Region, RegionSet
from .splines import SplineFunc2D, SplineMap2D, TensorSplineSpace


def dumps_canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require(data, key, kind, where):
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"{where}: missing field '{key}'", field=key)
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}: field '{key}' has the wrong type", field=key)
    return value


# -- curves -------------------------------------------------------------------


def curve_from_dict(data, where="curve"):
    kind = _require(data, "kind", str, where)
    points = _require(data, "points", list, where)
    degree, knots = data.get("degree"), None
    if kind == "bspline":
        knots, degree = _require(data, "knots", list, where), _require(data, "degree", int, where)
    elif kind == "bezier" and degree is not None:
        degree = _require(data, "degree", (int, float), where)
    elif kind not in ("bezier", "segment"):
        raise SchemaError(f"{where}: unknown curve kind {kind!r}", field="kind")
    try:
        curve = ParamCurve(kind, points, degree=degree, knots=knots)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}", field=exc.field) from None
    if kind == "segment" and curve.ctrl[0].tolist() == curve.ctrl[1].tolist():
        raise SchemaError(f"{where}: segment end points coincide", field="points")
    return curve


def curves_from_json(text):
    """The curves of a curves file; its segments' points are checked as one
    array, else (an irregular segment) every curve takes the checked path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    items = _require(data, "curves", list, "curves file")
    segs = [i for i, c in enumerate(items) if isinstance(c, dict) and c.get("kind") == "segment"]
    try:
        ctrl = np.array([_require(items[i], "points", list, "") for i in segs], dtype=float)
    except (SchemaError, TypeError, ValueError, OverflowError):
        ctrl = np.empty(0)
    trusted = {}
    ok = ctrl.shape == (len(segs), 2, 2) and np.isfinite(ctrl).all()
    if ok and (ctrl[:, 0] != ctrl[:, 1]).any(axis=1).all():
        pts = list(map(tuple, ctrl.reshape(-1, 2).tolist()))
        trusted = dict(zip(segs, map(trusted_bezier, ctrl, zip(pts[0::2], pts[1::2]))))
    return [trusted.get(i) or curve_from_dict(c, f"curves[{i}]") for i, c in enumerate(items)]


# -- regions ------------------------------------------------------------------


def region_to_dict(region):
    return {
        "trail": [{"vertex": vid, "edge": se} for vid, se in region.trail],
        "signed_area": float(region.signed_area),
        "orientation": region.orientation,
    }


def region_from_dict(data, where="region"):
    trail = [
        (int(p["vertex"]), int(p["edge"]))
        for p in _require(data, "trail", list, where)
    ]
    return Region(
        trail=trail,
        signed_area=float(_require(data, "signed_area", (int, float), where)),
        orientation=_require(data, "orientation", str, where),
    )


#: a region and a trail entry of the regions file, indented at their depth
_REGION = '\n    {\n      "orientation": %s,\n      "signed_area": %s,\n      "trail": %s\n    }'
_TRAIL_ENTRY = '\n        {\n          "edge": %d,\n          "vertex": %d\n        }'


def _number(x):
    """``json.dumps`` of a float: the encoder writes a finite float as its
    repr and is needed only for NaN and the infinities."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _array(items, indent):
    """Encoded items as a JSON array whose closing bracket sits at ``indent``."""
    return f"[{','.join(items)}\n{indent}]" if items else "[]"


def region_set_to_json(region_set, keep_outer=False):
    """The regions file: ``dumps_canonical`` of ``{"regions": [...]}`` (and
    ``"outer"``) in ``region_to_dict`` form, written directly from string
    templates, since the indenting encoder is pure Python."""

    def regions(rs):
        return _array([
            _REGION % (
                json.dumps(r.orientation),
                _number(float(r.signed_area)),
                _array([_TRAIL_ENTRY % (se, vid) for vid, se in r.trail], "      "),
            )
            for r in rs
        ], "  ")

    outer = f'\n  "outer": {regions(region_set.outer)},' if keep_outer else ""
    return f'{{{outer}\n  "regions": {regions(region_set.regions)}\n}}\n'


def region_set_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    regions = [
        region_from_dict(r, where=f"regions[{i}]")
        for i, r in enumerate(_require(data, "regions", list, "regions file"))
    ]
    outer = [
        region_from_dict(r, where=f"outer[{i}]")
        for i, r in enumerate(data.get("outer", []))
    ]
    return RegionSet(regions=regions, outer=outer, drawing=None)


# -- spline maps and functions ---------------------------------------------------


def space_from_dict(data, where="spline"):
    degrees = _require(data, "degrees", list, where)
    if len(degrees) != 2:
        raise SchemaError(f"{where}: degrees must be a pair", field="degrees")
    knots_u, knots_v = _require(data, "knots_u", list, where), _require(data, "knots_v", list, where)
    try:
        return TensorSplineSpace((int(degrees[0]), int(degrees[1])), knots_u, knots_v)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}", field=exc.field) from None


def map_from_dict(data, where="map"):
    space = space_from_dict(data, where)
    control = np.asarray(_require(data, "control", list, where), dtype=float)
    return SplineMap2D(space, control)


def func_to_dict(func):
    return {
        "degrees": [func.space.du, func.space.dv],
        "knots_u": [float(t) for t in func.space.tu],
        "knots_v": [float(t) for t in func.space.tv],
        "coefficients": [[float(c) for c in row] for row in func.coeffs],
    }


def func_from_dict(data, where="function"):
    space = space_from_dict(data, where)
    coeffs = np.asarray(_require(data, "coefficients", list, where), dtype=float)
    return SplineFunc2D(space, coeffs)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
