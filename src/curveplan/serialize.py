"""JSON schemas for curves, regions and spline data.

All writers emit canonical JSON (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.
"""

import json

import numpy as np

from .curves import ParamCurve
from .errors import SchemaError
from .regions import Region, RegionSet
from .splines import SplineFunc2D, SplineMap2D, TensorSplineSpace


def dumps_canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require(data, key, kind, where):
    if key not in data:
        raise SchemaError(f"{where}: missing field '{key}'", field=key)
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}: field '{key}' has the wrong type", field=key)
    return value


# -- curves -------------------------------------------------------------------


def curve_from_dict(data, where="curve"):
    kind = _require(data, "kind", str, where)
    points = _require(data, "points", list, where)
    if kind == "bspline":
        knots = _require(data, "knots", list, where)
        degree = _require(data, "degree", int, where)
        return ParamCurve("bspline", points, degree=degree, knots=knots)
    if kind == "bezier":
        return ParamCurve("bezier", points, degree=data.get("degree"))
    if kind == "segment":
        return ParamCurve("segment", points)
    raise SchemaError(f"{where}: unknown curve kind {kind!r}", field="kind")


def curves_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    items = _require(data, "curves", list, "curves file")
    return [curve_from_dict(c, where=f"curves[{i}]") for i, c in enumerate(items)]


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


def region_set_to_json(region_set, keep_outer=False):
    out = {"regions": [region_to_dict(r) for r in region_set.regions]}
    if keep_outer:
        out["outer"] = [region_to_dict(r) for r in region_set.outer]
    return dumps_canonical(out)


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
    return TensorSplineSpace(
        (int(degrees[0]), int(degrees[1])),
        _require(data, "knots_u", list, where),
        _require(data, "knots_v", list, where),
    )


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
