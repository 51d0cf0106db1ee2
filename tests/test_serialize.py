"""The curves file reader against its per-curve checked path, and the
regions file writer against the canonical JSON encoder."""

import json
import math
import re

from hypothesis import example, given, settings, strategies as st

from curveplan.errors import SchemaError
from curveplan.regions import Region, RegionSet
from curveplan.serialize import (
    curve_from_dict,
    curves_from_json,
    dumps_canonical,
    region_set_to_json,
    region_to_dict,
)

_coord = st.one_of(st.floats(-100, 100), st.integers(-3, 3), st.just(-0.0))
_point = st.lists(_coord, min_size=2, max_size=2)
_segment = st.lists(_point, min_size=2, max_size=2).map(lambda p: {"kind": "segment", "points": p})
_OTHER_CURVES = [
    {"kind": "bezier", "points": [[0, 0], [0.5, 1], [1, 0]]},
    {"kind": "bezier", "degree": 1, "points": [[0, 1], [1, 1]]},
    {"kind": "bspline", "degree": 2, "knots": [0, 0, 0, 0.5, 1, 1, 1],
     "points": [[0, 0], [1, 1], [2, 0], [3, 1]]},
]
_bad_coord = st.sampled_from(
    [math.nan, math.inf, -math.inf, "2.5", "nan", "x", True, None, 10**400, [1.0], {}]
)
_bad_points = st.one_of(
    st.lists(_point, min_size=1, max_size=1),  # 1 point
    st.lists(_point, min_size=3, max_size=3),  # 3 points
    st.lists(st.lists(_coord, min_size=3, max_size=3), min_size=2, max_size=2),  # 3-d points
    st.tuples(_point, st.lists(_coord, min_size=1, max_size=1)).map(list),  # ragged
    st.tuples(_point, _coord).map(list),  # a number for a point
    st.tuples(_point, st.tuples(_coord, _bad_coord).map(list)).map(list),
    _point.map(lambda p: [p, list(p)]),  # coinciding ends
    st.just([[0.0, 1], [-0.0, 1]]),
)
_bad_items = st.one_of(
    _bad_points.map(lambda p: {"kind": "segment", "points": p}),
    st.sampled_from([
        5, "segment", None, [[0, 0], [1, 1]],
        {"kind": "segment"}, {"kind": "segment", "points": "0 0 1 1"},
        {"kind": 1, "points": [[0, 0], [1, 1]]}, {"kind": "arc", "points": [[0, 0], [1, 1]]},
        {"kind": "bezier", "points": [[0, 0], ["a", 1], [1, 0]]},
        {"kind": "bezier", "degree": "2", "points": [[0, 0], [1, 1], [1, 0]]},
        {"kind": "bezier", "degree": 3, "points": [[0, 0], [1, 1], [1, 0]]},
        {"kind": "bspline", "degree": 1, "knots": [0, "x", 1, 1], "points": [[0, 0], [1, 1]]},
        {"kind": "bspline", "degree": 1, "knots": [0, 1, 1], "points": [[0, 0], [1, 1]]},
        {"kind": "bspline", "degree": 1, "knots": [0, 0, 1, 1], "points": [[0, math.inf], [1, 1]]},
    ]),
)


@st.composite
def _curve_files(draw):
    """Curve lists, mostly segments, with up to two bad items injected."""
    items = draw(st.lists(st.one_of(_segment, _segment, st.sampled_from(_OTHER_CURVES)), max_size=8))
    for k, bad in draw(st.lists(st.tuples(st.integers(0, 8), _bad_items), max_size=2)):
        items.insert(k, bad)
    return items


def _outcome(read):
    """Kind, degree, knot and control bytes and nets of the curves read, or
    the error's type, field and the curve its message names."""
    try:
        curves = read()
    except SchemaError as exc:
        name = re.match(r"curves\[\d+\]: ", str(exc))
        assert name, f"a read error names no curve: {exc}"
        return SchemaError, exc.field, name.group()
    return [
        (c.kind, c.degree, c.knots.tobytes(), c.ctrl.tobytes(), c.reduced_continuity, c.nets())
        for c in curves
    ]


@settings(max_examples=400, deadline=None)
@given(_curve_files())
@example([{"kind": "segment", "points": [[0, 0], [1, 1]]}])
@example([])
def test_curves_reader_equals_the_checked_path(items):
    text = json.dumps({"curves": items})
    items = json.loads(text)["curves"]
    checked = _outcome(lambda: [curve_from_dict(c, where=f"curves[{i}]") for i, c in enumerate(items)])
    assert _outcome(lambda: curves_from_json(text)) == checked

_areas = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-309, 1e300, -1e300]),
    st.floats(),  # NaN and infinities too: json writes NaN, Infinity
)
_regions = st.lists(
    st.builds(
        lambda trail, area, orientation: Region(trail, area, orientation),
        st.lists(
            st.tuples(st.integers(1, 10**30), st.integers(-(10**30), 10**30)), max_size=5
        ),
        _areas,
        st.sampled_from(["interior", "outer"]),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_regions, _regions, st.booleans())
@example([], [], True)
@example([], [], False)
def test_regions_writer_equals_canonical_dump(regions, outer, keep_outer):
    want = {"regions": [region_to_dict(r) for r in regions]}
    if keep_outer:
        want["outer"] = [region_to_dict(r) for r in outer]
    got = region_set_to_json(RegionSet(regions=regions, outer=outer), keep_outer=keep_outer)
    assert got == dumps_canonical(want)
