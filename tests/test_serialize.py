"""The regions file writer against the canonical JSON encoder."""

from hypothesis import example, given, settings, strategies as st

from curveplan.regions import Region, RegionSet
from curveplan.serialize import dumps_canonical, region_set_to_json, region_to_dict

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
