"""The columnar line tables of PG(3,q) against brute-force oracles, at
q = 2, 4 and 8: the flat point array and the mask list, the Line records
g.lines builds from them, a cache load's columns, the grouping of the
Segre tangents by point, and the compact polar map and profiles."""

from array import array

import pytest

from ovoidlab import cache as geocache
from ovoidlab.ovoids import elliptic_quadric, tangent_lines
from ovoidlab.projspace import Line
from ovoidlab.symplectic import polar_lines
from ovoidlab.verify import tangents_by_point

from linecols import tangency_table

GEOS = ["geo1", "geo2", "geo3"]


def set_bits(mask: int) -> list[int]:
    """The set bits of mask, ascending, one bit test per position."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@pytest.mark.parametrize("fix", GEOS)
def test_each_row_is_the_set_bits_of_its_mask(fix, request):
    g = request.getfixturevalue(fix)
    k = g.q + 1
    assert isinstance(g.line_pts, array)
    assert len(g.line_pts) == k * len(g.line_masks)
    for i, mask in enumerate(g.line_masks):
        assert list(g.line_pts[i * k:(i + 1) * k]) == set_bits(mask)
        assert g.line_of[mask] == i
    assert len(g.line_of) == len(g.line_masks)


@pytest.mark.parametrize("fix", GEOS)
def test_lines_are_built_from_the_columns(fix, request):
    g = request.getfixturevalue(fix)
    k, n = g.q + 1, len(g.line_masks)
    want = [Line(i, tuple(g.line_pts[i * k:(i + 1) * k]), g.line_masks[i])
            for i in range(n)]
    assert len(g.lines) == n
    assert list(g.lines) == want
    assert list(g.line_rows()) == [ln.pts for ln in want]
    for i in (0, 1, n // 2, n - 1):
        assert g.lines[i] == want[i]
        assert tuple(g.line_row(i)) == want[i].pts
    assert g.lines[-1] == want[n - 1]
    assert g.lines[-n] == want[0]
    for bad in (n, n + 5, -n - 1):
        with pytest.raises(IndexError):
            g.lines[bad]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cache_load_columns_equal_a_fresh_build(n, tmp_path, request):
    g = request.getfixturevalue(f"geo{n}")
    geocache.save_geometry(g, tmp_path)
    loaded = geocache.load_or_build(n, tmp_path)
    assert loaded.line_masks == g.line_masks
    assert loaded.line_pts == g.line_pts
    assert loaded.line_pts.typecode == g.line_pts.typecode
    assert loaded.line_of == g.line_of


def tangent_groups_oracle(theta, g) -> dict[int, list[int]]:
    """Point x of theta -> the lines joining x to a point y outside theta
    that meet theta in x alone, found by enumerating the pairs (x, y)."""
    out = {}
    for x in theta.pts:
        found = set()
        for y in range(g.n_points):
            if not theta.mask >> y & 1:
                ln = g.line_through(x, y)
                if ln.mask & theta.mask == 1 << x:
                    found.add(ln.index)
        out[x] = sorted(found)
    return out


@pytest.mark.parametrize("ovoid", ["quadric1", "quadric2", "quadric3",
                                   "tits3"])
def test_segre_tangent_groups_match_pair_enumeration(ovoid, request):
    if ovoid == "quadric1":
        g = request.getfixturevalue("geo1")
        theta = elliptic_quadric(g)
    else:
        g = request.getfixturevalue("geo" + ovoid[-1])
        theta = request.getfixturevalue(ovoid)
    groups = tangents_by_point(theta, set(tangent_lines(theta, g)), g)
    want = tangent_groups_oracle(theta, g)
    assert groups == want
    assert all(len(lines) == g.q + 1 for lines in want.values())


def test_polar_map_and_profiles_are_compact(form3, fib3, geo3):
    polar = polar_lines(form3, geo3)
    assert isinstance(polar, array) and polar.typecode == "H"
    assert len(polar) == len(geo3.line_masks)
    profiles = tangency_table(fib3, geo3)[0]
    # equal profiles are one tuple: two distinct ones at q = 8
    assert len({id(p) for p in profiles}) == len(set(profiles)) == 2

