import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoidlab.errors import NotASpread
from ovoidlab.fibration import (Fibration, Spread, common_tangent_spread,
                                common_tangents,
                                find_regular_spread_in_complex,
                                is_regular_spread, point_permutation,
                                tangency_profile, tangency_table,
                                tangent_member)
from ovoidlab.ovoids import Ovoid, elliptic_quadric, is_ovoid, tangent_lines

from kfibration import SpreadNotTangent, fibrate_ovoid, k_stabilizer
from test_failure_branches import REPORTS as CORRUPTIONS, corrupted
from test_regulus_kernel import regulus


def perm_order(perm, start=0):
    k, cur = 1, perm[start]
    while cur != start:
        cur = perm[cur]
        k += 1
    return k


def test_singer_generator_orders(sc2):
    assert perm_order(sc2.gen_perm) == 85
    assert perm_order(sc2.t_perm) == 17
    assert perm_order(sc2.k_perm) == 5
    # transitivity: the gen orbit of point 0 is everything
    seen = {0}
    cur = sc2.gen_perm[0]
    while cur != 0:
        seen.add(cur)
        cur = sc2.gen_perm[cur]
    assert len(seen) == 85


def test_t_orbit_sizes_q8(sc3):
    for start in (0, 100, 584):
        assert perm_order(sc3.t_perm, start) == 65
        assert perm_order(sc3.k_perm, start) == 9


@pytest.mark.parametrize("fix,q", [("fib2", 4), ("fib3", 8)])
def test_t_orbit_fibration_partitions(fix, q, request):
    fib = request.getfixturevalue(fix)
    assert len(fib.members) == q + 1
    acc = 0
    for ov in fib.members:
        assert len(ov.pts) == q * q + 1
        assert not acc & ov.mask
        acc |= ov.mask
    assert acc.bit_count() == (q * q + 1) * (q + 1)
    # labels ordered by least contained point
    leads = [ov.pts[0] for ov in fib.members]
    assert leads == sorted(leads)
    assert leads[0] == 0


def test_fibration_members_are_ovoids(fib2, geo2):
    for ov in fib2.members:
        assert is_ovoid(ov.pts, geo2)


def test_t_acts_regularly_on_each_orbit(sc2, fib2):
    for ov in fib2.members:
        start = ov.pts[0]
        seen = {start}
        cur = sc2.t_perm[start]
        while cur != start:
            seen.add(cur)
            cur = sc2.t_perm[cur]
        assert seen == set(ov.pts)


@pytest.mark.parametrize("fix,gfix,q", [("fib2", "geo2", 4),
                                        ("fib3", "geo3", 8)])
def test_common_tangent_spread(fix, gfix, q, request):
    fib = request.getfixturevalue(fix)
    g = request.getfixturevalue(gfix)
    sp = common_tangent_spread(fib, g)
    assert len(sp.lines) == q * q + 1
    acc = 0
    for li in sp.lines:
        m = g.lines[li].mask
        assert not acc & m
        acc |= m
        for ov in fib.members:
            assert (m & ov.mask).bit_count() == 1
    assert acc == g.all_one


def test_spread_is_t_invariant(sc2, fib2, spread2, geo2):
    # T maps the spread to itself and acts regularly on it
    members = set(spread2.lines)
    li = spread2.lines[0]
    seen = set()
    cur = li
    for _ in range(17):
        pts = geo2.lines[cur].pts
        cur = geo2.line_through(sc2.t_perm[pts[0]], sc2.t_perm[pts[1]]).index
        assert cur in members
        seen.add(cur)
    assert seen == members


def test_is_regular_spread_full_q4(spread2, geo2):
    assert is_regular_spread(spread2, geo2)


def test_is_regular_spread_sampled(spread3, geo3):
    assert is_regular_spread(spread3, geo3, sample=200, seed=0)


def test_regular_spread_rejects_regulus_reversal(spread2, geo2):
    # replacing one regulus of a regular spread by its opposite yields a
    # genuine spread that fails regulus closure (q > 3)
    reg, opp = regulus(geo2, *spread2.lines[:3])
    assert set(reg) <= set(spread2.lines)
    mutated = sorted((set(spread2.lines) - set(reg)) | set(opp))
    assert not is_regular_spread(Spread(tuple(mutated)), geo2)


def test_swapped_line_is_not_a_spread(spread2, geo2):
    # q^2+1 pairwise skew lines always cover every point, so swapping one
    # spread line for any other line breaks skewness; detected as NotASpread
    mutated = list(spread2.lines[1:])
    swap = next(l.index for l in geo2.lines if l.index not in spread2.lines)
    with pytest.raises(NotASpread):
        is_regular_spread(Spread(tuple(sorted(mutated + [swap]))), geo2)


def test_is_regular_spread_rejects_non_spread(geo2):
    with pytest.raises(NotASpread):
        is_regular_spread(Spread((0, 1, 2)), geo2)


def test_regulus_of_spread_triple_inside(spread2, geo2):
    reg, _ = regulus(geo2, *spread2.lines[:3])
    assert set(reg) <= set(spread2.lines)


def test_k_stabilizer_q4(spread2, geo2, sc2):
    mats = k_stabilizer(spread2, geo2)
    assert len(mats) == 5
    perms = {tuple(point_permutation(geo2, m)) for m in mats}
    assert tuple(range(85)) in perms  # identity
    # same subgroup as generated by the Singer K generator
    kgen = tuple(sc2.k_perm)
    group = set()
    cur = kgen
    for _ in range(5):
        group.add(cur)
        cur = tuple(kgen[i] for i in cur)
    assert perms == group


def test_k_stabilizer_order_q8(spread3, geo3):
    assert len(k_stabilizer(spread3, geo3)) == 9


def test_fibrate_ovoid_recovers_t_orbits(fib2, spread2, geo2):
    fib = fibrate_ovoid(fib2.members[0], spread2, geo2)
    assert {ov.pts for ov in fib.members} == {ov.pts for ov in fib2.members}


def test_fibrate_ovoid_members_equivalent(fib2, spread2, geo2):
    mats = k_stabilizer(spread2, geo2)
    fib = fibrate_ovoid(fib2.members[0], spread2, geo2)
    images = set()
    for m in mats:
        perm = point_permutation(geo2, m)
        images.add(tuple(sorted(perm[p] for p in fib2.members[0].pts)))
    assert images == {ov.pts for ov in fib.members}


def test_fibrate_ovoid_spread_not_tangent(quadric2, geo2, fib2, spread2):
    # the common-tangent spread of the Singer fibration need not be
    # tangent to an unrelated copy of the quadric; craft a failing case
    tset = set(tangent_lines(quadric2, geo2))
    if all(li in tset for li in spread2.lines):
        pytest.skip("spread happens to be tangent to this quadric")
    with pytest.raises(SpreadNotTangent):
        fibrate_ovoid(quadric2, spread2, geo2)


def test_profile_helpers(fib2, geo2, spread2):
    q = geo2.q
    for ln in geo2.lines:
        if ln.index in set(spread2.lines):
            assert tangency_profile(ln.mask, fib2) == (q + 1, 0, 0)
        else:
            assert tangency_profile(ln.mask, fib2) == (1, q // 2, q // 2)


def test_profile_corruption_flag_is_sticky(geo2):
    # a member meeting the line in 3 points flags the profile; members
    # tangent to the line after it must not count the flag back up
    pts = geo2.lines[0].pts
    three = Ovoid.from_points(pts[:3])
    tangent = Ovoid.from_points(pts[3:4])
    for members in ((three, tangent), (three, tangent, tangent),
                    (tangent, three, tangent)):
        assert tangency_profile(geo2.lines[0].mask,
                                Fibration(members))[0] == -1


def test_fibration_hashes_by_identity(fib2):
    # tangency_table caches on the fibration: an identity hash keeps each
    # lookup from hashing the members
    assert hash(fib2) == object.__hash__(fib2)
    assert Fibration(fib2.members) != fib2


def assert_table_matches_kernels(f: Fibration, g) -> None:
    """Every line's table entry against the per-mask kernels, and the
    common tangents against a direct sweep of the members."""
    profiles, labels = tangency_table(f, g)
    assert len(profiles) == len(labels) == len(g.lines)
    for ln in g.lines:
        assert profiles[ln.index] == tangency_profile(ln.mask, f)
        assert labels[ln.index] == tangent_member(ln.mask, f)
    assert common_tangents(f, g) == [
        ln.index for ln in g.lines
        if all((ln.mask & ov.mask).bit_count() == 1 for ov in f.members)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["genuine"] + list(CORRUPTIONS))
def test_tangency_table_matches_kernels(name, n, request):
    f = request.getfixturevalue(f"fib{n}")
    g = request.getfixturevalue(f"geo{n}")
    if name != "genuine":
        f = corrupted(name, f, g)
    assert_table_matches_kernels(f, g)
    if name == "no_members":
        # zipping no meet vectors yields no columns, yet the pinned
        # no_members reports read one entry per line
        assert tangency_table(Fibration(()), g) == (
            ((0, 0, 0),) * len(g.lines), (None,) * len(g.lines))


@st.composite
def overlapping_members(draw, g):
    """Random member point sets; about half contain 3 or more points of
    some line, a meet genuine ovoids never have."""
    members = []
    for _ in range(draw(st.integers(0, 6))):
        pts = set(draw(st.lists(st.integers(0, g.n_points - 1),
                                max_size=25)))
        if draw(st.booleans()):
            ln = g.lines[draw(st.integers(0, len(g.lines) - 1))]
            pts |= set(ln.pts[:draw(st.integers(3, g.q + 1))])
        members.append(Ovoid.from_points(pts))
    return Fibration(tuple(members))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tangency_table_on_random_masks(geo2, data):
    assert_table_matches_kernels(data.draw(overlapping_members(geo2)), geo2)


def test_search_finds_spread_q2(geo1):
    eq = elliptic_quadric(geo1)
    tl = tangent_lines(eq, geo1)
    sp, nodes = find_regular_spread_in_complex(tl, geo1, budget=10 ** 6)
    assert sp is not None
    assert len(sp) == 5
    assert is_regular_spread(Spread(sp), geo1)
    assert set(sp) <= set(tl)


def test_search_finds_spread_q4(quadric2, geo2):
    tl = tangent_lines(quadric2, geo2)
    sp, nodes = find_regular_spread_in_complex(tl, geo2, budget=10 ** 6)
    assert sp is not None
    assert len(sp) == 17
    assert is_regular_spread(Spread(sp), geo2)
    assert set(sp) <= set(tl)


def test_search_budget_exhaustion_returns_notfound(quadric2, geo2):
    tl = tangent_lines(quadric2, geo2)
    sp, nodes = find_regular_spread_in_complex(tl, geo2, budget=1)
    assert sp is None
    assert nodes <= 1


def test_search_is_deterministic(quadric2, geo2):
    tl = tangent_lines(quadric2, geo2)
    a = find_regular_spread_in_complex(tl, geo2, budget=10 ** 5)
    b = find_regular_spread_in_complex(tl, geo2, budget=10 ** 5)
    assert a == b
