import random
from array import array
from itertools import combinations
from math import comb

import pytest

from ovoidlab import ovoids
from ovoidlab.errors import EvenDegree, InvariantViolation, NoQuadric
from ovoidlab.ovoids import (Ovoid, elliptic_quadric, fit_quadric, is_ovoid,
                             line_meets, tangent_lines, tits_ovoid)

from linecols import lines_by_point, plane_points


def no_three_collinear_oracle(pts, g):
    """Exhaustive all-triples oracle, independent of the per-line check."""
    for a, b, c in combinations(pts, 3):
        if g.line_through(a, b).mask >> c & 1:
            return False
    return True


@pytest.mark.parametrize("fix,size", [("geo1", 5), ("geo2", 17)])
def test_elliptic_quadric_small(fix, size, request):
    g = request.getfixturevalue(fix)
    ov = elliptic_quadric(g)
    assert len(ov.pts) == size == g.q * g.q + 1
    assert no_three_collinear_oracle(ov.pts, g)


def test_elliptic_quadric_q2_brute_force(geo1):
    # evaluate x0x1 + x2^2 + x2x3 + a x3^2 over all 15 points by hand
    from ovoidlab.ovoids import irreducible_constant
    a = irreducible_constant(geo1)
    assert a == 1  # y^2+y+1 is the only irreducible option over GF(2)
    mul = geo1.ctx.mul
    expected = sorted(
        p.index for p in geo1.points
        if mul(p.coords[0], p.coords[1]) ^ mul(p.coords[2], p.coords[2])
        ^ mul(p.coords[2], p.coords[3]) ^ mul(a, mul(p.coords[3], p.coords[3]))
        == 0)
    assert list(elliptic_quadric(geo1).pts) == expected
    assert len(expected) == 5


def test_elliptic_quadric_q8(quadric3, geo3):
    assert len(quadric3.pts) == 65
    assert no_three_collinear_oracle(quadric3.pts, geo3)


def test_tangent_count_per_point(quadric2, geo2):
    tset = set(tangent_lines(quadric2, geo2))
    by_point = lines_by_point(geo2)
    for x in quadric2.pts:
        through = [li for li in by_point[x] if li in tset]
        assert len(through) == geo2.q + 1


def test_tits_ovoid_q8(tits3, geo3):
    assert len(tits3.pts) == 65
    assert no_three_collinear_oracle(tits3.pts, geo3)


def test_tits_ovoid_even_degree_raises(geo2):
    with pytest.raises(EvenDegree):
        tits_ovoid(geo2)


def test_tits_ovoid_is_not_a_quadric(tits3, geo3):
    with pytest.raises(NoQuadric):
        fit_quadric(tits3.pts, geo3)


def test_is_ovoid_accepts_constructions(quadric2, geo2):
    assert is_ovoid(quadric2.pts, geo2)


def test_is_ovoid_rejects_plane(geo2):
    assert not is_ovoid(plane_points(geo2.planes[0]), geo2)
    assert not is_ovoid(plane_points(geo2.planes[0])[:17], geo2)


@pytest.mark.parametrize("index", ["past_the_end", "negative"])
def test_is_ovoid_rejects_indices_that_are_not_points(index, quadric2, geo2):
    # one point swapped for an index outside range(n_points): no ovoid,
    # whatever bits the index would set
    bad = geo2.n_points + 5 if index == "past_the_end" else -1
    assert not is_ovoid(quadric2.pts[:-1] + (bad,), geo2)


def test_is_ovoid_rejects_swapped_point(quadric2, geo2):
    outside = next(p.index for p in geo2.points
                   if not (quadric2.mask >> p.index) & 1)
    mutated = set(quadric2.pts) - {quadric2.pts[0]} | {outside}
    assert len(mutated) == 17
    assert not is_ovoid(mutated, geo2)
    # oracle: some line now carries 3 points of the set
    assert not no_three_collinear_oracle(sorted(mutated), geo2)


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_line_meets_matches_bit_count(fix, request):
    g = request.getfixturevalue(fix)
    rng = random.Random(5)
    for trial in range(40):
        pts = set(rng.sample(range(g.n_points), rng.randrange(15)))
        if trial % 2:
            # 3 or more points of one line, a meet no ovoid has
            ln = rng.choice(g.lines)
            pts |= set(ln.pts[:rng.randint(3, g.q + 1)])
        mask = sum(1 << p for p in pts)
        meets = line_meets(mask, g)
        assert list(meets) == [(ln.mask & mask).bit_count() for ln in g.lines]
        assert line_meets(mask, g) is meets
        if trial % 2:
            assert max(meets) >= 3


def test_ovoid_mask_must_be_the_or_of_its_points(quadric2, geo2):
    with pytest.raises(TypeError):
        Ovoid(quadric2.pts, quadric2.kind)
    outside = next(p for p in range(geo2.n_points)
                   if not quadric2.mask >> p & 1)
    for mask in (0, quadric2.mask ^ 1 << quadric2.pts[0],
                 quadric2.mask | 1 << outside):
        with pytest.raises(InvariantViolation):
            Ovoid(quadric2.pts, quadric2.kind, mask)
    # points need not be sorted
    unsorted = Ovoid(quadric2.pts[::-1], quadric2.kind, quadric2.mask)
    assert len(tangent_lines(unsorted, geo2)) == 85


def test_classification_totals_q4(quadric2, geo2):
    q = geo2.q
    meets = line_meets(quadric2.mask, geo2)
    # oracles: tangent = (q+1)(q^2+1), secant = C(q^2+1, 2)
    assert meets.count(1) == (q + 1) * (q * q + 1) == 85
    assert meets.count(2) == comb(q * q + 1, 2) == 136
    assert meets.count(0) == len(geo2.lines) - 85 - 136 == 136


def test_incidence_double_count(quadric2, geo2):
    q = geo2.q
    total = sum((ln.mask & quadric2.mask).bit_count() for ln in geo2.lines)
    assert total == (q * q + 1) * (q * q + q + 1)


def test_tangent_lines_count(quadric2, geo2):
    assert len(tangent_lines(quadric2, geo2)) == 85


def test_tangent_lines_read_once_per_mask_into_fresh_lists(quadric2, geo2):
    # the indices are read from the meet vector once per mask and
    # geometry; every call returns its own list, so a caller that changes
    # it leaves the next caller's list intact
    ovoids._tangents.cache_clear()
    first = tangent_lines(quadric2, geo2)
    first.clear()
    again = tangent_lines(quadric2, geo2)
    assert again == [ln.index for ln in geo2.lines
                     if (ln.mask & quadric2.mask).bit_count() == 1]
    assert tangent_lines(quadric2, geo2) is not again
    info = ovoids._tangents.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # the memoized set is a flat array, typed like the polar map
    cached = ovoids._tangents(quadric2.mask, geo2)
    assert isinstance(cached, array) and cached.typecode == "I"


def test_tangents_at_point_are_coplanar(quadric2, geo2):
    tset = set(tangent_lines(quadric2, geo2))
    by_point = lines_by_point(geo2)
    for x in quadric2.pts:
        union = 0
        for li in by_point[x]:
            if li in tset:
                union |= geo2.lines[li].mask
        assert any(pl.mask == union for pl in geo2.planes)


def test_fit_quadric_recovers_constructor(quadric2, geo2):
    coeffs = fit_quadric(quadric2.pts, geo2)
    from ovoidlab.ovoids import _eval_quadric
    zero = {p.index for p in geo2.points
            if _eval_quadric(geo2.ctx, coeffs, p.coords) == 0}
    assert zero == set(quadric2.pts)


def test_fit_quadric_on_singer_orbits(fib2, geo2):
    for ov in fib2.members:
        coeffs = fit_quadric(ov.pts, geo2)
        assert any(coeffs)


def test_fit_quadric_q2_enumerates_projective_classes(geo1):
    # an ovoid of PG(3,2) has 5 points, which leave the 10 coefficients a
    # nullspace of dimension 5: the fit walks its 31 projective classes
    from ovoidlab.gfield import ExtFieldCtx, nullspace
    from ovoidlab.fibration import singer_context, t_orbit_fibration
    from ovoidlab.ovoids import _MONOMIALS, _eval_quadric
    quadric = elliptic_quadric(geo1)
    orbits = t_orbit_fibration(singer_context(geo1, ExtFieldCtx.build(1)))
    for ov in (quadric,) + orbits.members:
        rows = [[geo1.ctx.mul(geo1.points[p].coords[i],
                              geo1.points[p].coords[j])
                 for i, j in _MONOMIALS] for p in ov.pts]
        assert len(nullspace(geo1.ctx, rows, 10)) == 5
        coeffs = fit_quadric(ov.pts, geo1)
        assert {p.index for p in geo1.points
                if _eval_quadric(geo1.ctx, coeffs, p.coords) == 0
                } == set(ov.pts)
    # the constructor's x0 x1 + x2^2 + x2 x3 + x3^2
    assert fit_quadric(quadric.pts, geo1) == (0, 1, 0, 0, 0, 0, 0, 1, 1, 1)


def test_w_ovoid_is_pg_ovoid(quadric2, geo2):
    # pairwise non-collinearity in W(q) forces the PG(3,q) ovoid property
    from ovoidlab.symplectic import isotropic_lines, polarity_from_ovoid
    f = polarity_from_ovoid(quadric2, geo2)
    for li in isotropic_lines(f, geo2):
        assert (geo2.lines[li].mask & quadric2.mask).bit_count() <= 1
    assert is_ovoid(quadric2.pts, geo2)
