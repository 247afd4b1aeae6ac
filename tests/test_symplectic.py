import pytest

from ovoidlab.errors import InvariantViolation, NoPolarity
from ovoidlab.gfield import mat_det
from ovoidlab.ovoids import Ovoid, tangent_lines
from ovoidlab.symplectic import (SymplecticForm, enumerate_dual_grids,
                                 is_isotropic_line, isotropic_lines, perp_line,
                                 polarity_from_ovoid, standard_form)


def test_standard_form_values(geo2):
    f = standard_form()
    e = [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)]
    assert f.eval(geo2, e[0], e[3]) == 1
    assert f.eval(geo2, e[0], e[1]) == 0
    for p in geo2.points:
        assert f.eval(geo2, p.coords, p.coords) == 0
    assert mat_det(geo2.ctx, f.gram) != 0


def test_isotropic_line_count_is_gq_line_count(geo2):
    # W(q) is a GQ of order (q,q): (q+1)(q^2+1) lines
    iso = isotropic_lines(standard_form(), geo2)
    assert len(iso) == 85


def test_isotropic_examples(geo2):
    f = standard_form()
    p12 = geo2.line_through(geo2.point_index[(1, 0, 0, 0)],
                            geo2.point_index[(0, 1, 0, 0)])
    p14 = geo2.line_through(geo2.point_index[(1, 0, 0, 0)],
                            geo2.point_index[(0, 0, 0, 1)])
    assert is_isotropic_line(p12, f, geo2)
    assert not is_isotropic_line(p14, f, geo2)


def test_perp_involution_all_lines_q4(geo2):
    f = standard_form()
    for ln in geo2.lines:
        mp = perp_line(ln, f, geo2)
        assert perp_line(mp, f, geo2).index == ln.index
        if is_isotropic_line(ln, f, geo2):
            assert mp.index == ln.index
        else:
            assert not mp.mask & ln.mask


def test_perp_line_degenerate_raises_typed_error(geo2):
    # an alternating form of rank 2 has a radical, whose points have no
    # perp plane; the check must survive python -O, so it is a raise, not
    # an assert
    degenerate = SymplecticForm(gram=(
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
    ))
    assert mat_det(geo2.ctx, degenerate.gram) == 0
    with pytest.raises(InvariantViolation):
        perp_line(geo2.lines[0], degenerate, geo2)


@pytest.mark.parametrize("fix,count", [("geo2", 136), ("geo3", 2080)])
def test_dual_grid_counts(fix, count, request):
    g = request.getfixturevalue(fix)
    grids = enumerate_dual_grids(standard_form(), g)
    # oracle: (total lines - isotropic lines) / 2
    iso = len(isotropic_lines(standard_form(), g))
    assert len(grids) == (len(g.lines) - iso) // 2 == count
    q = g.q
    for dg in grids[:50]:
        assert dg.m < dg.m_perp
        assert dg.point_mask(g).bit_count() == 2 * (q + 1)
        assert len(dg.points(g)) == 2 * (q + 1)


def test_polarity_from_elliptic_quadric(quadric2, geo2):
    f = polarity_from_ovoid(quadric2, geo2)
    iso = set(isotropic_lines(f, geo2))
    assert iso == set(tangent_lines(quadric2, geo2))
    assert len(iso) == 85


def test_polarity_from_tits_ovoid(tits3, geo3):
    f = polarity_from_ovoid(tits3, geo3)
    iso = set(isotropic_lines(f, geo3))
    assert iso == set(tangent_lines(tits3, geo3))
    assert len(iso) == 585


def test_polarity_rejects_non_ovoid(geo2):
    plane_pts = geo2.planes[0].pts
    fake = Ovoid.from_points(plane_pts[:17], "unknown")
    with pytest.raises(NoPolarity):
        polarity_from_ovoid(fake, geo2)


def test_polarity_is_functorial_under_collineation(quadric2, geo2, sc2):
    # moving the ovoid by a collineation conjugates its isotropic line set
    from ovoidlab.fibration import point_permutation
    from ovoidlab.ovoids import Ovoid
    perm = point_permutation(geo2, sc2.gen)
    moved = Ovoid.from_points([perm[p] for p in quadric2.pts], "unknown")
    f1 = polarity_from_ovoid(quadric2, geo2)
    f2 = polarity_from_ovoid(moved, geo2)
    iso1 = isotropic_lines(f1, geo2)
    iso2 = set(isotropic_lines(f2, geo2))
    for li in iso1:
        pts = geo2.lines[li].pts
        img = geo2.line_through(perm[pts[0]], perm[pts[1]]).index
        assert img in iso2


def test_tangent_secant_swap(quadric2, geo2):
    f = polarity_from_ovoid(quadric2, geo2)
    tset = set(tangent_lines(quadric2, geo2))
    for ln in geo2.lines:
        if ln.index in tset:
            continue
        mp = perp_line(ln, f, geo2)
        meets = {(ln.mask & quadric2.mask).bit_count(),
                 (mp.mask & quadric2.mask).bit_count()}
        assert meets == {0, 2}


def test_w_line_meets_dual_grid_in_0_or_2(quadric2, geo2):
    f = polarity_from_ovoid(quadric2, geo2)
    iso = isotropic_lines(f, geo2)
    grids = enumerate_dual_grids(f, geo2)
    for li in iso:
        lm = geo2.lines[li].mask
        for dg in grids:
            assert (lm & dg.point_mask(geo2)).bit_count() in (0, 2)


def test_dual_grid_sub_gq_structure(quadric2, geo2):
    # complete bipartite structure: every join of a point of m with a
    # point of m^perp is a W(q)-line, so each grid point lies on exactly
    # q+1 W(q)-lines meeting the grid's other line, each in one point
    f = polarity_from_ovoid(quadric2, geo2)
    iso = set(isotropic_lines(f, geo2))
    dg = enumerate_dual_grids(f, geo2)[0]
    m, mp = geo2.lines[dg.m], geo2.lines[dg.m_perp]
    for a, b in ((m, mp), (mp, m)):
        for p in a.pts:
            crossing = [li for li in geo2.point_to_lines[p]
                        if li in iso and geo2.lines[li].mask & b.mask]
            assert len(crossing) == geo2.q + 1
            for li in crossing:
                lm = geo2.lines[li].mask
                assert (lm & b.mask).bit_count() == 1
                assert (lm & a.mask).bit_count() == 1
