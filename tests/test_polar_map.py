"""The polar-line map against the linear algebra it replaced.

The oracles below are the former implementations: a GF(q) nullspace solve
per line for l^perp, isotropy by evaluating the form on a line's two
generators, and a scan of every plane for the plane x^perp.
"""

import dataclasses

import pytest

from ovoidlab import build_geometry
from ovoidlab.errors import InvariantViolation
from ovoidlab.gfield import nullspace
from ovoidlab.symplectic import (enumerate_dual_grids, is_isotropic_line,
                                 isotropic_lines, perp_line, perp_plane,
                                 polar_lines, polarity_from_ovoid,
                                 standard_form)


def oracle_perp_line(ln, f, g) -> int:
    u = g.points[ln.gens[0]].coords
    v = g.points[ln.gens[1]].coords
    basis = nullspace(g.ctx, [f.point_perp_normal(g, u),
                              f.point_perp_normal(g, v)], 4)
    assert len(basis) == 2
    return g.line_through(g.index_of(basis[0]), g.index_of(basis[1])).index


def oracle_is_isotropic(ln, f, g) -> bool:
    u = g.points[ln.gens[0]].coords
    v = g.points[ln.gens[1]].coords
    return f.eval(g, u, v) == 0


def oracle_dual_grids(f, g) -> list[tuple[int, int]]:
    out = []
    seen = set()
    for ln in g.lines:
        if ln.index in seen or oracle_is_isotropic(ln, f, g):
            continue
        mp = oracle_perp_line(ln, f, g)
        seen.add(mp)
        out.append(tuple(sorted((ln.index, mp))))
    return out


def oracle_perp_plane(x, f, g) -> int:
    normal = g.normalize(f.point_perp_normal(g, g.points[x].coords))
    return next(pl.index for pl in g.planes if pl.normal == normal)


def assert_map_matches_oracles(f, g):
    iso = []
    for ln in g.lines:
        assert perp_line(ln, f, g).index == oracle_perp_line(ln, f, g)
        assert is_isotropic_line(ln, f, g) == oracle_is_isotropic(ln, f, g)
        if oracle_is_isotropic(ln, f, g):
            iso.append(ln.index)
    assert isotropic_lines(f, g) == iso
    assert [(dg.m, dg.m_perp) for dg in enumerate_dual_grids(f, g)] \
        == oracle_dual_grids(f, g)
    for x in range(g.n_points):
        assert perp_plane(x, f, g).index == oracle_perp_plane(x, f, g)


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_standard_form_matches_oracles(fix, request):
    assert_map_matches_oracles(standard_form(), request.getfixturevalue(fix))


def test_every_t_orbit_polarity_q4_matches_oracles(fib2, geo2):
    assert len(fib2.members) == geo2.q + 1
    for member in fib2.members:
        assert_map_matches_oracles(polarity_from_ovoid(member, geo2), geo2)


@pytest.mark.parametrize("ovoid", ["member0", "quadric3", "tits3"])
def test_q8_polarities_match_oracles(ovoid, fib3, geo3, request):
    theta = (fib3.members[0] if ovoid == "member0"
             else request.getfixturevalue(ovoid))
    assert_map_matches_oracles(polarity_from_ovoid(theta, geo3), geo3)


def test_map_is_memoized_per_form_and_geometry(form2, geo2):
    assert polar_lines(form2, geo2) is polar_lines(form2, geo2)
    assert polar_lines(standard_form(), geo2) \
        is not polar_lines(form2, geo2)


def test_meet_of_wrong_size_raises_typed_error():
    # corrupt one perp plane: the meet with another perp plane is no
    # longer a line
    g = build_geometry(1)
    x = g.lines[0].gens[0]
    pl = perp_plane(x, standard_form(), g)
    g.planes[pl.index] = dataclasses.replace(pl, mask=pl.mask ^ 1 << x)
    with pytest.raises(InvariantViolation):
        polar_lines(standard_form(), g)
