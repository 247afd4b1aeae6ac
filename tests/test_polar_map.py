"""The polar-line map against the linear algebra it replaced.

The oracles below are the former implementations: a GF(q) nullspace solve
per line for l^perp, isotropy by evaluating the form on a line's two
generators, and the normal x G of the plane x^perp, normalized and looked
up by a scan of every plane.
"""

import random

import pytest

from ovoidlab import (ExtFieldCtx, build_geometry, elliptic_quadric,
                      singer_context, t_orbit_fibration, tits_ovoid)
from ovoidlab.errors import InvariantViolation, NoPolarity, NotAnOvoid
from ovoidlab.gfield import FieldCtx, nullspace
from ovoidlab.ovoids import Ovoid, tangent_lines
from ovoidlab.symplectic import (_UPPER, SymplecticForm, enumerate_dual_grids,
                                 isotropic_lines, member_polarity, perp_line,
                                 perp_planes, polar_lines, polarity_from_ovoid,
                                 tangent_nullspace)
from ovoidlab.verify import verify_main_theorem

from test_failure_branches import REPORTS as CORRUPTIONS, corrupted


def oracle_perp_normal(f, g, x) -> tuple[int, ...]:
    """Linear form y -> <x, y>, i.e. the normal of the plane x^perp."""
    mul = g.ctx.mul
    return tuple(
        mul(x[0], f.gram[0][j]) ^ mul(x[1], f.gram[1][j])
        ^ mul(x[2], f.gram[2][j]) ^ mul(x[3], f.gram[3][j])
        for j in range(4))


def oracle_perp_line(ln, f, g) -> int:
    u = g.points[ln.pts[0]].coords
    v = g.points[ln.pts[1]].coords
    basis = nullspace(g.ctx, [oracle_perp_normal(f, g, u),
                              oracle_perp_normal(f, g, v)], 4)
    assert len(basis) == 2
    return g.line_through(g.index_of(basis[0]), g.index_of(basis[1])).index


def oracle_is_isotropic(ln, f, g) -> bool:
    u = g.points[ln.pts[0]].coords
    v = g.points[ln.pts[1]].coords
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
    normal = g.normalize(oracle_perp_normal(f, g, g.points[x].coords))
    return next(pl.index for pl in g.planes if pl.normal == normal)


def assert_map_matches_oracles(f, g):
    iso = []
    for ln in g.lines:
        assert perp_line(ln, f, g).index == oracle_perp_line(ln, f, g)
        assert (polar_lines(f, g)[ln.index] == ln.index) \
            == oracle_is_isotropic(ln, f, g)
        if oracle_is_isotropic(ln, f, g):
            iso.append(ln.index)
    assert isotropic_lines(f, g) == iso
    assert [(dg.m, dg.m_perp) for dg in enumerate_dual_grids(f, g)] \
        == oracle_dual_grids(f, g)
    assert perp_planes(f, g) == [oracle_perp_plane(x, f, g)
                                 for x in range(g.n_points)]


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_standard_form_matches_oracles(fix, hyperbolic_form, request):
    assert_map_matches_oracles(hyperbolic_form, request.getfixturevalue(fix))


def test_every_t_orbit_polarity_q4_matches_oracles(fib2, geo2):
    assert len(fib2.members) == geo2.q + 1
    for member in fib2.members:
        assert_map_matches_oracles(polarity_from_ovoid(member, geo2), geo2)


@pytest.mark.parametrize("ovoid", [f"member{i}" for i in range(9)]
                         + ["quadric3", "tits3"])
def test_q8_polarities_match_oracles(ovoid, fib3, geo3, request):
    theta = (fib3.members[int(ovoid[6:])] if ovoid.startswith("member")
             else request.getfixturevalue(ovoid))
    assert_map_matches_oracles(polarity_from_ovoid(theta, geo3), geo3)


def test_map_is_memoized_per_form_and_geometry(form2, geo2,
                                               hyperbolic_form):
    assert polar_lines(form2, geo2) is polar_lines(form2, geo2)
    assert polar_lines(hyperbolic_form, geo2) \
        is not polar_lines(form2, geo2)


def test_meet_of_wrong_size_raises_typed_error(hyperbolic_form):
    # corrupt the plane indexed by a generator of line 0: polar_lines
    # meets the perp planes of each line's two generators, and one of
    # those meets now includes the corrupted plane and is no longer a line
    g = build_geometry(1)
    a, b = g.lines[0].pts[:2]
    pl = g.planes[a]
    x = (pl.mask & g.planes[b].mask).bit_length() - 1
    g.planes[a] = pl._replace(mask=pl.mask ^ 1 << x)
    with pytest.raises(InvariantViolation):
        polar_lines(hyperbolic_form, g)


# --- the polarity solve against the full tangent system ------------------

def tangent_rows(theta, g) -> list[tuple[int, ...]]:
    """One row per tangent line: the six free Gram entries' coefficients
    in <u, v> for the line's generators u, v."""
    mul = g.ctx.mul
    rows = []
    for li in tangent_lines(theta, g):
        u, v = (g.points[x].coords for x in g.lines[li].pts[:2])
        rows.append(tuple(mul(u[i], v[j]) ^ mul(u[j], v[i])
                          for (i, j) in _UPPER))
    return rows


def oracle_polarity(theta, g) -> SymplecticForm:
    """The former solve: one nullspace of every tangent row."""
    try:
        rows = tangent_rows(theta, g)
    except NotAnOvoid as exc:
        raise NoPolarity(f"input is not an ovoid: {exc}") from exc
    basis = nullspace(g.ctx, rows, 6)
    if len(basis) != 1:
        raise NoPolarity(f"tangent system has nullity {len(basis)}, want 1")
    gram = [[0] * 4 for _ in range(4)]
    for c, (i, j) in zip(g.normalize(basis[0]), _UPPER):
        gram[i][j] = c
        gram[j][i] = c
    if nullspace(g.ctx, gram, 4):
        raise NoPolarity("tangent system solution is degenerate")
    return SymplecticForm(tuple(tuple(r) for r in gram))


def outcome(solve, theta, g):
    """The Gram matrix, or the NoPolarity message."""
    try:
        return solve(theta, g).gram
    except NoPolarity as exc:
        return str(exc)


def random_cap(g, size: int, rng) -> list[int]:
    """Up to size points, no three collinear, added in random order."""
    order = list(range(g.n_points))
    rng.shuffle(order)
    pts, blocked = [], 0
    for p in order:
        if len(pts) == size:
            break
        if not blocked >> p & 1:
            for x in pts:
                blocked |= g.line_through(x, p).mask
            pts.append(p)
    return pts


def solve_inputs(n, request) -> dict:
    """Every T-orbit member, the elliptic quadric, Suzuki-Tits at odd
    n > 1, the members of the corrupted fibrations, one point (its
    tangents leave a 3-dimensional solution space), random caps and
    random sets of q^2+1 points."""
    g = request.getfixturevalue(f"geo{n}")
    fib = t_orbit_fibration(singer_context(g, ExtFieldCtx.build(n)))
    out = {f"member{i}": ov for i, ov in enumerate(fib.members)}
    out["quadric"] = elliptic_quadric(g)
    if n == 3:
        out["tits"] = tits_ovoid(g)
    for name in CORRUPTIONS:
        for i, ov in enumerate(corrupted(name, fib, g).members):
            out[f"{name}{i}"] = ov
    out["point"] = Ovoid.from_points([0])
    rng = random.Random(n)
    for k in range(40):
        size = rng.randrange(1, g.q * g.q + 2)
        out[f"cap{k}"] = Ovoid.from_points(random_cap(g, size, rng))
        out[f"set{k}"] = Ovoid.from_points(
            rng.sample(range(g.n_points), g.q * g.q + 1))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polarity_solve_matches_full_system(n, request):
    g = request.getfixturevalue(f"geo{n}")
    seen = set()
    for name, theta in solve_inputs(n, request).items():
        got = outcome(polarity_from_ovoid, theta, g)
        assert got == outcome(oracle_polarity, theta, g), name
        seen.add(got if isinstance(got, str) else "form")
    # the inputs reach every branch of the solve
    want = {"form", "tangent system has nullity 0, want 1",
            "tangent system solution is degenerate"}
    assert want <= seen
    assert "tangent system has nullity 3, want 1" in seen
    assert any(s.startswith("input is not an ovoid") for s in seen)


@pytest.mark.parametrize("n", [1, 2])
def test_tangent_nullspace_has_the_full_nullity(n, request):
    # the rows past rank 5 are checked, not eliminated: the nullity, and
    # the one solution when there is one, still match the full system
    g = request.getfixturevalue(f"geo{n}")
    rng = random.Random(10 + n)
    for _ in range(60):
        theta = Ovoid.from_points(random_cap(g, rng.randrange(1, 20), rng))
        full = nullspace(g.ctx, tangent_rows(theta, g), 6)
        got = tangent_nullspace(g, tangent_lines(theta, g))
        assert len(got) == len(full)
        if len(full) == 1:
            assert g.normalize(got[0]) == g.normalize(full[0])


# --- each form solved and mapped once per run ----------------------------

def test_main_sweep_multiplications_are_pinned(fib3, geo3, monkeypatch):
    # every member's solve and polar map at q = 8, counted on a cold
    # cache: 25,560 products, against 302,266 with the per-point
    # normalisation and the full tangent elimination
    member_polarity.cache_clear()
    polar_lines.cache_clear()
    calls = []
    real = FieldCtx.mul

    def counted(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul", counted)
    assert verify_main_theorem(fib3, geo3).passed
    assert len(calls) <= 30_000
