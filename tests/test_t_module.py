"""The codes suite's T-module path against the GF(2) elimination it
replaces on T-invariant input, its three guards, and the line
permutation kernel it reads.

The oracle for every counter is the BitMat elimination: the rank of C,
radical_codim_check on D and orthogonal(D, C), each on fresh matrices.
"""

import dataclasses

import pytest

from ovoidlab import ExtFieldCtx, singer_context, t_orbit_fibration, verify
from ovoidlab.gf2code import (BitMat, _t_orbit_leaders, code_C, code_D,
                              orthogonal, radical_codim_check, t_coordinates,
                              t_module_counters, t_module_dims)
from ovoidlab.projspace import line_permutation
from ovoidlab.symplectic import member_polarity, polar_lines
from ovoidlab.verify import verify_radical_and_corollary3

from test_failure_branches import (SINGER_REPORTS, assert_pinned,
                                   singer_report, swapped_form, swapped_t)


@pytest.fixture(scope="module")
def sc1(geo1):
    return singer_context(geo1, ExtFieldCtx.build(1))


def singer(n, request):
    return request.getfixturevalue(f"sc{n}")


def oracle_counters(c_rows, d_rows, width) -> tuple[int, int, int, bool]:
    c = BitMat(c_rows, width=width)
    d = BitMat(d_rows, width=width)
    dim_d, dim_s, _ = radical_codim_check(d)
    return c.rank, dim_d, dim_s, orthogonal(d, c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_module_matches_elimination_on_every_member(n, request):
    sc = singer(n, request)
    g = sc.geometry
    fib = t_orbit_fibration(sc)
    for i in range(len(fib.members)):
        form = member_polarity(fib, i, g)
        c, d = code_C(form, g), code_D(form, g)
        fast = t_module_counters(form, sc, fib, c, d)
        assert fast is not None, i
        assert fast == oracle_counters(c.rows, d.rows, g.n_points), i
        assert fast[3] and fast[1] - fast[2] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_generator_per_t_orbit(n, request):
    # T acts on the (q+1)(q^2+1) W(q)-lines and the q^2(q^2+1)/2 dual
    # grids with orbits of length q^2+1, and a dual grid's orbit holds the
    # polars of its lines
    sc = singer(n, request)
    g = sc.geometry
    q = g.q
    polar = polar_lines(member_polarity(t_orbit_fibration(sc), 0, g), g)
    tl = line_permutation(g, sc.t_perm)
    iso = [i for i, j in enumerate(polar) if i == j]
    grid = [i for i, j in enumerate(polar) if i < j]
    assert len(_t_orbit_leaders(tl, polar, iso)) == q + 1
    assert len(_t_orbit_leaders(tl, polar, grid)) == q * q // 2


def t_orbits(lines, tl, partner) -> list[list[int]]:
    """The T-orbits of the given lines, a line's partner counted in its
    orbit; each orbit lists its lines from its least one."""
    seen = set()
    out = []
    for li in sorted(lines):
        if li in seen:
            continue
        orbit = []
        while li not in seen:
            seen.update((li, partner[li]))
            orbit.append(li)
            li = tl[li]
        out.append(orbit)
    return out


def invariant_row_sets(form, sc):
    """(C generators, C rows, D generators, D rows) of the paper's codes,
    spelled out orbit by orbit, the T-orbit of a non-isotropic line for
    the variants to add, and the point tuples and masks of all lines."""
    g = sc.geometry
    polar = polar_lines(form, g)
    tl = line_permutation(g, sc.t_perm)
    ident = list(range(len(polar)))
    pts = [ln.pts for ln in g.lines]
    masks = [ln.mask for ln in g.lines]
    iso = [i for i, j in enumerate(polar) if i == j]
    grid = [i for i, j in enumerate(polar) if i < j]
    c_orbits = t_orbits(iso, tl, ident)
    d_orbits = t_orbits(grid, tl, polar)
    c_gens = [pts[o[0]] for o in c_orbits]
    d_gens = [pts[o[0]] + pts[polar[o[0]]] for o in d_orbits]
    c_rows = [masks[i] for o in c_orbits for i in o]
    d_rows = [masks[i] | masks[polar[i]] for o in d_orbits for i in o]
    extra = t_orbits([grid[0]], tl, ident)[0]
    return c_gens, c_rows, d_gens, d_rows, extra, pts, masks


VARIANTS = ["genuine", "D_plus_line_orbit", "C_plus_line_orbit",
            "D_plus_C", "C_first_orbit"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_t_module_matches_elimination_on_invariant_row_sets(n, variant,
                                                            request):
    # the variants are T-invariant row sets that are not the paper's
    # codes, so a kernel that answers from the genuine structure fails
    sc = singer(n, request)
    g = sc.geometry
    fib = t_orbit_fibration(sc)
    form = member_polarity(fib, 0, g)
    coords = t_coordinates(sc, fib)
    c_gens, c_rows, d_gens, d_rows, extra, pts, masks = \
        invariant_row_sets(form, sc)
    genuine = oracle_counters(c_rows, d_rows, g.n_points)
    if variant == "D_plus_line_orbit":
        d_gens = d_gens + [pts[extra[0]]]
        d_rows = d_rows + [masks[i] for i in extra]
    elif variant == "C_plus_line_orbit":
        c_gens = c_gens + [pts[extra[0]]]
        c_rows = c_rows + [masks[i] for i in extra]
    elif variant == "D_plus_C":
        d_gens, d_rows = d_gens + c_gens, d_rows + c_rows
    elif variant == "C_first_orbit":
        per = len(c_rows) // len(c_gens)
        c_gens, c_rows = c_gens[:1], c_rows[:per]
    want = oracle_counters(c_rows, d_rows, g.n_points)
    assert t_module_dims(sc, coords, c_gens, d_gens) == want
    if variant == "genuine":
        assert want[3]
    else:
        assert want[:3] != genuine[:3]
    if "_plus_" in variant:
        assert not want[3]


def test_fast_path_taken_on_genuine_input(form2, sc2, monkeypatch):
    calls = []
    real = verify.radical_codim_check
    monkeypatch.setattr(verify, "radical_codim_check",
                        lambda d: calls.append(d) or real(d))
    r = verify_radical_and_corollary3(form2, sc2)
    assert r.passed and calls == []


@pytest.mark.parametrize("key", ["codes/C_of_swapped_form",
                                 "codes/D_row0_bit0_flipped"])
def test_fast_path_declined_on_corrupted_codes(key, form2, sc2, monkeypatch):
    calls = []
    real = verify.radical_codim_check
    monkeypatch.setattr(verify, "radical_codim_check",
                        lambda d: calls.append(d) or real(d))
    assert_pinned(singer_report(key, sc2, form2, monkeypatch),
                  SINGER_REPORTS[key])
    assert len(calls) == 1


def test_each_guard_declines_alone(form2, sc2, fib2, geo2):
    c, d = code_C(form2, geo2), code_D(form2, geo2)
    assert t_module_counters(form2, sc2, fib2, c, d) is not None
    # 1: t_perm is not t_gen's permutation, or t_gen is singular
    assert t_coordinates(swapped_t(sc2, 0, 1), fib2) is None
    singular = tuple((1, 0, 0, 0) for _ in range(4))
    assert t_coordinates(dataclasses.replace(sc2, t_gen=singular),
                         fib2) is None
    # 2: rows that are not the form's, in order
    assert t_module_counters(form2, sc2, fib2, c,
                             BitMat(d.rows[::-1], width=d.width)) is None
    # 3: the swapped form's own codes pass guard 2, but T does not
    # preserve that form
    other = swapped_form(form2)
    oc, od = code_C(other, geo2), code_D(other, geo2)
    assert t_coordinates(sc2, fib2) is not None
    assert t_module_counters(other, sc2, fib2, oc, od) is None
    rep = verify_radical_and_corollary3(other, sc2)
    dim_d, dim_s, codim = radical_codim_check(
        BitMat(od.rows, width=od.width))
    assert (rep.counters["dim_D"], rep.counters["dim_pairwise_sum_span"],
            rep.counters["radical_codim"]) == (dim_d, dim_s, codim)
    assert rep.counters["dim_C"] == BitMat(oc.rows, width=oc.width).rank


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("perm", ["t_perm", "k_perm", "gen_perm"])
def test_line_permutation_matches_mask_image(n, perm, request):
    sc = singer(n, request)
    g = sc.geometry
    p = getattr(sc, perm)
    oracle = [g.line_of[sum(1 << p[x] for x in ln.pts)] for ln in g.lines]
    got = line_permutation(g, p)
    assert got == oracle
    assert sorted(got) == list(range(len(g.lines)))
