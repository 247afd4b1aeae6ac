"""The codes suite's T-module path against the GF(2) elimination it
replaces on T-invariant input, its guards, and the line permutation
kernel it reads.

The oracle for every counter is the BitMat elimination: the rank of C,
radical_codim_check on D and orthogonal(D, C), each on fresh matrices.
"""

import tracemalloc

import pytest

from ovoidlab import ExtFieldCtx, singer_context, t_orbit_fibration, verify
from ovoidlab.fibration import (Orbits, fibration_orbits, orbit_leaders,
                                trivial_orbits)
from ovoidlab.gf2code import (BitMat, code_C, code_D,
                              orthogonal, point_orbit_sums,
                              radical_codim_check, t_coordinates,
                              t_module_counters, t_module_dims)
from ovoidlab.projspace import line_permutation
from ovoidlab.symplectic import member_polarity, polar_lines
from ovoidlab.verify import verify_radical_and_corollary3

from kfibration import singer_k
from test_failure_branches import swapped_form


# tracemalloc's peak during the q = 8 codes suite, on a warm polar map,
# tangency table and orbit sums: 0.149 MiB measured (Python 3.11), 20 %
# headroom above it.  Building C, D and the grid list took it to 0.84 MiB.
# With the sigma sweep on one grid per T-orbit, and T's line orbits warm
# in place of the tangency table, it is 0.07-0.10 MiB.
CODES_PEAK_BUDGET_MIB = 0.18


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
    orbits = fibration_orbits(fib, g)
    for i in range(len(fib.members)):
        form = member_polarity(fib, i, g)
        fast = t_module_counters(polar_lines(form, g), orbits, sc)
        assert fast is not None, i
        c, d = code_C(form, g), code_D(form, g)
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
    assert len(orbit_leaders(tl, polar, iso)) == q + 1
    assert len(orbit_leaders(tl, polar, grid)) == q * q // 2


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
    coords = t_coordinates(fibration_orbits(fib, g).t_points, g.q ** 2 + 1)
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


def spied_codes(monkeypatch) -> list[str]:
    """The names of code_C, code_D and radical_codim_check, once per call
    the codes suite makes."""
    calls = []
    for name in ("code_C", "code_D", "radical_codim_check"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, _n=name, _f=real:
                            calls.append(_n) or _f(*a))
    return calls


def test_fast_path_taken_on_genuine_input(form2, sc2, fib2, monkeypatch):
    calls = spied_codes(monkeypatch)
    r = verify_radical_and_corollary3(form2, sc2)
    assert r.passed and calls == []
    # a declined fast path builds and eliminates each code once
    monkeypatch.setattr(verify, "t_module_counters", lambda *a: None)
    forced = verify_radical_and_corollary3(form2, sc2)
    assert forced.counters == r.counters
    assert sorted(calls) == ["code_C", "code_D", "radical_codim_check"]
    # a fast path that finds D outside C-perp builds both codes to look
    # for witnesses, and eliminates neither
    calls.clear()
    dims = t_module_counters(polar_lines(form2, sc2.geometry),
                             fibration_orbits(fib2, sc2.geometry), sc2)
    monkeypatch.setattr(verify, "t_module_counters",
                        lambda *a: dims[:3] + (False,))
    verify_radical_and_corollary3(form2, sc2)
    assert sorted(calls) == ["code_C", "code_D"]


def codes_suite_peak(sc):
    """The codes suite's report on member 0's polarity and the peak of
    tracemalloc while it runs, with the caches a full run fills before
    it warm."""
    g = sc.geometry
    fib = t_orbit_fibration(sc)
    form = member_polarity(fib, 0, g)
    polar_lines(form, g)
    fibration_orbits(fib, g).lines
    point_orbit_sums(sc)
    tracemalloc.start()
    try:
        rep = verify_radical_and_corollary3(form, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def test_codes_suite_working_set_q8(sc3):
    rep, peak = codes_suite_peak(sc3)
    assert rep.passed
    assert peak <= CODES_PEAK_BUDGET_MIB * 2 ** 20, \
        f"{peak / 2 ** 20:.3f} MiB"


def test_each_guard_declines_alone(form2, sc2, fib2, geo2):
    polar = polar_lines(form2, geo2)
    assert t_module_counters(polar, fibration_orbits(fib2, geo2),
                             sc2) is not None
    # 1: the orbits kept no T: the trivial group, a group without T, and
    # a singular t_gen
    singular = tuple((1, 0, 0, 0) for _ in range(4))
    for orbits in (trivial_orbits(fib2, geo2), Orbits(fib2, geo2, sc2.gen),
                   Orbits(fib2, geo2, sc2.gen, singular)):
        assert orbits.t_points is None
        assert t_module_counters(polar, orbits, sc2) is None
    # 2: T does not commute with the swapped form's polar map
    other = swapped_form(form2)
    oc, od = code_C(other, geo2), code_D(other, geo2)
    assert t_module_counters(polar_lines(other, geo2),
                             fibration_orbits(fib2, geo2), sc2) is None
    rep = verify_radical_and_corollary3(other, sc2)
    dim_d, dim_s, codim = radical_codim_check(
        BitMat(od.rows, width=od.width))
    assert (rep.counters["dim_D"], rep.counters["dim_pairwise_sum_span"],
            rep.counters["radical_codim"]) == (dim_d, dim_s, codim)
    assert rep.counters["dim_C"] == BitMat(oc.rows, width=oc.width).rank


def test_t_coordinates_need_point_cycles_of_length_q2_plus_1(sc2, geo2):
    # 3: the Singer generator's one cycle, or the identity's fixed points,
    # number no point as t^k(b_j) with k < q^2+1
    order = geo2.q ** 2 + 1
    assert t_coordinates(sc2.gen_perm, order) is None
    assert t_coordinates(range(geo2.n_points), order) is None
    coords = t_coordinates(sc2.t_perm, order)
    assert sorted(coords) == [(j, k) for j in range(geo2.q + 1)
                              for k in range(order)]
    for p, t in enumerate(sc2.t_perm):
        j, k = coords[p]
        assert coords[t] == (j, (k + 1) % order)
    assert [p for p, (_, k) in enumerate(coords) if k == 0] == [
        ov.pts[0] for ov in t_orbit_fibration(sc2).members]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("perm", ["t_perm", "k_perm", "gen_perm"])
def test_line_permutation_matches_mask_image(n, perm, request):
    sc = singer(n, request)
    g = sc.geometry
    p = singer_k(sc)[1] if perm == "k_perm" else getattr(sc, perm)
    oracle = [g.line_of[sum(1 << p[x] for x in ln.pts)] for ln in g.lines]
    got = line_permutation(g, p)
    assert got == oracle
    assert sorted(got) == list(range(len(g.lines)))
