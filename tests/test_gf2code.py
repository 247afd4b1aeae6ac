import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoidlab.errors import EmptyMatrix, IndexOutOfRange, LengthMismatch
from ovoidlab.gf2code import (BitMat, char_vector, code_C, code_D, in_span,
                              orthogonal, radical_codim_check, span_rank,
                              t_orbit_sum)
from ovoidlab.symplectic import enumerate_dual_grids, standard_form

from test_failure_branches import swapped_form


def rank_oracle(rows, width):
    """Second, independent elimination: column-major forward sweep over
    explicit bit lists."""
    work = [[(r >> c) & 1 for c in range(width)] for r in rows]
    rank = 0
    row = 0
    for col in range(width):
        piv = next((r for r in range(row, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        for r in range(len(work)):
            if r != row and work[r][col]:
                work[r] = [a ^ b for a, b in zip(work[r], work[row])]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank


def sorted_insert_echelon(rows) -> list[tuple[int, int]]:
    """The former BitMat echelon, kept as an oracle: reduce each row by
    every pivot so far, insert it, re-sort by descending pivot."""
    ech: list[tuple[int, int]] = []
    for r in rows:
        for piv, val in ech:
            if (r >> piv) & 1:
                r ^= val
        if r:
            ech.append((r.bit_length() - 1, r))
            ech.sort(key=lambda t: -t[0])
    return ech


def oracle_reduce(ech, v: int) -> int:
    for piv, val in ech:
        if (v >> piv) & 1:
            v ^= val
    return v


def assert_echelon_matches_oracle(m: BitMat, probes=()) -> None:
    """Same rank and pivots as the oracle, the same reduced form of every
    probe (unique once the pivots are fixed), and a basis of the span."""
    ech = sorted_insert_echelon(m.rows)
    got = m._build_echelon()
    assert m.rank == len(ech)
    assert [p for p, _ in got] == [p for p, _ in ech]
    assert all(val.bit_length() - 1 == p for p, val in got)
    assert all(oracle_reduce(ech, val) == 0 for _, val in got)
    for v in list(probes) + m.rows:
        assert m.reduce(v) == oracle_reduce(ech, v)
        assert m.contains(v) == (oracle_reduce(ech, v) == 0)


@st.composite
def bitmats(draw, width=None):
    """A BitMat whose rows include XOR combinations of earlier rows, so
    the rank falls short of the row count, plus probe vectors in and out
    of the span."""
    if width is None:
        width = draw(st.integers(1, 80))
    vec = st.integers(0, (1 << width) - 1)
    base = draw(st.lists(vec, max_size=12))
    subsets = draw(st.lists(st.integers(0, (1 << len(base)) - 1),
                            max_size=12))
    combos = [0] * len(subsets)
    for i, s in enumerate(subsets):
        for k, r in enumerate(base):
            if s >> k & 1:
                combos[i] ^= r
    rows = draw(st.permutations(base + combos))
    probes = draw(st.lists(vec, max_size=6)) + combos
    return BitMat(rows, width=width), probes


@settings(max_examples=300, deadline=None)
@given(bitmats())
def test_echelon_matches_sorted_insert_oracle(case):
    m, probes = case
    assert_echelon_matches_oracle(m, probes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_code_echelons_match_sorted_insert_oracle(n, request):
    g = request.getfixturevalue(f"geo{n}")
    form = standard_form()
    c, d = code_C(form, g), code_D(form, g)
    sums = BitMat((d.rows[0] ^ r for r in d.rows[1:]), width=d.width)
    for m in (c, d, sums):
        assert_echelon_matches_oracle(m, c.rows[:5] + [g.all_one])


def pairwise_orthogonal(a: BitMat, b: BitMat) -> bool:
    """The generator-pair loop the basis test replaced."""
    return all((x & y).bit_count() % 2 == 0 for x in a.rows for y in b.rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda w: st.tuples(bitmats(w),
                                                      bitmats(w))))
def test_orthogonal_matches_pair_loop(pair):
    # narrow widths make orthogonal pairs common
    (a, _), (b, _) = pair
    assert orthogonal(a, b) == pairwise_orthogonal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthogonal_on_codes(n, request):
    g = request.getfixturevalue(f"geo{n}")
    form = standard_form()
    c, d = code_C(form, g), code_D(form, g)
    flipped = BitMat(d.rows[:-1] + [d.rows[-1] ^ 1], width=d.width)
    for a, b in ((d, c), (c, d), (d, code_C(swapped_form(form), g)),
                 (flipped, c)):
        assert orthogonal(a, b) == pairwise_orthogonal(a, b)
    assert orthogonal(d, c)
    assert not orthogonal(flipped, c)


def test_char_vector(geo2):
    assert char_vector([], geo2) == 0
    assert char_vector(range(85), geo2) == geo2.all_one
    v = char_vector([0, 3, 17], geo2)
    assert v.bit_count() == 3
    with pytest.raises(IndexOutOfRange):
        char_vector([85], geo2)


def test_char_vector_dual_grid_weight(form2, geo2):
    dg = enumerate_dual_grids(form2, geo2)[0]
    assert char_vector(dg.points(geo2), geo2).bit_count() == 10


def test_rank_basics():
    m = BitMat([0, 0], width=8)
    assert span_rank(m) == 0
    m = BitMat([0b1, 0b10, 0b11], width=8)
    assert span_rank(m) == 2
    m.append(0b1)  # duplicate row
    assert span_rank(m) == 2


def test_rank_against_oracle_random():
    rng = random.Random(3)
    for _ in range(30):
        width = rng.randrange(4, 40)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 25))]
        assert BitMat(rows, width=width).rank == rank_oracle(rows, width)


def test_rank_of_code_c_against_oracle(form2, geo2):
    c = code_C(form2, geo2)
    assert c.rank == rank_oracle(c.rows, geo2.n_points)


def test_in_span(geo2):
    m = BitMat([0b101, 0b011], width=4)
    assert in_span(0b101, m)
    assert in_span(0b101 ^ 0b011, m)
    assert not in_span(0b1000, m)
    with pytest.raises(LengthMismatch):
        in_span(0b10000, m)
    with pytest.raises(LengthMismatch):
        BitMat([0b10000], width=4)


@pytest.mark.parametrize("ffix,gfix,rows,weight", [
    ("form2", "geo2", 85, 5), ("form3", "geo3", 585, 9)])
def test_code_c_shape(ffix, gfix, rows, weight, request):
    form = request.getfixturevalue(ffix)
    g = request.getfixturevalue(gfix)
    c = code_C(form, g)
    assert len(c.rows) == rows
    assert all(r.bit_count() == weight for r in c.rows)
    # distinct W(q)-lines meet in 0 or 1 points (GQ axiom)
    for i in range(0, rows, 7):
        for j in range(i + 1, rows, 11):
            assert (c.rows[i] & c.rows[j]).bit_count() <= 1


@pytest.mark.parametrize("ffix,gfix,rows,weight", [
    ("form2", "geo2", 136, 10), ("form3", "geo3", 2080, 18)])
def test_code_d_shape(ffix, gfix, rows, weight, request):
    form = request.getfixturevalue(ffix)
    g = request.getfixturevalue(gfix)
    d = code_D(form, g)
    assert len(d.rows) == rows
    assert all(r.bit_count() == weight for r in d.rows)


def test_d_orthogonal_to_c(form2, geo2):
    c = code_C(form2, geo2)
    d = code_D(form2, geo2)
    for drow in d.rows:
        for crow in c.rows:
            assert (drow & crow).bit_count() % 2 == 0


@pytest.mark.parametrize("ffix,gfix", [("form2", "geo2"), ("form3", "geo3")])
def test_radical_codim_one(ffix, gfix, request):
    form = request.getfixturevalue(ffix)
    g = request.getfixturevalue(gfix)
    d = code_D(form, g)
    dim_d, dim_sum, codim = radical_codim_check(d)
    assert codim == 1
    assert dim_sum == dim_d - 1


def radical_oracle(rows, width) -> tuple[int, int, int]:
    """The former check: one elimination of D, one of the sums row0 + rowi."""
    dim_d = rank_oracle(rows, width)
    dim_sum = rank_oracle([rows[0] ^ r for r in rows[1:]], width)
    return dim_d, dim_sum, dim_d - dim_sum


@settings(max_examples=300, deadline=None)
@given(bitmats())
def test_radical_check_matches_two_eliminations(case):
    m, probes = case
    if not m.rows:
        return
    variants = [m.rows]
    if len(m.rows) >= 3:
        # row 0 the sum of rows 1 and 2 lies in the sum span: codim 0
        variants.append([m.rows[1] ^ m.rows[2]] + m.rows[1:])
    for rows in variants:
        d = BitMat(rows, width=m.width)
        assert radical_codim_check(d) == radical_oracle(rows, m.width)
        # the echelon the check leaves on D is one of D
        assert_echelon_matches_oracle(d, probes)


@pytest.mark.parametrize("rows, want", [
    ([0b01, 0b10, 0b11], (2, 2, 0)),
    ([0, 0b10], (1, 1, 0)),
    ([0b01], (1, 0, 1)),
    ([0b01, 0b01], (1, 0, 1)),
])
def test_radical_codim_small_cases(rows, want):
    assert radical_codim_check(BitMat(rows, width=2)) == want
    assert radical_oracle(rows, 2) == want


def test_radical_codim_empty():
    with pytest.raises(EmptyMatrix):
        radical_codim_check(BitMat([], width=4))


def test_no_dual_grid_in_sum_span(form2, geo2):
    d = code_D(form2, geo2)
    sums = BitMat((d.rows[0] ^ r for r in d.rows[1:]), width=d.width)
    for row in d.rows:
        assert not in_span(row, sums)


def test_strict_containment(form2, geo2):
    c = code_C(form2, geo2)
    d = code_D(form2, geo2)
    assert d.rank < geo2.n_points - c.rank


def test_t_orbit_sum_branches(sc2, fib2, spread2, geo2):
    members = set(spread2.lines)
    for ln in geo2.lines:
        s = t_orbit_sum(ln, sc2)
        if ln.index in members:
            assert s == geo2.all_one
        else:
            lbl = next(i for i, ov in enumerate(fib2.members)
                       if (ln.mask & ov.mask).bit_count() == 1)
            assert s == fib2.members[lbl].mask
            assert s.bit_count() == 17


def test_t_orbit_sum_matches_literal_walk(sc2, geo2):
    # oracle: apply the T permutation to the line's point set step by step
    for ln in (geo2.lines[0], geo2.lines[100], geo2.lines[356]):
        acc = 0
        cur = list(ln.pts)
        for _ in range(17):
            for p in cur:
                acc ^= 1 << p
            cur = [sc2.t_perm[p] for p in cur]
        assert acc == t_orbit_sum(ln, sc2)


def test_sigma_is_linear(sc2, geo2):
    l1, l2 = geo2.lines[0], geo2.lines[5]
    # sigma(char(l1) + char(l2)) computed pointwise
    from ovoidlab.gf2code import point_orbit_sums
    sums = point_orbit_sums(sc2)
    v = l1.mask ^ l2.mask
    sigma_v = 0
    for p in range(geo2.n_points):
        if (v >> p) & 1:
            sigma_v ^= sums[p]
    assert sigma_v == t_orbit_sum(l1, sc2) ^ t_orbit_sum(l2, sc2)


def test_sigma_of_c_generators(sc2, fib2, spread2, form2, geo2):
    # every generator of C maps to the all-one vector or a T-orbit vector;
    # recorded observation: which orbit arises per non-spread W(q)-line
    from ovoidlab.symplectic import isotropic_lines
    orbit_vecs = {ov.mask for ov in fib2.members}
    seen = set()
    for li in isotropic_lines(form2, geo2):
        s = t_orbit_sum(geo2.lines[li], sc2)
        assert s == geo2.all_one or s in orbit_vecs
        seen.add(s)
    assert geo2.all_one in seen


def test_sigma_of_dual_grid_weight(sc2, form2, fib2, geo2):
    # sigma(m + m_perp) = E_i + E_j with disjoint orbits: weight 2(q^2+1)
    for dg in enumerate_dual_grids(form2, geo2):
        s = (t_orbit_sum(geo2.lines[dg.m], sc2)
             ^ t_orbit_sum(geo2.lines[dg.m_perp], sc2))
        assert s.bit_count() == 2 * 17


def test_singer_context_hashes_by_identity(sc2):
    # point_orbit_sums caches on the context: an identity hash keeps each
    # lookup from hashing the three point permutations
    assert hash(sc2) == object.__hash__(sc2)


def orbit_sums_oracle(sc):
    """Per-point parity dict over the first q^2+1 iterates of t."""
    g = sc.geometry
    out = []
    for p in range(g.n_points):
        par = {}
        cur = p
        for _ in range(g.q * g.q + 1):
            par[cur] = par.get(cur, 0) ^ 1
            cur = sc.t_perm[cur]
        out.append(sum(1 << pt for pt, bit in par.items() if bit))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t_perm", ["genuine", "swapped", "identity",
                                    "two_cycle", "not_injective"])
def test_point_orbit_sums_match_parity_oracle(n, t_perm, request):
    # a corrupted t revisits points, so each bit must be a parity, not a
    # membership flag; in a 2-cycle one point is met q^2/2 + 1 times and
    # the other q^2/2 times.  A map that is no permutation sends a point
    # onto a cycle it is not on, which the walk from it never closes
    from ovoidlab import ExtFieldCtx, singer_context
    from ovoidlab.gf2code import point_orbit_sums
    g = request.getfixturevalue(f"geo{n}")
    sc = (request.getfixturevalue(f"sc{n}") if n > 1
          else singer_context(g, ExtFieldCtx.build(1)))
    perm = list(sc.t_perm)
    if t_perm == "swapped":
        perm[0], perm[1] = perm[1], perm[0]
    elif t_perm == "identity":
        perm = list(range(g.n_points))
    elif t_perm == "two_cycle":
        perm = [1, 0] + list(range(2, g.n_points))
    elif t_perm == "not_injective":
        perm[0] = perm[1]
    sc = dataclasses.replace(sc, t_perm=tuple(perm))
    assert point_orbit_sums(sc) == orbit_sums_oracle(sc)
