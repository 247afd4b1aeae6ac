import random
import tracemalloc
from array import array
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovoidlab import gfield
from ovoidlab.errors import ZeroElement, ZeroInverse
from ovoidlab.gfield import (MODULI, ExtFieldCtx, FieldCtx, echelon,
                             mat_identity, mat_mul, mult_matrix, nullspace)


def poly_mod(a, m):
    """Remainder of a modulo m over GF(2)."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def is_irreducible(p):
    """Trial division by every lower-degree polynomial up to deg(p)/2."""
    deg = p.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(p, q) == 0:
                return False
    return True


# schoolbook oracle: multiply polynomials term by term, then reduce
def schoolbook_mul(a, b, modulus):
    prod = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    prod ^= 1 << (i + j)
    return poly_mod(prod, modulus)


def test_addition_axioms_gf4():
    ctx = FieldCtx(2)
    for a in ctx.elements():
        assert a ^ a == 0
        assert a ^ 0 == a
        for b in ctx.elements():
            assert a ^ b == b ^ a


def test_t_plus_one_no_reduction():
    # n=2, modulus x^2+x+1: t + 1 has bitmask 0b11
    ctx = FieldCtx(2)
    assert ctx.modulus == 0b111
    assert 0b10 ^ 0b01 == 0b11


def test_mul_against_schoolbook_gf4():
    ctx = FieldCtx(2)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == schoolbook_mul(a, b, ctx.modulus)
    # t * t = t + 1 mod x^2+x+1
    assert ctx.mul(0b10, 0b10) == 0b11


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mul_against_schoolbook_exhaustive(n):
    ctx = FieldCtx(n)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == schoolbook_mul(a, b, ctx.modulus)


def test_mul_identity_and_inverse_axiom():
    ctx = FieldCtx(3)
    for a in ctx.elements():
        assert ctx.mul(a, 1) == a
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.inv(ctx.inv(a)) == a


def test_inv_gf4_by_exhaustive_search():
    ctx = FieldCtx(2)
    assert ctx.inv(1) == 1
    for a in range(1, 4):
        # oracle: the unique b with a*b = 1, found by scanning all products
        oracle = [b for b in range(1, 4)
                  if schoolbook_mul(a, b, ctx.modulus) == 1]
        assert oracle == [ctx.inv(a)]
    assert ctx.inv(0b10) == 0b11  # t -> t+1


def test_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        FieldCtx(2).inv(0)


def test_pow_of_zero():
    ctx = FieldCtx(3)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    for e in (-1, -7):
        with pytest.raises(ZeroInverse):
            ctx.pow(0, e)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_distributivity_exhaustive(n):
    ctx = FieldCtx(n)
    for a in ctx.elements():
        for b in ctx.elements():
            for c in ctx.elements():
                assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_distributivity_randomized_n4():
    ctx = FieldCtx(4)
    rng = random.Random(0)
    for _ in range(10 ** 4):
        a, b, c = (rng.randrange(ctx.size) for _ in range(3))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frobenius_is_automorphism_fixing_gf2(n):
    ctx = FieldCtx(n)
    fixed = [a for a in ctx.elements() if ctx.mul(a, a) == a]
    assert fixed == [0, 1]
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a ^ b, a ^ b) == ctx.mul(a, a) ^ ctx.mul(b, b)
            assert ctx.mul(ctx.mul(a, b), ctx.mul(a, b)) == \
                ctx.mul(ctx.mul(a, a), ctx.mul(b, b))


def test_generator_has_full_order():
    for n in (1, 2, 3, 4):
        ctx = FieldCtx(n)
        seen = set()
        x = 1
        for _ in range(ctx.size - 1):
            seen.add(x)
            x = ctx.mul(x, ctx.generator)
        assert x == 1
        assert len(seen) == ctx.size - 1


def test_modulus_table_irreducible():
    from ovoidlab.gfield import MODULI
    for deg, m in MODULI.items():
        assert m.bit_length() - 1 == deg
        assert is_irreducible(m)


def test_moduli_cover_exactly_the_supported_degrees():
    from ovoidlab.gfield import MODULI
    assert set(MODULI) == {d for n in range(1, 5) for d in (n, 4 * n)}


def test_largest_extension_is_tabled():
    ext = ExtFieldCtx.build(4)
    assert (ext.base.size, ext.big.size) == (16, 1 << 16)
    for ctx in (ext.base, ext.big):
        assert len(ctx.log) == ctx.size
        assert len(ctx.exp) == 2 * (ctx.size - 1)
        rng = random.Random(ctx.n)
        for _ in range(200):
            a, b = rng.randrange(1, ctx.size), rng.randrange(1, ctx.size)
            assert ctx.mul(a, b) == schoolbook_mul(a, b, ctx.modulus)
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.pow(a, ctx.size - 1) == 1


# tracemalloc's current size after ExtFieldCtx.build(3): 0.029 MiB
# measured (Python 3.11), 20 % headroom above it.  List tables kept
# 0.33 MiB.
EXT_BUILD_BUDGET_MIB = 0.035


def ext_build_size(n: int):
    """ExtFieldCtx.build(n) and the bytes tracemalloc sees it keep."""
    tracemalloc.start()
    try:
        ext = ExtFieldCtx.build(n)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for ctx in (ext.base, ext.big):
        for table in (ctx.exp, ctx.log):
            assert isinstance(table, array) and table.typecode == "H"
    return ext, current


def test_ext_build_keeps_two_byte_tables_q8():
    _, current = ext_build_size(3)
    assert current <= EXT_BUILD_BUDGET_MIB * 2 ** 20, \
        f"{current / 2 ** 20:.3f} MiB"


def test_gf2_tables_are_arrays():
    ctx = FieldCtx(1)
    assert (ctx.generator, list(ctx.exp), list(ctx.log)) == (1, [1, 1], [0, 0])
    assert ctx.exp.typecode == ctx.log.typecode == "H"


def test_degree_above_tables_rejected_before_modulus_test():
    with pytest.raises(ValueError, match="exceeds the largest tabled"):
        FieldCtx(41)
    with pytest.raises(ValueError, match="exceeds the largest tabled"):
        FieldCtx(17)
    with pytest.raises(ValueError, match="no built-in modulus for degree 5"):
        FieldCtx(5)


def searched_tables(n):
    """The least primitive element of GF(2^n) modulo MODULI[n] with its
    exp (doubled) and log tables, found by trying each candidate's powers
    by schoolbook multiplication."""
    size = 1 << n
    order = size - 1
    for g in range(1, size):
        exp, log = [0] * (2 * order), [0] * size
        x = 1
        for i in range(order):
            if x == 1 and i > 0:
                break
            exp[i] = x
            log[x] = i
            x = schoolbook_mul(x, g, MODULI[n])
        else:
            exp[order:] = exp[:order]
            return g, exp, log


@pytest.mark.parametrize("n", sorted(MODULI))
def test_tables_equal_the_least_primitive_element_search(n):
    ctx = FieldCtx(n)
    assert (ctx.generator, list(ctx.exp), list(ctx.log)) == searched_tables(n)
    assert ctx.generator == (1 if n == 1 else 2)


@pytest.mark.parametrize("n, modulus", [
    (4, 0b11111),      # x^4+x^3+x^2+x+1: irreducible, x has order 5
    (4, 0b10001),      # x^4+1 = (x+1)^4: x has order 4
    (4, 0b10010),      # x^4+x: x is a zero divisor and never returns to 1
    (3, 0b1001),       # x^3+1 = (x+1)(x^2+x+1): x has order 3
])
def test_non_primitive_modulus_rejected(n, modulus, monkeypatch):
    monkeypatch.setitem(MODULI, n, modulus)
    with pytest.raises(ValueError, match=f"not primitive modulo {modulus:#x}"):
        FieldCtx(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subfield_embed_is_field_hom(n):
    ext = ExtFieldCtx.build(n)
    emb = ext.embed
    assert emb(0) == 0
    assert emb(1) == 1
    for a in ext.base.elements():
        for b in ext.base.elements():
            assert emb(a ^ b) == emb(a) ^ emb(b)
            assert emb(ext.base.mul(a, b)) == ext.big.mul(emb(a), emb(b))


@pytest.mark.parametrize("n", [1, 2])
def test_subfield_image_is_fixed_field(n):
    # image of the embedding = all x in GF(2^{4n}) with x^(2^n) = x
    ext = ExtFieldCtx.build(n)
    image = {ext.embed(a) for a in ext.base.elements()}
    fixed = {x for x in ext.big.elements()
             if ext.big.pow(x, ext.base.size) == x}
    assert image == fixed


def test_subfield_image_sampled_n3():
    ext = ExtFieldCtx.build(3)
    image = {ext.embed(a) for a in ext.base.elements()}
    rng = random.Random(1)
    for x in rng.sample(range(ext.big.size), 500):
        assert (x in image) == (ext.big.pow(x, ext.base.size) == x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_independent(n):
    # the coordinate solve succeeding on every element proves independence
    ext = ExtFieldCtx.build(n)
    for v in range(ext.big.size):
        c = ext.coords(v)
        acc = 0
        for ci, b in zip(c, ext.basis):
            acc ^= ext.big.mul(ext.embed(ci), b)
        assert acc == v


def test_coords_rejects_non_elements():
    ext = ExtFieldCtx.build(1)
    for v in (-1, ext.big.size):
        with pytest.raises(ValueError, match="outside column span"):
            ext.coords(v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_rejects_non_elements(n):
    ext = ExtFieldCtx.build(n)
    for a in (-1, ext.base.size, ext.base.size + 1):
        with pytest.raises(ValueError, match="outside the base field"):
            ext.embed(a)


def test_dependent_columns_rejected(monkeypatch):
    # a second solution of the homogeneous system means the columns
    # x^k * w^i are GF(2)-dependent
    real = gfield.nullspace

    def one_more(ctx, rows, ncols):
        return real(ctx, rows, ncols) + [(1,) * ncols]

    monkeypatch.setattr(gfield, "nullspace", one_more)
    with pytest.raises(ValueError, match="GF\\(2\\)-dependent"):
        ExtFieldCtx.build(2)


def test_mult_matrix_identity_and_homomorphism():
    ext = ExtFieldCtx.build(2)
    assert mult_matrix(1, ext) == mat_identity()
    rng = random.Random(2)
    for _ in range(50):
        a = rng.randrange(1, ext.big.size)
        b = rng.randrange(1, ext.big.size)
        mab = mult_matrix(ext.big.mul(a, b), ext)
        assert mab == mat_mul(ext.base, mult_matrix(a, ext),
                              mult_matrix(b, ext))
    a = rng.randrange(1, ext.big.size)
    prod = mat_mul(ext.base, mult_matrix(a, ext),
                   mult_matrix(ext.big.inv(a), ext))
    assert prod == mat_identity()


def test_mult_matrix_zero_raises():
    with pytest.raises(ZeroElement):
        mult_matrix(0, ExtFieldCtx.build(1))


def test_singer_matrix_projective_order(geo2, ext2):
    # order of M(omega) on PG(3,4) points is (q^2+1)(q+1) = 85
    from ovoidlab.fibration import point_permutation
    m = mult_matrix(ext2.omega, ext2)
    perm = point_permutation(geo2, m)
    cur, k = perm[0], 1
    while cur != 0:
        cur = perm[cur]
        k += 1
    assert k == 85


# -- field axioms over every tabled degree ---------------------------------

@lru_cache(maxsize=None)
def field_of(n: int) -> FieldCtx:
    return FieldCtx(n)


def elements_of(n: int):
    return st.integers(0, (1 << n) - 1)


DEGREES = sorted(MODULI)


@pytest.mark.parametrize("n", DEGREES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_mul_matches_schoolbook_product(n, data):
    ctx = field_of(n)
    a, b = data.draw(elements_of(n)), data.draw(elements_of(n))
    assert ctx.mul(a, b) == schoolbook_mul(a, b, ctx.modulus)


@pytest.mark.parametrize("n", DEGREES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_field_axioms(n, data):
    ctx = field_of(n)
    a, b, c = (data.draw(elements_of(n)) for _ in range(3))
    mul = ctx.mul
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    if a:
        assert mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("n", DEGREES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_exp_log_round_trip(n, data):
    ctx = field_of(n)
    a = data.draw(st.integers(1, ctx.size - 1))
    i = data.draw(st.integers(0, ctx.size - 2))
    assert ctx.exp[ctx.log[a]] == a
    assert ctx.log[ctx.exp[i]] == i
    assert ctx.exp[i + ctx.size - 1] == ctx.exp[i]


# -- the elimination kernel against the former Gauss-Jordan nullspace ------

def gauss_jordan_nullspace(ctx, rows, ncols):
    """The former nullspace, kept as an oracle: column-by-column
    Gauss-Jordan through ctx.mul and ctx.inv."""
    work = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        inv = ctx.inv(work[row][col])
        work[row] = [ctx.mul(inv, x) for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                f = work[r][col]
                work[r] = [a ^ ctx.mul(f, b) for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = work[r][fc]
        basis.append(tuple(vec))
    return basis


def random_matrix(ctx, rng):
    """Rows drawn from a span of random rank, with zero rows, repeated
    rows and zero columns mixed in."""
    ncols = rng.randint(1, 7)
    rank = rng.randint(0, ncols)
    gens = [[rng.randrange(ctx.size) for _ in range(ncols)]
            for _ in range(rank)]
    dead = rng.randrange(ncols)
    for g in gens:
        if rng.random() < 0.3:
            g[dead] = 0
    rows = []
    for _ in range(rng.randint(0, 9)):
        pick = rng.random()
        if pick < 0.15 or not gens:
            rows.append([0] * ncols)
        elif pick < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            row = [0] * ncols
            for g in gens:
                c = rng.randrange(ctx.size)
                row = [x ^ ctx.mul(c, y) for x, y in zip(row, g)]
            rows.append(row)
    return rows, ncols


@pytest.mark.parametrize("n", DEGREES)
def test_kernel_matches_gauss_jordan_oracle(n):
    ctx = field_of(n)
    rng = random.Random(n)
    for _ in range(150):
        rows, ncols = random_matrix(ctx, rng)
        want = gauss_jordan_nullspace(ctx, rows, ncols)
        assert nullspace(ctx, rows, ncols) == want
        pairs = echelon(ctx, rows)
        assert len(pairs) == ncols - len(want)
        for k, (col, prow) in enumerate(pairs):
            assert prow[col] == 1
            assert not any(prow[c] for c, _ in pairs[:k])


def counted(rows, pulled):
    for row in rows:
        pulled.append(row)
        yield row


@pytest.mark.parametrize("n", [1, 3, 16])
def test_echelon_reads_no_row_after_rank_reaches_stop(n):
    ctx = field_of(n)
    rng = random.Random(100 + n)
    for _ in range(50):
        ncols = rng.randint(1, 6)
        rows = [[rng.randrange(ctx.size) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(12)]
        ranks = [ncols - len(gauss_jordan_nullspace(ctx, rows[:i], ncols))
                 for i in range(1, len(rows) + 1)]
        for stop in (None, *range(1, ncols + 1)):
            want = stop or ncols
            # rows read: up to the first prefix of rank want, else all
            reach = next((i + 1 for i, r in enumerate(ranks) if r == want),
                         len(rows))
            pulled: list = []
            it = iter(rows)
            pairs = echelon(ctx, counted(it, pulled), stop)
            assert len(pulled) == reach
            assert len(pairs) == min(want, ranks[-1])
            assert list(it) == rows[reach:]
