import random

import pytest

from ovoidlab.errors import ZeroElement, ZeroInverse
from ovoidlab.gfield import (ExtFieldCtx, FieldCtx, is_irreducible,
                             mat_identity, mat_mul, mat_pow, mult_matrix,
                             poly_mod, poly_mul)


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
        assert ctx.add(a, a) == 0
        assert ctx.add(a, 0) == a
        for b in ctx.elements():
            assert ctx.add(a, b) == ctx.add(b, a)


def test_t_plus_one_no_reduction():
    # n=2, modulus x^2+x+1: t + 1 has bitmask 0b11
    ctx = FieldCtx(2)
    assert ctx.modulus == 0b111
    assert ctx.add(0b10, 0b01) == 0b11


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


def test_degree_above_tables_rejected_before_modulus_test(monkeypatch):
    from ovoidlab import gfield

    def modulus_tested(p):
        raise AssertionError(f"is_irreducible({p:#x}) was called")

    monkeypatch.setattr(gfield, "is_irreducible", modulus_tested)
    with pytest.raises(ValueError, match="exceeds the largest tabled"):
        FieldCtx(41, (1 << 41) | 0b1001)
    with pytest.raises(ValueError, match="exceeds the largest tabled"):
        FieldCtx(17)


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


def test_basis_independent():
    # the coordinate solve succeeding on every element proves independence
    ext = ExtFieldCtx.build(2)
    for v in range(ext.big.size):
        c = ext.coords(v)
        acc = 0
        for ci, b in zip(c, ext.basis):
            acc ^= ext.big.mul(ext.embed(ci), b)
        assert acc == v


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
