"""Arithmetic in GF(2^n) and GF(2^{4n}) with polynomial-basis bitmask elements.

Field elements are plain Python ints interpreted as GF(2)-coefficient
bitmasks (bit k = coefficient of x^k).  A FieldCtx fixes the modulus and
supplies all arithmetic; contexts are immutable after construction, so
every operation here is a pure function.
"""

from __future__ import annotations

from array import array
from functools import reduce
from typing import NamedTuple

from .errors import ZeroElement, ZeroInverse

# One irreducible polynomial per degree needed: n in 1..4 and 4n in 4..16.
# Fixed so that every downstream point/line index is reproducible.
MODULI = {
    1: 0b11,            # x + 1
    2: 0b111,           # x^2 + x + 1
    3: 0b1011,          # x^3 + x + 1
    4: 0b10011,         # x^4 + x + 1
    8: 0x11D,           # x^8 + x^4 + x^3 + x^2 + 1
    12: 0x1053,         # x^12 + x^6 + x^4 + x + 1
    16: 0x1100B,        # x^16 + x^12 + x^3 + x + 1
}

# 2^n two-byte exp/log entries each; GF(2^16) is the largest field needed
MAX_DEGREE = max(MODULI)


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m over GF(2)."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    return res


def poly_mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(poly_mul(a, b), m)


def is_irreducible(p: int) -> bool:
    """Trial division by every lower-degree polynomial up to deg(p)/2."""
    deg = poly_degree(p)
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(p, q) == 0:
                return False
    return True


class FieldCtx:
    """GF(2^n) with a fixed irreducible modulus, a primitive element and
    exp/log tables for its multiplicative group (n <= MAX_DEGREE)."""

    def __init__(self, n: int, modulus: int | None = None):
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the largest tabled "
                             f"degree {MAX_DEGREE}")
        if modulus is None:
            if n not in MODULI:
                raise ValueError(f"no built-in modulus for degree {n}")
            modulus = MODULI[n]
        if poly_degree(modulus) != n:
            raise ValueError("modulus degree mismatch")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.n = n
        self.modulus = modulus
        self.size = 1 << n
        self.generator, self.exp, self.log = self._tables()

    def _tables(self) -> tuple[int, array, array]:
        """The least primitive element with its exp table (doubled, so a
        sum of two logs needs no reduction) and log table, as arrays of
        2-byte entries filled in place."""
        order = self.size - 1
        exp = array("H", bytes(4 * order))
        log = array("H", bytes(2 * self.size))
        for g in range(1, self.size):
            x = 1
            for i in range(order):
                if x == 1 and i > 0:
                    break
                exp[i] = x
                log[x] = i
                x = poly_mulmod(x, g, self.modulus)
            else:
                # no earlier return to 1: g generates the group
                exp[order:] = exp[:order]
                return g, exp, log

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.exp[(self.size - 1) - self.log[a]] if self.log[a] else 1

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroInverse("0 has no multiplicative inverse")
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.size - 1)]

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#x})"


# the prime field, over which extension-field coordinates are solved
_GF2 = FieldCtx(1)


class ExtFieldCtx(NamedTuple):
    """GF(2^n) inside GF(2^{4n}) with the basis {1, w, w^2, w^3} of the
    big field over the small one, w the big field's primitive element."""

    base: FieldCtx
    big: FieldCtx
    root: int                      # image of the base field's x in the big field
    embed_pows: tuple[int, ...]    # root^0 .. root^(n-1)
    omega: int
    basis: tuple[int, int, int, int]

    @staticmethod
    def build(n: int) -> "ExtFieldCtx":
        base = FieldCtx(n)
        big = FieldCtx(4 * n)
        # locate the unique subfield of order 2^n: powers of s plus 0
        step = (big.size - 1) // (base.size - 1)
        sub = sorted({big.pow(big.generator, step * k)
                      for k in range(base.size - 1)} | {0})
        # embed by sending the base field's x to a root of the base modulus
        root = None
        for cand in sub:
            acc = 0
            for k in range(n + 1):
                if (base.modulus >> k) & 1:
                    acc ^= big.pow(cand, k)
            if acc == 0:
                root = cand
                break
        if root is None:
            raise ValueError("base modulus has no root in the big field")
        pows = [1]
        for _ in range(n - 1):
            pows.append(big.mul(pows[-1], root))
        omega = big.generator
        basis = tuple(big.pow(omega, i) for i in range(4))
        ext = ExtFieldCtx(base=base, big=big, root=root,
                          embed_pows=tuple(pows), omega=omega, basis=basis)
        if len(ext._solutions(0)) != 1:
            raise ValueError("columns are GF(2)-dependent")
        return ext

    def embed(self, a: int) -> int:
        """Field homomorphism GF(2^n) -> GF(2^{4n})."""
        if not 0 <= a < self.base.size:
            raise ValueError("element outside the base field")
        acc = 0
        for k in range(self.base.n):
            if (a >> k) & 1:
                acc ^= self.embed_pows[k]
        return acc

    def _solutions(self, v: int) -> list[tuple[int, ...]]:
        """GF(2) nullspace of the columns x^k * w^i (column i*n + k) of the
        big field's bits with v appended.  Independent columns span the
        big field, so it is then one vector: v's coordinates, then a 1."""
        cols = [self.big.mul(x, b)
                for b in self.basis for x in self.embed_pows] + [v]
        rows = [[c >> bit & 1 for c in cols] for bit in range(self.big.n)]
        return nullspace(_GF2, rows, len(cols))

    def coords(self, v: int) -> tuple[int, int, int, int]:
        """Coordinates of v in the basis {1, w, w^2, w^3} over GF(q)."""
        if not 0 <= v < self.big.size:
            raise ValueError("vector outside column span")
        n = self.base.n
        x = self._solutions(v)[0]
        return tuple(sum(x[i * n + k] << k for k in range(n))
                     for i in range(4))


def mult_matrix(omega: int, ext: ExtFieldCtx) -> tuple[tuple[int, ...], ...]:
    """4x4 matrix over GF(q) of multiplication by omega on GF(q^4)."""
    if omega == 0:
        raise ZeroElement("multiplication matrix of 0 is singular")
    cols = [ext.coords(ext.big.mul(omega, b)) for b in ext.basis]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


# -- matrices and linear solves over GF(q) --------------------------------

def mat_identity(dim: int = 4) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(dim))
                 for i in range(dim))


def mat_mul(ctx: FieldCtx, a, b):
    dim = len(a)
    bt = list(zip(*b))
    return tuple(tuple(reduce(lambda s, k: s ^ ctx.mul(a[i][k], bt[j][k]),
                              range(dim), 0)
                       for j in range(dim)) for i in range(dim))


def mat_pow(ctx: FieldCtx, m, e: int):
    r = mat_identity(len(m))
    while e:
        if e & 1:
            r = mat_mul(ctx, r, m)
        m = mat_mul(ctx, m, m)
        e >>= 1
    return r


def echelon(ctx: FieldCtx, rows, stop: int | None = None
            ) -> list[tuple[int, list[int]]]:
    """(pivot column, row scaled to 1 there) pairs spanning the rows read,
    each row zero at every earlier pivot.

    Rows are read in order, and no more once the rank reaches stop (the
    row width when stop is None), so an iterator of rows is left just past
    the last row read.
    """
    exp, log, order = ctx.exp, ctx.log, ctx.size - 1
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        if stop is None:
            stop = len(row)
        for col, prow in basis:
            a = row[col]
            if a:
                la = log[a]
                row = [x ^ exp[la + log[y]] if y else x
                       for x, y in zip(row, prow)]
        col = next((k for k, a in enumerate(row) if a), None)
        if col is None:
            continue
        inv = order - log[row[col]]
        basis.append((col, [exp[inv + log[y]] if y else 0 for y in row]))
        if len(basis) == stop:
            break
    return basis


def nullspace(ctx: FieldCtx, rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace of the given matrix over GF(q), one
    vector per free column of its reduced echelon form."""
    basis = echelon(ctx, rows)
    exp, log = ctx.exp, ctx.log
    # clear each pivot column upward; a later row is already zero there
    for k, (col, prow) in enumerate(basis):
        for i in range(k):
            pcol, row = basis[i]
            a = row[col]
            if a:
                la = log[a]
                basis[i] = (pcol, [x ^ exp[la + log[y]] if y else x
                                   for x, y in zip(row, prow)])
    pivots = {col: row for col, row in basis}
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in pivots.items():
            vec[pc] = row[fc]
        out.append(tuple(vec))
    return out
