"""Arithmetic in GF(2^n) and GF(2^{4n}) with polynomial-basis bitmask elements.

Field elements are plain Python ints interpreted as GF(2)-coefficient
bitmasks (bit k = coefficient of x^k).  A FieldCtx fixes the modulus and
supplies all arithmetic; contexts are immutable after construction, so
every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .errors import ZeroElement, ZeroInverse

# One irreducible polynomial per degree needed: n in 1..8 and 4n in 4..32.
# Fixed so that every downstream point/line index is reproducible.
MODULI = {
    1: 0b11,            # x + 1
    2: 0b111,           # x^2 + x + 1
    3: 0b1011,          # x^3 + x + 1
    4: 0b10011,         # x^4 + x + 1
    5: 0x25,            # x^5 + x^2 + 1
    6: 0x43,            # x^6 + x + 1
    7: 0x83,            # x^7 + x + 1
    8: 0x11D,           # x^8 + x^4 + x^3 + x^2 + 1
    12: 0x1053,         # x^12 + x^6 + x^4 + x + 1
    16: 0x1100B,        # x^16 + x^12 + x^3 + x + 1
    20: 0x100009,       # x^20 + x^3 + 1
    24: 0x1000087,      # x^24 + x^7 + x^2 + x + 1
    28: 0x10000009,     # x^28 + x^3 + 1
    32: 0x100400007,    # x^32 + x^22 + x^2 + x + 1
}

# exp/log tables are built only below this field size
_TABLE_LIMIT = 1 << 16


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


def _factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division (n < 2^64 in practice)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class FieldCtx:
    """GF(2^n) with a fixed irreducible modulus and cached primitive element.

    Small fields (size <= 2^16) get exp/log tables; larger ones fall back
    to carry-less multiply-and-reduce.
    """

    def __init__(self, n: int, modulus: int | None = None):
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
        self.exp: list[int] | None = None
        self.log: list[int] | None = None
        if self.size <= _TABLE_LIMIT:
            self.generator = self._find_generator_tabled()
        else:
            self.generator = self._find_generator_order_test()

    def _find_generator_tabled(self) -> int:
        order = self.size - 1
        for g in range(2, self.size):
            exp = [0] * (2 * order)
            log = [0] * self.size
            x = 1
            ok = True
            for i in range(order):
                if x == 1 and i > 0:
                    ok = False
                    break
                exp[i] = x
                log[x] = i
                x = poly_mulmod(x, g, self.modulus)
            if ok and x == 1:
                for i in range(order, 2 * order):
                    exp[i] = exp[i - order]
                self.exp, self.log = exp, log
                return g
        # GF(2): multiplicative group is trivial
        self.exp, self.log = [1, 1], [0, 0]
        return 1

    def _find_generator_order_test(self) -> int:
        order = self.size - 1
        primes = _factorize(order)
        g = 2
        while True:
            if all(self._pow_raw(g, order // p) != 1 for p in primes):
                return g
            g += 1

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = poly_mulmod(r, a, self.modulus)
            a = poly_mulmod(a, a, self.modulus)
            e >>= 1
        return r

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.exp is not None:
            return self.exp[self.log[a] + self.log[b]]
        return poly_mulmod(a, b, self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self.exp is not None:
            return self.exp[(self.size - 1) - self.log[a]] if self.log[a] else 1
        return self._pow_raw(a, self.size - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        if self.exp is not None:
            return self.exp[(self.log[a] * e) % (self.size - 1)]
        if e < 0:
            return self._pow_raw(self.inv(a), -e)
        return self._pow_raw(a, e)

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#x})"


# -- GF(2) linear solves (used for extension-field coordinates) ----------

class _GF2Solver:
    """Solve sum of chosen columns = v over GF(2), columns given as ints."""

    def __init__(self, cols: list[int]):
        self.width = len(cols)
        self.basis: list[tuple[int, int, int]] = []  # (pivot, value, combo)
        for idx, col in enumerate(cols):
            cur, combo = col, 1 << idx
            for piv, val, cb in self.basis:
                if (cur >> piv) & 1:
                    cur ^= val
                    combo ^= cb
            if cur == 0:
                raise ValueError("columns are GF(2)-dependent")
            self.basis.append((cur.bit_length() - 1, cur, combo))

    def solve(self, v: int) -> int:
        combo = 0
        for piv, val, cb in self.basis:
            if (v >> piv) & 1:
                v ^= val
                combo ^= cb
        if v:
            raise ValueError("vector outside column span")
        return combo


@dataclass(frozen=True)
class ExtFieldCtx:
    """GF(2^n) inside GF(2^{4n}) with the basis {1, w, w^2, w^3} of the
    big field over the small one, w the big field's primitive element."""

    base: FieldCtx
    big: FieldCtx
    root: int                      # image of the base field's x in the big field
    embed_pows: tuple[int, ...]    # root^0 .. root^(n-1)
    omega: int
    basis: tuple[int, int, int, int]
    _solver: _GF2Solver = field(repr=False, compare=False, default=None)

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
        # column i*n + k is x^k * w^i; x^k embeds as pows[k]
        cols = [big.mul(pows[k], basis[i])
                for i in range(4) for k in range(n)]
        solver = _GF2Solver(cols)
        return ExtFieldCtx(base=base, big=big, root=root,
                           embed_pows=tuple(pows), omega=omega,
                           basis=basis, _solver=solver)

    def embed(self, a: int) -> int:
        """Field homomorphism GF(2^n) -> GF(2^{4n})."""
        acc = 0
        for k in range(self.base.n):
            if (a >> k) & 1:
                acc ^= self.embed_pows[k]
        return acc

    def coords(self, v: int) -> tuple[int, int, int, int]:
        """Coordinates of v in the basis {1, w, w^2, w^3} over GF(q)."""
        n = self.base.n
        combo = self._solver.solve(v)
        mask = (1 << n) - 1
        return tuple((combo >> (i * n)) & mask for i in range(4))


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


def nullspace(ctx: FieldCtx, rows: list, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace of the given matrix over GF(q)."""
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
