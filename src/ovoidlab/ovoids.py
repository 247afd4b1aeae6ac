"""Ovoid constructions (elliptic quadrics, Suzuki-Tits), validation and
the line-meet sweep, plus quadric fitting over GF(q)."""

from __future__ import annotations

from array import array
from functools import lru_cache

from .errors import (EvenDegree, InvariantViolation, NoIrreducibleConstant,
                     NoQuadric, NotAnOvoid)
from .gfield import nullspace
from .projspace import LINE_TYPECODE, GeometryTables

# monomial index pairs for a quaternary quadratic form, fixed order
_MONOMIALS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
              (1, 3), (2, 2), (2, 3), (3, 3))


class Ovoid:
    """Point indices of size q^2+1 in any order, a kind (elliptic-claimed |
    tits-claimed | orbit | unknown) and their mask, the OR of 1 << p over
    the points; compared by value."""

    def __init__(self, pts: tuple[int, ...], kind: str, mask: int):
        if mask != _mask_of(pts):
            raise InvariantViolation("ovoid mask is not the OR of its points")
        self.pts, self.kind, self.mask = pts, kind, mask

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash(self.mask)

    @staticmethod
    def from_points(pts, kind: str = "unknown") -> "Ovoid":
        spts = tuple(sorted(pts))
        return Ovoid(spts, kind, _mask_of(spts))


def _mask_of(pts) -> int:
    return sum(1 << p for p in set(pts))


def irreducible_constant(g: GeometryTables) -> int:
    """Smallest a (bitmask order) with y^2 + y + a irreducible over GF(q)."""
    ctx = g.ctx
    reducible = {ctx.mul(y, y) ^ y for y in range(ctx.size)}
    for a in range(ctx.size):
        if a not in reducible:
            return a
    raise NoIrreducibleConstant("y^2+y+a splits for every a (impossible, q even)")


def elliptic_quadric(g: GeometryTables) -> Ovoid:
    """Zero set of x0 x1 + x2^2 + x2 x3 + a x3^2 with y^2+y+a irreducible."""
    ctx = g.ctx
    a = irreducible_constant(g)
    mul = ctx.mul
    pts = [p.index for p in g.points
           if mul(p.coords[0], p.coords[1])
           ^ mul(p.coords[2], p.coords[2])
           ^ mul(p.coords[2], p.coords[3])
           ^ mul(a, mul(p.coords[3], p.coords[3])) == 0]
    ov = Ovoid.from_points(pts, "elliptic-claimed")
    if not is_ovoid(ov.pts, g):
        raise NotAnOvoid("elliptic quadric construction failed validation")
    return ov


def tits_ovoid(g: GeometryTables) -> Ovoid:
    """Suzuki-Tits ovoid for q = 2^n, n odd >= 3:
    {(0:1:0:0)} u {(1 : st + s^(sigma+2) + t^sigma : s : t)} with
    sigma: x -> x^(2^((n+1)/2))."""
    ctx = g.ctx
    n = ctx.n
    if n % 2 == 0 or n < 3:
        raise EvenDegree(f"Suzuki-Tits ovoids need odd n >= 3, got n={n}")
    e = 1 << ((n + 1) // 2)
    mul, pw = ctx.mul, ctx.pow
    pts = [g.index_of((0, 1, 0, 0))]
    for s in range(ctx.size):
        for t in range(ctx.size):
            x1 = mul(s, t) ^ pw(s, e + 2) ^ pw(t, e)
            pts.append(g.index_of((1, x1, s, t)))
    ov = Ovoid.from_points(pts, "tits-claimed")
    if not is_ovoid(ov.pts, g):
        raise NotAnOvoid("Suzuki-Tits construction failed validation")
    return ov


# each holds the q+1 <= 17 members of a fibration plus a few more ovoids
@lru_cache(maxsize=24)
def line_meets(mask: int, g: GeometryTables) -> bytes:
    """Entry i is the number of points line i shares with the point set
    `mask`: the one sweep of the lines against an ovoid."""
    return bytes((m & mask).bit_count() for m in g.line_masks)


@lru_cache(maxsize=24)
def _tangents(mask: int, g: GeometryTables) -> array:
    """The lines meeting the point set `mask` once, read from its
    line_meets vector once per mask and geometry, as a LINE_TYPECODE
    array."""
    meets = line_meets(mask, g)
    if max(meets) > 2:
        i = next(i for i, meet in enumerate(meets) if meet > 2)
        raise NotAnOvoid(f"line {i} meets the set in {meets[i]} points")
    return array(LINE_TYPECODE,
                 (i for i, meet in enumerate(meets) if meet == 1))


def is_ovoid(s, g: GeometryTables) -> bool:
    """True iff s is q^2+1 points and every line meets it in at most 2."""
    pts = set(s)
    if (len(pts) != g.q * g.q + 1 or min(pts) < 0
            or max(pts) >= g.n_points):
        return False
    return max(line_meets(_mask_of(pts), g)) <= 2


def tangent_lines(theta: Ovoid, g: GeometryTables) -> list[int]:
    """Sorted indices of all lines meeting theta exactly once (the general
    linear complex of theta), as a new list."""
    return list(_tangents(theta.mask, g))


def _eval_quadric(ctx, coeffs, x) -> int:
    acc = 0
    for c, (i, j) in zip(coeffs, _MONOMIALS):
        if c:
            acc ^= ctx.mul(c, ctx.mul(x[i], x[j]))
    return acc


def fit_quadric(s, g: GeometryTables) -> tuple[int, ...]:
    """Coefficients of a quaternary quadratic form whose zero set is
    exactly s; raises NoQuadric if none exists.

    Candidates are the projective classes of the nullspace of the
    evaluation system, or its basis alone above 4096 classes.  The nullity
    is 1 for an elliptic quadric at q >= 4 and 5 for an ovoid of PG(3,2).
    """
    ctx = g.ctx
    rows = []
    for p in s:
        x = g.points[p].coords
        rows.append(tuple(ctx.mul(x[i], x[j]) for (i, j) in _MONOMIALS))
    basis = nullspace(ctx, rows, 10)
    if not basis:
        raise NoQuadric("evaluation system has full rank")
    want = set(s)

    def zero_set(coeffs):
        return {p.index for p in g.points
                if _eval_quadric(ctx, coeffs, p.coords) == 0}

    candidates = []
    if len(basis) == 1:
        candidates = [basis[0]]
    else:
        # projective classes over the nullspace, capped
        dim = len(basis)
        total = (ctx.size ** dim - 1) // (ctx.size - 1)
        if total <= 4096:
            from itertools import product
            for lead in range(dim):
                for tail in product(range(ctx.size), repeat=dim - lead - 1):
                    vec = [0] * 10
                    coefs = (0,) * lead + (1,) + tail
                    for c, b in zip(coefs, basis):
                        if c:
                            vec = [a ^ ctx.mul(c, x) for a, x in zip(vec, b)]
                    candidates.append(tuple(vec))
        else:
            candidates = list(basis)
    for cand in candidates:
        if zero_set(cand) == want:
            return tuple(cand)
    raise NoQuadric("no solution has the exact zero set")
