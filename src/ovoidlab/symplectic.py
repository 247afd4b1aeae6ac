"""Symplectic forms on V(4,q), the quadrangle W(q), perps and dual grids."""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantViolation, NoPolarity, NotAnOvoid
from .fibration import Fibration
from .gfield import echelon, nullspace
from .ovoids import tangent_lines
from .projspace import (SUPPORTED_N, GeometryTables, Line, line_typecode,
                        point_permutation, scaled_columns)

# index pairs of the six free entries of an alternating 4x4 matrix
_UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# a passing run solves and maps member 0's form alone; a failing main
# theorem's full sweep solves and maps every member's, and the codes suite
# then reads member 0's again: the caches hold the q+1 member forms and
# one more at the largest q
FORMS_KEPT = 2 ** SUPPORTED_N[-1] + 2


class SymplecticForm(NamedTuple):
    """Alternating nondegenerate bilinear form given by its Gram matrix.

    In characteristic 2 "alternating" means zero diagonal and a symmetric
    matrix; nondegeneracy is a trivial kernel.
    """

    gram: tuple[tuple[int, int, int, int], ...]

    def eval(self, g: GeometryTables, u, v) -> int:
        mul = g.ctx.mul
        acc = 0
        for i in range(4):
            ui = u[i]
            if not ui:
                continue
            row = self.gram[i]
            for j in range(4):
                if row[j] and v[j]:
                    acc ^= mul(ui, mul(row[j], v[j]))
        return acc


class DualGrid(NamedTuple):
    """Unordered pair {m, m^perp} of non-isotropic lines, m < m_perp."""

    m: int
    m_perp: int

    def point_mask(self, g: GeometryTables) -> int:
        return g.line_masks[self.m] | g.line_masks[self.m_perp]


def perp_planes(f: SymplecticForm, g: GeometryTables) -> list[int]:
    """Entry x is the index of the plane x^perp.

    The Gram matrix G is symmetric, so x^perp has normal G x, and plane i
    has normal coords[i]: the point permutation of G is the perp map.
    Raises InvariantViolation for a degenerate form.
    """
    return point_permutation(g, f.gram)


@lru_cache(maxsize=FORMS_KEPT)
def polar_lines(f: SymplecticForm, g: GeometryTables) -> array:
    """Entry i is the index of the polar line of line i, as a
    line_typecode array.

    l^perp is the meet of the planes a^perp and b^perp of the first two
    points a and b of l.  A line is isotropic iff
    it is its own polar.  Raises InvariantViolation when a meet is not a
    line, which no table of PG(3,q) allows.
    """
    # entry x: the point mask of the plane x^perp
    perp = [g.planes[x].mask for x in perp_planes(f, g)]
    line_of, pts, k = g.line_of, g.line_pts, g.q + 1
    out = [line_of.get(perp[a] & perp[b]) for a, b in zip(pts[::k], pts[1::k])]
    if None in out:
        raise InvariantViolation(
            f"perp planes of line {out.index(None)} do not meet in a line")
    return array(line_typecode(len(out)), out)


def isotropic_lines(f: SymplecticForm, g: GeometryTables) -> list[int]:
    """Sorted indices of all lines of W(q) for this form."""
    return [i for i, j in enumerate(polar_lines(f, g)) if i == j]


def perp_line(l: Line, f: SymplecticForm, g: GeometryTables) -> Line:
    """The polar line of l: all x with <x, y> = 0 for every y on l."""
    return g.lines[polar_lines(f, g)[l.index]]


def enumerate_dual_grids(f: SymplecticForm, g: GeometryTables) -> list[DualGrid]:
    """All unordered pairs {m, m^perp} over non-isotropic m, by least index:
    the 2-cycles of the polar map."""
    return [DualGrid(i, j) for i, j in enumerate(polar_lines(f, g)) if i < j]


def tangent_nullspace(g: GeometryTables, tangents) -> list[tuple[int, ...]]:
    """A basis of the solutions of "every tangent line is isotropic" in the
    six free entries of an alternating Gram matrix.

    Its length is the nullity of the full system, but only the rows read
    until their rank is 5 are eliminated: the one solution they leave is
    then checked against each remaining tangent, and the first tangent it
    fails makes the nullity 0.
    """
    mul, pts, k = g.ctx.mul, g.line_pts, g.q + 1
    coords = [p.coords for p in g.points]

    def row(li):
        u, v = coords[pts[li * k]], coords[pts[li * k + 1]]
        return [mul(u[i], v[j]) ^ mul(u[j], v[i]) for (i, j) in _UPPER]

    it = iter(tangents)
    pivots = echelon(g.ctx, (row(li) for li in it), stop=5)
    basis = nullspace(g.ctx, [prow for _, prow in pivots], 6)
    if len(basis) != 1:
        return basis
    gram = _gram(basis[0])
    # <u, v> = 0 iff G u = 0 or v lies on the plane with normal G u
    t0, t1, t2, t3 = scaled_columns(g.ctx, gram)
    index, planes = g.vector_index, g.planes
    for li in it:
        a, b = pts[li * k], pts[li * k + 1]
        c0, c1, c2, c3 = coords[a]
        plane = index[t0[c0] ^ t1[c1] ^ t2[c2] ^ t3[c3]]
        if plane >= 0 and not planes[plane].mask >> b & 1:
            return []
    return basis


def _gram(vec) -> list[list[int]]:
    """The alternating Gram matrix with free entries vec."""
    gram = [[0] * 4 for _ in range(4)]
    for c, (i, j) in zip(vec, _UPPER):
        gram[i][j] = c
        gram[j][i] = c
    return gram


def polarity_from_ovoid(theta, g: GeometryTables) -> SymplecticForm:
    """Unique symplectic polarity whose isotropic lines are the tangents
    of the ovoid (Segre construction, q even).

    Solves "every tangent line is isotropic" in the six free entries of an
    alternating Gram matrix; raises NoPolarity unless the solution space
    is 1-dimensional projectively and nondegenerate.
    """
    try:
        tangents = tangent_lines(theta, g)
    except NotAnOvoid as exc:
        raise NoPolarity(f"input is not an ovoid: {exc}") from exc
    basis = tangent_nullspace(g, tangents)
    if len(basis) != 1:
        raise NoPolarity(f"tangent system has nullity {len(basis)}, want 1")
    gram = _gram(g.normalize(basis[0]))
    if nullspace(g.ctx, gram, 4):
        raise NoPolarity("tangent system solution is degenerate")
    return SymplecticForm(tuple(tuple(r) for r in gram))


@lru_cache(maxsize=FORMS_KEPT)
def member_polarity(f: Fibration, i: int, g: GeometryTables
                    ) -> SymplecticForm:
    """The polarity of member i of the fibration f, solved once per run."""
    return polarity_from_ovoid(f.members[i], g)
