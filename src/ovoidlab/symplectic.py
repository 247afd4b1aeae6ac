"""Symplectic forms on V(4,q), the quadrangle W(q), perps and dual grids."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NoPolarity
from .gfield import mat_det, nullspace
from .projspace import GeometryTables, Line

# index pairs of the six free entries of an alternating 4x4 matrix
_UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class SymplecticForm:
    """Alternating nondegenerate bilinear form given by its Gram matrix.

    In characteristic 2 "alternating" means zero diagonal and a symmetric
    matrix; nondegeneracy is det != 0.
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

    def point_perp_normal(self, g: GeometryTables, x) -> tuple[int, ...]:
        """Linear form y -> <x, y>, i.e. the normal of the plane x^perp."""
        mul = g.ctx.mul
        return tuple(
            mul(x[0], self.gram[0][j]) ^ mul(x[1], self.gram[1][j])
            ^ mul(x[2], self.gram[2][j]) ^ mul(x[3], self.gram[3][j])
            for j in range(4))


@dataclass(frozen=True)
class DualGrid:
    """Unordered pair {m, m^perp} of non-isotropic lines, m < m_perp."""

    m: int
    m_perp: int

    def point_mask(self, g: GeometryTables) -> int:
        return g.lines[self.m].mask | g.lines[self.m_perp].mask

    def points(self, g: GeometryTables) -> tuple[int, ...]:
        return tuple(sorted(g.lines[self.m].pts + g.lines[self.m_perp].pts))


def standard_form() -> SymplecticForm:
    """The hyperbolic form <x,y> = x1 y4 + x2 y3 + x3 y2 + x4 y1."""
    return SymplecticForm(gram=(
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    ))


def is_isotropic_line(l: Line, f: SymplecticForm, g: GeometryTables) -> bool:
    """A line is isotropic iff its two generators pair to zero."""
    u = g.points[l.gens[0]].coords
    v = g.points[l.gens[1]].coords
    return f.eval(g, u, v) == 0


def isotropic_lines(f: SymplecticForm, g: GeometryTables) -> list[int]:
    """Sorted indices of all lines of W(q) for this form."""
    out = []
    pts = g.points
    for ln in g.lines:
        u = pts[ln.gens[0]].coords
        v = pts[ln.gens[1]].coords
        if f.eval(g, u, v) == 0:
            out.append(ln.index)
    return out


def perp_line(l: Line, f: SymplecticForm, g: GeometryTables) -> Line:
    """The polar line of l: all x with <x, y> = 0 for every y on l."""
    u = g.points[l.gens[0]].coords
    v = g.points[l.gens[1]].coords
    w1 = f.point_perp_normal(g, u)
    w2 = f.point_perp_normal(g, v)
    basis = nullspace(g.ctx, [w1, w2], 4)
    if len(basis) != 2:
        raise InvariantViolation(
            f"perp of line {l.index} has dimension {len(basis)}, want 2 "
            "(degenerate form)")
    p1 = g.index_of(basis[0])
    p2 = g.index_of(basis[1])
    return g.line_through(p1, p2)


def enumerate_dual_grids(f: SymplecticForm, g: GeometryTables) -> list[DualGrid]:
    """All unordered pairs {m, m^perp} over non-isotropic m, by least index."""
    out = []
    seen = set()
    for ln in g.lines:
        if ln.index in seen:
            continue
        if is_isotropic_line(ln, f, g):
            continue
        mp = perp_line(ln, f, g)
        seen.add(mp.index)
        a, b = sorted((ln.index, mp.index))
        out.append(DualGrid(a, b))
    return out


def polarity_from_ovoid(theta, g: GeometryTables) -> SymplecticForm:
    """Unique symplectic polarity whose isotropic lines are the tangents
    of the ovoid (Segre construction, q even).

    Solves "every tangent line is isotropic" in the six free entries of an
    alternating Gram matrix; raises NoPolarity unless the solution space
    is 1-dimensional projectively and nondegenerate.
    """
    from .errors import NotAnOvoid
    from .ovoids import tangent_lines  # local import avoids a cycle

    mul = g.ctx.mul
    try:
        tangents = tangent_lines(theta, g)
    except NotAnOvoid as exc:
        raise NoPolarity(f"input is not an ovoid: {exc}") from exc
    rows = []
    for li in tangents:
        ln = g.lines[li]
        u = g.points[ln.gens[0]].coords
        v = g.points[ln.gens[1]].coords
        rows.append(tuple(mul(u[i], v[j]) ^ mul(u[j], v[i])
                          for (i, j) in _UPPER))
    basis = nullspace(g.ctx, rows, 6)
    if len(basis) != 1:
        raise NoPolarity(f"tangent system has nullity {len(basis)}, want 1")
    coeffs = basis[0]
    first = next(c for c in coeffs if c)
    if first != 1:
        s = g.ctx.inv(first)
        coeffs = tuple(mul(s, c) for c in coeffs)
    gram = [[0] * 4 for _ in range(4)]
    for c, (i, j) in zip(coeffs, _UPPER):
        gram[i][j] = c
        gram[j][i] = c
    form = SymplecticForm(tuple(tuple(r) for r in gram))
    if mat_det(g.ctx, form.gram) == 0:
        raise NoPolarity("tangent system solution is degenerate")
    return form
