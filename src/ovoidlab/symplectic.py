"""Symplectic forms on V(4,q), the quadrangle W(q), perps and dual grids."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, NoPolarity
from .gfield import mat_det, nullspace
from .projspace import GeometryTables, Line, Plane

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


def perp_plane(x: int, f: SymplecticForm, g: GeometryTables) -> Plane:
    """The plane x^perp of point x: the plane whose normal is x G."""
    normal = f.point_perp_normal(g, g.points[x].coords)
    if not any(normal):
        raise InvariantViolation(
            f"point {x} has a zero perp normal (degenerate form)")
    return g.planes[g.index_of(normal)]


# each suite reads the map of one form at a time; a small cache keeps
# peak memory flat while holding few geometries alive
@lru_cache(maxsize=2)
def polar_lines(f: SymplecticForm, g: GeometryTables) -> tuple[int, ...]:
    """Entry i is the index of the polar line of line i.

    l^perp is the meet of the perp planes of l's two generators; its two
    least points name it.  A line is isotropic iff it is its own polar.
    """
    perp = [perp_plane(x, f, g).mask for x in range(g.n_points)]
    out = []
    for ln in g.lines:
        meet = perp[ln.gens[0]] & perp[ln.gens[1]]
        if meet.bit_count() != g.q + 1:
            raise InvariantViolation(
                f"perp of line {ln.index} has {meet.bit_count()} points, "
                f"want {g.q + 1}")
        p1 = (meet & -meet).bit_length() - 1
        meet &= meet - 1
        p2 = (meet & -meet).bit_length() - 1
        out.append(g.pair_to_line[(p1, p2)])
    return tuple(out)


def is_isotropic_line(l: Line, f: SymplecticForm, g: GeometryTables) -> bool:
    """A line is isotropic iff it is its own polar."""
    return polar_lines(f, g)[l.index] == l.index


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
