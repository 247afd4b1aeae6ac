"""Points, lines and planes of PG(3,q) with full incidence tables.

Points are enumerated in lexicographic order of their normalized
coordinate 4-tuples (first nonzero coordinate scaled to 1, field elements
ordered by bitmask value).  Every downstream index inherits this order, so
reports and caches are reproducible for a fixed modulus table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, product
from operator import xor

from .errors import (DuplicatePoint, InvariantViolation, NotSkew, SamePoint,
                     SizeGuard)
from .gfield import FieldCtx

# Tables grow with q: at q = 32 the lazy vector_index would hold q^4 = 1 M
# entries and the 1.1 M line masks 33,825 bits each (about 4.6 GB), so
# PG(3,2^n) is built for these n only.
SUPPORTED_N = range(1, 5)


def check_degree(n: int) -> None:
    """Raise SizeGuard unless n lies in SUPPORTED_N."""
    if n not in SUPPORTED_N:
        raise SizeGuard(f"n={n} is outside the supported range "
                        f"{SUPPORTED_N[0]}..{SUPPORTED_N[-1]}")


@dataclass(frozen=True)
class Point:
    index: int
    coords: tuple[int, int, int, int]


@dataclass(frozen=True)
class Line:
    index: int
    gens: tuple[int, int]          # lexicographically least generating pair
    pts: tuple[int, ...]           # sorted, length q+1
    mask: int                      # characteristic bitmask over point indices


@dataclass(frozen=True)
class Plane:
    index: int
    normal: tuple[int, int, int, int]
    mask: int

    @property
    def pts(self) -> tuple[int, ...]:
        """The q^2+q+1 points of the plane, sorted, read off the mask."""
        return _members(self.mask, range(self.mask.bit_length()))


class GeometryTables:
    """Immutable indexed tables for one PG(3,q); all queries are pure."""

    def __init__(self, ctx: FieldCtx, points, lines, planes,
                 point_index, line_of, point_to_lines):
        self.ctx = ctx
        self.q = ctx.size
        self.points = points
        self.lines = lines
        self.planes = planes
        self.point_index = point_index
        self.line_of = line_of          # line point mask -> line index
        self.point_to_lines = point_to_lines
        self.n_points = len(points)
        self.all_one = (1 << self.n_points) - 1

    @classmethod
    def from_arrays(cls, ctx: FieldCtx, coords, line_pts,
                    pmasks) -> GeometryTables:
        """Tables from the normalized point coordinates in lex order, the
        sorted point tuples of the lines in index order and the plane
        masks, plane_masks(ctx, coords); the one place where every
        incidence table is derived.

        Plane i has normal coords[i]: normalized plane normals are the
        same 4-tuples as the points, in the same order.
        """
        points = [Point(i, c) for i, c in enumerate(coords)]
        point_index = {c: i for i, c in enumerate(coords)}
        lines: list[Line] = []
        line_of: dict[int, int] = {}
        point_to_lines: list[list[int]] = [[] for _ in coords]
        for li, pts in enumerate(line_pts):
            mask = 0
            for p in pts:
                mask |= 1 << p
                point_to_lines[p].append(li)
            lines.append(Line(li, (pts[0], pts[1]), pts, mask))
            line_of[mask] = li
        planes = [Plane(i, nvec, mask)
                  for i, (nvec, mask) in enumerate(zip(coords, pmasks))]

        return cls(ctx, points, lines, planes,
                   point_index, line_of, point_to_lines)

    # -- coordinate helpers ----------------------------------------------

    def normalize(self, vec) -> tuple[int, ...]:
        for c in vec:
            if c:
                if c == 1:
                    return tuple(vec)
                s = self.ctx.inv(c)
                return tuple(self.ctx.mul(s, v) for v in vec)
        raise ValueError("zero vector has no projective point")

    def index_of(self, vec) -> int:
        return self.point_index[self.normalize(vec)]

    @cached_property
    def vector_index(self) -> list[int]:
        """Entry v is the index of the point spanned by the vector packed
        as v, coordinate k in bits (3-k)n .. (4-k)n-1; entry 0, the zero
        vector, is -1.  Built on first use: q^4 entries."""
        n, q, mul = self.ctx.n, self.q, self.ctx.mul
        table = [-1] * q ** 4
        for s in range(1, q):
            row = [mul(s, a) for a in range(q)]
            for p in self.points:
                c0, c1, c2, c3 = p.coords
                table[row[c0] << 3 * n | row[c1] << 2 * n
                      | row[c2] << n | row[c3]] = p.index
        return table

    @cached_property
    def pair_to_line(self) -> dict[tuple[int, int], int]:
        """Point pair (a, b), a < b, -> index of the line through both.
        Built on first use, with one entry per pair of points; queries
        read line_of instead, which has one entry per line."""
        return {pair: ln.index for ln in self.lines
                for pair in combinations(ln.pts, 2)}

    # -- incidence queries -------------------------------------------------

    def line_through(self, p1: int, p2: int) -> Line:
        if p1 == p2:
            raise SamePoint(f"point {p1} repeated")
        planes = self.planes
        mask = meet_mask(lambda k: planes[k].mask, p1, p2)
        return self.lines[self.line_of[mask]]

    def is_collinear(self, p1: int, p2: int, p3: int) -> bool:
        if len({p1, p2, p3}) != 3:
            raise DuplicatePoint("three distinct points required")
        return bool(self.line_through(p1, p2).mask >> p3 & 1)

    def _check_skew(self, l1: int, l2: int, l3: int) -> None:
        a, b, c = self.lines[l1], self.lines[l2], self.lines[l3]
        if a.mask & b.mask or a.mask & c.mask or b.mask & c.mask:
            raise NotSkew(f"lines {l1}, {l2}, {l3} are not pairwise skew")

    def _transversal_lines(self, l1: int, l2: int, l3: int) -> list[int]:
        """Transversals of three lines, one through each point of l2;
        unchecked, so the caller guarantees the lines are pairwise skew.

        Plane k contains point y iff point k lies on plane y, so the planes
        through l1 are the common bits of its generators' plane masks, and
        the one through a point y of l2 is their common bit with y's plane
        mask.  The transversal through y is the meet of that plane with
        the plane through l3 and y."""
        planes, lines = self.planes, self.lines
        a, b = lines[l1].gens
        c, d = lines[l3].gens
        pencil1 = planes[a].mask & planes[b].mask
        pencil3 = planes[c].mask & planes[d].mask
        line_of = self.line_of
        out = []
        for y in lines[l2].pts:
            m = planes[y].mask
            out.append(line_of[planes[(pencil1 & m).bit_length() - 1].mask
                               & planes[(pencil3 & m).bit_length() - 1].mask])
        return out

    def _regulus_lines(self, l1: int, l2: int, l3: int) -> list[int]:
        """The q+1 lines of the regulus through three pairwise skew lines
        (unchecked): the transversals of three of their transversals."""
        opp = self._transversal_lines(l1, l2, l3)
        return self._transversal_lines(opp[0], opp[1], opp[2])

    def transversals(self, l1: int, l2: int, l3: int) -> list[int]:
        """The q+1 lines meeting each of three pairwise skew lines."""
        self._check_skew(l1, l2, l3)
        return sorted(self._transversal_lines(l1, l2, l3))

    def regulus(self, l1: int, l2: int, l3: int):
        """(R, R_opp): the unique regulus through the three lines and its
        opposite (their transversal set)."""
        opp = self.transversals(l1, l2, l3)
        return tuple(sorted(self._transversal_lines(*opp[:3]))), tuple(opp)


def scaled_columns(ctx: FieldCtx, m) -> list[list[int]]:
    """cols[j][a] is a times column j of the 4x4 matrix m, packed as in
    GeometryTables.vector_index, so the packed image m x of a vector x is
    cols[0][x0] ^ cols[1][x1] ^ cols[2][x2] ^ cols[3][x3]."""
    n, mul = ctx.n, ctx.mul
    return [[mul(a, m[0][j]) << 3 * n | mul(a, m[1][j]) << 2 * n
             | mul(a, m[2][j]) << n | mul(a, m[3][j]) for a in range(ctx.size)]
            for j in range(4)]


def point_permutation(g: GeometryTables, m) -> list[int]:
    """Permutation of point indices induced by an invertible matrix:
    entry x is the point of m x.  Raises InvariantViolation when m sends
    a point to zero, that is when m is singular."""
    t0, t1, t2, t3 = scaled_columns(g.ctx, m)
    index = g.vector_index
    perm = [index[t0[c0] ^ t1[c1] ^ t2[c2] ^ t3[c3]]
            for c0, c1, c2, c3 in (p.coords for p in g.points)]
    if -1 in perm:
        raise InvariantViolation(
            f"matrix sends point {perm.index(-1)} to zero (singular matrix)")
    return perm


def line_permutation(g: GeometryTables, point_perm) -> list[int]:
    """Permutation of line indices induced by a collineation given by its
    point permutation: entry i is the line through the images of line i's
    two generators, the meet of the planes through both.  For any other
    point map an entry need not be the image of the line's point set."""
    pmask = [pl.mask for pl in g.planes].__getitem__
    line_of = g.line_of
    return [line_of[meet_mask(pmask, point_perm[a], point_perm[b])]
            for a, b in (ln.gens for ln in g.lines)]


def point_coords(q: int) -> list[tuple[int, int, int, int]]:
    """Normalized coordinates of the points of PG(3,q) in lex order."""
    return [vec for vec in product(range(q), repeat=4)
            if next((c for c in vec if c), None) == 1]


def _members(mask: int, ids) -> tuple[int, ...]:
    """The ids[k] for the set bits k of mask, in ascending order; ids is
    range(k) for some k above the top bit, or list(range(n_points)),
    whose ints the tuples reuse instead of making one per entry."""
    out = []
    while mask:                        # top bit first: the int shrinks
        k = mask.bit_length() - 1
        out.append(ids[k])
        mask ^= 1 << k
    out.reverse()
    return tuple(out)


def plane_masks(ctx: FieldCtx, coords) -> list[int]:
    """Point mask of plane i, the zero set of the form with coefficients
    coords[i], for every i.

    Bit-sliced: bit j of coordinate k is a mask over the points, and
    multiplication by a is GF(2)-linear, so bit b of a*x_k is the XOR of
    the slices j for which bit b of a*2^j is set.  A plane is the
    complement of the points at which some bit of the form is set."""
    n = ctx.n
    slices = [[0] * n for _ in range(4)]
    for idx, vec in enumerate(coords):
        for k, c in enumerate(vec):
            for j in range(n):
                if c >> j & 1:
                    slices[k][j] |= 1 << idx
    images = [[ctx.mul(a, 1 << j) for j in range(n)]
              for a in range(ctx.size)]
    # prod[k][a][b]: the points at which bit b of a*x_k is set
    prod = [[[reduce(xor, (sl[j] for j in range(n) if img[j] >> b & 1), 0)
              for b in range(n)] for img in images] for sl in slices]
    full = (1 << len(coords)) - 1
    masks = []
    for c0, c1, c2, c3 in coords:
        nonzero = 0
        for b0, b1, b2, b3 in zip(prod[0][c0], prod[1][c1],
                                  prod[2][c2], prod[3][c3]):
            nonzero |= b0 ^ b1 ^ b2 ^ b3
        masks.append(full ^ nonzero)
    return masks


def meet_mask(pmask, i: int, j: int) -> int:
    """Point mask of the line through points i != j, where pmask(k) is
    the point mask of plane k.

    Point k lies on plane i exactly when point i lies on plane k, so
    pmask(i) & pmask(j) is the set of planes through both points; its
    two least members meet in the line."""
    through = pmask(i) & pmask(j)
    a = through & -through
    through ^= a
    return (pmask(a.bit_length() - 1)
            & pmask((through & -through).bit_length() - 1))


def build_geometry(n: int) -> GeometryTables:
    """Construct the complete PG(3,q) tables for q = 2^n, n in SUPPORTED_N."""
    check_degree(n)
    ctx = FieldCtx(n)
    coords = point_coords(ctx.size)
    pmasks = plane_masks(ctx, coords)
    npts = len(coords)
    ids = list(range(npts))
    pmask = pmasks.__getitem__

    # lines: first unjoined pair (i, j) is the lexicographically least
    # generating pair of its line; bit j of joined[i] marks i, j on a line
    joined = [0] * npts
    line_pts: list[tuple[int, ...]] = []
    after = (1 << npts) - 1
    for i in range(npts):
        after ^= 1 << i                    # the points j > i
        rest = after & ~joined[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            mask = meet_mask(pmask, i, j)
            pts = _members(mask, ids)
            for p in pts:
                joined[p] |= mask
            rest &= ~mask
            line_pts.append(pts)

    return GeometryTables.from_arrays(ctx, coords, line_pts, pmasks)
