"""Points, lines and planes of PG(3,q) with full incidence tables.

Points are enumerated in lexicographic order of their normalized
coordinate 4-tuples (first nonzero coordinate scaled to 1, field elements
ordered by bitmask value).  Every downstream index inherits this order, so
reports and caches are reproducible for a fixed modulus table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import DuplicatePoint, NotSkew, SamePoint, SizeGuard
from .gfield import FieldCtx

# Table sizes grow as q^4; anything past n = 8 is an accident.
SIZE_GUARD_N = 8


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
    pts: tuple[int, ...]           # sorted, length q^2+q+1
    mask: int


class GeometryTables:
    """Immutable indexed tables for one PG(3,q); all queries are pure."""

    def __init__(self, ctx: FieldCtx, points, lines, planes,
                 point_index, pair_to_line, point_to_lines):
        self.ctx = ctx
        self.q = ctx.size
        self.points = points
        self.lines = lines
        self.planes = planes
        self.point_index = point_index
        self.pair_to_line = pair_to_line
        self.point_to_lines = point_to_lines
        self.n_points = len(points)
        self.all_one = (1 << self.n_points) - 1

    @classmethod
    def from_arrays(cls, ctx: FieldCtx, coords, line_pts) -> GeometryTables:
        """Tables from the normalized point coordinates in lex order and the
        sorted point tuples of the lines in index order; the one place
        where every incidence table is derived.

        Plane i has normal coords[i]: normalized plane normals are the
        same 4-tuples as the points, in the same order.
        """
        q = ctx.size
        points = [Point(i, c) for i, c in enumerate(coords)]
        point_index = {c: i for i, c in enumerate(coords)}
        lines: list[Line] = []
        pair_to_line: dict[tuple[int, int], int] = {}
        point_to_lines: list[list[int]] = [[] for _ in coords]
        for li, pts in enumerate(line_pts):
            mask = 0
            for p in pts:
                mask |= 1 << p
                point_to_lines[p].append(li)
            lines.append(Line(li, (pts[0], pts[1]), pts, mask))
            pair_to_line.update(dict.fromkeys(combinations(pts, 2), li))

        # plane points = zero set of the normal's linear form
        mt = [[ctx.mul(a, b) for b in range(q)] for a in range(q)]
        planes: list[Plane] = []
        for i, nvec in enumerate(coords):
            m0, m1, m2, m3 = (mt[c] for c in nvec)
            pts = []
            mask = 0
            for idx, (x0, x1, x2, x3) in enumerate(coords):
                if m0[x0] ^ m1[x1] ^ m2[x2] ^ m3[x3] == 0:
                    pts.append(idx)
                    mask |= 1 << idx
            planes.append(Plane(i, nvec, tuple(pts), mask))

        return cls(ctx, points, lines, planes,
                   point_index, pair_to_line, point_to_lines)

    # -- coordinate helpers ----------------------------------------------

    def normalize(self, vec) -> tuple[int, int, int, int]:
        for c in vec:
            if c:
                if c == 1:
                    return tuple(vec)
                s = self.ctx.inv(c)
                return tuple(self.ctx.mul(s, v) for v in vec)
        raise ValueError("zero vector has no projective point")

    def index_of(self, vec) -> int:
        return self.point_index[self.normalize(vec)]

    # -- incidence queries -------------------------------------------------

    def line_through(self, p1: int, p2: int) -> Line:
        if p1 == p2:
            raise SamePoint(f"point {p1} repeated")
        key = (p1, p2) if p1 < p2 else (p2, p1)
        return self.lines[self.pair_to_line[key]]

    def is_collinear(self, p1: int, p2: int, p3: int) -> bool:
        if len({p1, p2, p3}) != 3:
            raise DuplicatePoint("three distinct points required")
        return bool(self.line_through(p1, p2).mask >> p3 & 1)

    def _check_skew(self, l1: int, l2: int, l3: int) -> None:
        a, b, c = self.lines[l1], self.lines[l2], self.lines[l3]
        if a.mask & b.mask or a.mask & c.mask or b.mask & c.mask:
            raise NotSkew(f"lines {l1}, {l2}, {l3} are not pairwise skew")

    def _transversal_through(self, p: int, l2: Line, mask3: int) -> int | None:
        """Index of the line through p meeting l2 and the mask3 line, if any."""
        for x in l2.pts:
            li = self.pair_to_line[(p, x) if p < x else (x, p)]
            if self.lines[li].mask & mask3:
                return li
        return None

    def _transversal_lines(self, l1: int, l2: int, l3: int) -> list[int]:
        """Transversals of three lines, one per point of l1; unchecked, so
        the caller guarantees the lines are pairwise skew."""
        b, mask3 = self.lines[l2], self.lines[l3].mask
        return [self._transversal_through(p, b, mask3)
                for p in self.lines[l1].pts]

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


def point_coords(q: int) -> list[tuple[int, int, int, int]]:
    """Normalized coordinates of the points of PG(3,q) in lex order."""
    return [vec for vec in product(range(q), repeat=4)
            if next((c for c in vec if c), None) == 1]


def build_geometry(n: int, *, force: bool = False,
                   ctx: FieldCtx | None = None) -> GeometryTables:
    """Construct the complete PG(3,q) tables for q = 2^n."""
    if n < 1:
        raise SizeGuard("n must be >= 1")
    if n > SIZE_GUARD_N and not force:
        raise SizeGuard(f"n={n} exceeds the desk-scale guard ({SIZE_GUARD_N})")
    if ctx is None:
        ctx = FieldCtx(n)
    q = ctx.size

    coords = point_coords(q)
    index = {vec: i for i, vec in enumerate(coords)}
    npts = len(coords)

    # lines: first unjoined pair (i, j) is the lexicographically least
    # generating pair of its line; bit j of joined[i] marks i, j on a line
    mul = ctx.mul
    inv = ctx.inv
    joined = [0] * npts
    line_pts: list[tuple[int, ...]] = []
    nonzero = range(1, q)
    for i in range(npts):
        u = coords[i]
        for j in range(i + 1, npts):
            if joined[i] >> j & 1:
                continue
            v = coords[j]
            pts = [i, j]
            for c in nonzero:
                w = tuple(a ^ mul(c, b) for a, b in zip(u, v))
                # normalize in place
                f = next(x for x in w if x)
                if f != 1:
                    s = inv(f)
                    w = tuple(mul(s, x) for x in w)
                pts.append(index[w])
            mask = sum(1 << p for p in pts)
            for p in pts:
                joined[p] |= mask
            line_pts.append(tuple(sorted(pts)))

    return GeometryTables.from_arrays(ctx, coords, line_pts)
