"""Points, lines and planes of PG(3,q) with full incidence tables.

Points are enumerated in lexicographic order of their normalized
coordinate 4-tuples (first nonzero coordinate scaled to 1, field elements
ordered by bitmask value).  Every downstream index inherits this order, so
reports and caches are reproducible for a fixed modulus table.

Line i is stored as two columns, its point mask line_masks[i] and its q+1
sorted points in the flat array line_pts; g.lines builds Line records.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from functools import cached_property, reduce
from itertools import combinations, product
from operator import and_, xor
from typing import NamedTuple

from .errors import DuplicatePoint, InvariantViolation, SamePoint, SizeGuard
from .gfield import FieldCtx

# Tables grow with q: at q = 32 the lazy vector_index would hold q^4 = 1 M
# entries and the 1.1 M line masks 33,825 bits each (about 4.6 GB), so
# PG(3,2^n) is built for these n only.
SUPPORTED_N = range(1, 5)

# array typecodes of line_pts and of tables of line indices: 2 bytes hold
# the 4,369 points at q = 16, its 70,161 lines need 4
POINT_TYPECODE = "H"
LINE_TYPECODE = "I"


class Point(NamedTuple):
    index: int
    coords: tuple[int, int, int, int]


class Line(NamedTuple):
    index: int
    pts: tuple[int, ...]           # sorted, length q+1
    mask: int                      # characteristic bitmask over point indices


class Plane(NamedTuple):
    index: int
    normal: tuple[int, int, int, int]
    mask: int


class _LineView(Sequence):
    """g.lines: entry i is Line(i, pts, mask), built when it is read."""

    def __init__(self, g: GeometryTables):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.line_masks)

    def __getitem__(self, i: int) -> Line:
        g = self._g
        i = range(len(g.line_masks))[i]    # IndexError past either end
        return Line(i, tuple(g.line_row(i)), g.line_masks[i])


class GeometryTables:
    """Immutable indexed tables for one PG(3,q); all queries are pure."""

    def __init__(self, ctx: FieldCtx, coords, line_pts, line_masks, pmasks):
        """Tables from the normalized point coordinates in lex order, the
        flat array of every line's q+1 sorted points in index order, the
        lines' point masks, and the plane masks, plane_masks(mt, coords).
        build_geometry is the one caller.

        Plane i has normal coords[i]: normalized plane normals are the
        same 4-tuples as the points, in the same order.
        """
        self.ctx = ctx
        self.q = ctx.size
        self.points = [Point(i, c) for i, c in enumerate(coords)]
        self.planes = [Plane(i, nvec, mask)
                       for i, (nvec, mask) in enumerate(zip(coords, pmasks))]
        self.point_index = {c: i for i, c in enumerate(coords)}
        self.line_masks = line_masks    # line index -> point mask
        self.line_pts = line_pts        # the q+1 sorted points of each line
        self.line_of = {m: i for i, m in enumerate(line_masks)}
        self.lines = _LineView(self)
        self.n_points = len(coords)
        self.all_one = (1 << self.n_points) - 1

    def line_row(self, li: int) -> array:
        """The q+1 sorted points of line li, a slice of line_pts."""
        k = self.q + 1
        return self.line_pts[li * k:li * k + k]

    def line_rows(self):
        """The q+1 sorted points of every line as a tuple, in index order."""
        pts, k = self.line_pts, self.q + 1
        return zip(*(pts[j::k] for j in range(k)))

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
        n = self.ctx.n
        table = [-1] * self.q ** 4
        for row in mul_table(self.ctx)[1:]:
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
        return {pair: li for li, row in enumerate(self.line_rows())
                for pair in combinations(row, 2)}

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

    def _transversal_lines(self, l1: int, l2: int, l3: int,
                           count: int | None = None) -> list[int]:
        """Transversals of three lines, one through each of the first
        count (by default all) points of l2; unchecked, so the caller
        guarantees the lines are pairwise skew.

        Plane k contains point y iff point k lies on plane y, so the planes
        through l1 are the common bits of the plane masks of its first two
        points, and the one through a point y of l2 is their common bit
        with y's plane mask.  The transversal through y is the meet of
        that plane with the plane through l3 and y."""
        planes, pts, k = self.planes, self.line_pts, self.q + 1
        a, b = pts[l1 * k], pts[l1 * k + 1]
        c, d = pts[l3 * k], pts[l3 * k + 1]
        pencil1 = planes[a].mask & planes[b].mask
        pencil3 = planes[c].mask & planes[d].mask
        line_of = self.line_of
        out = []
        for y in pts[l2 * k:l2 * k + (count or k)]:
            m = planes[y].mask
            out.append(line_of[planes[(pencil1 & m).bit_length() - 1].mask
                               & planes[(pencil3 & m).bit_length() - 1].mask])
        return out

    def _regulus_lines(self, l1: int, l2: int, l3: int) -> list[int]:
        """The q+1 lines of the regulus through three pairwise skew lines
        (unchecked): the transversals of three of their transversals."""
        opp = self._transversal_lines(l1, l2, l3, 3)
        return self._transversal_lines(*opp)


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
    first two points, the meet of the planes through both.  For any other
    point map an entry need not be the image of the line's point set."""
    pmask = [pl.mask for pl in g.planes].__getitem__
    line_of, pts, k = g.line_of, g.line_pts, g.q + 1
    return [line_of[meet_mask(pmask, point_perm[a], point_perm[b])]
            for a, b in zip(pts[::k], pts[1::k])]


def plucker(g: GeometryTables, li: int) -> tuple[int, ...]:
    """The Plücker vector of line li, p_ij = u_i v_j + u_j v_i for the
    pairs i < j in the order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3),
    from its first two points u and v.

    Under the Klein correspondence this is a point of the Klein quadric
    p01 p23 + p02 p13 + p03 p12 = 0 in PG(5,q), one per line; another
    pair of points of the line scales it."""
    k, pts, points, mul = g.q + 1, g.line_pts, g.points, g.ctx.mul
    u0, u1, u2, u3 = points[pts[li * k]].coords
    v0, v1, v2, v3 = points[pts[li * k + 1]].coords
    return (mul(u0, v1) ^ mul(u1, v0), mul(u0, v2) ^ mul(u2, v0),
            mul(u0, v3) ^ mul(u3, v0), mul(u1, v2) ^ mul(u2, v1),
            mul(u1, v3) ^ mul(u3, v1), mul(u2, v3) ^ mul(u3, v2))


def point_coords(q: int) -> list[tuple[int, int, int, int]]:
    """Normalized coordinates of the points of PG(3,q) in lex order."""
    return [(0,) * c + (1,) + rest for c in range(3, -1, -1)
            for rest in product(range(q), repeat=3 - c)]


def mul_table(ctx: FieldCtx) -> list[list[int]]:
    """Row a lists a*x for every x in GF(q), from the q*n products a*2^j:
    multiplication by a is GF(2)-linear."""
    images = [[ctx.mul(a, 1 << j) for j in range(ctx.n)]
              for a in range(ctx.size)]
    return [[reduce(xor, (m for j, m in enumerate(img) if x >> j & 1), 0)
             for x in range(ctx.size)] for img in images]


def plane_masks(mt, coords) -> list[int]:
    """Point mask of plane i, the zero set of the form with coefficients
    coords[i], for every i; mt is the field's mul_table.

    Bit-sliced: bit j of coordinate k is a mask over the points, and
    multiplication by a is GF(2)-linear, so bit b of a*x_k is the XOR of
    the slices j for which bit b of a*2^j is set.  A plane is the
    complement of the points at which some bit of the form is set."""
    n = len(mt).bit_length() - 1
    slices = [[int("".join(["01"[v[k] >> j & 1] for v in reversed(coords)]),
                   2) for j in range(n)] for k in range(4)]
    # prod[k][a][b]: the points at which bit b of a*x_k is set
    prod = [[[reduce(xor, (sl[j] for j in range(n) if row[1 << j] >> b & 1),
                     0) for b in range(n)] for row in mt] for sl in slices]
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
    rest = through & through - 1
    return (pmask((through ^ rest).bit_length() - 1)
            & pmask((rest & -rest).bit_length() - 1))


def build_geometry(n: int) -> GeometryTables:
    """Construct the complete PG(3,q) tables for q = 2^n, n in SUPPORTED_N.

    A line's two least points are its reduced echelon basis: u, with the
    later pivot c, and v, with v_c = 0.  Its other points v + a*u ascend
    with a, their coordinate c, so u and then v in index order list the
    lines in order of their least pair."""
    if n not in SUPPORTED_N:
        raise SizeGuard(f"n={n} is outside the supported range "
                        f"{SUPPORTED_N[0]}..{SUPPORTED_N[-1]}")
    ctx = FieldCtx(n)
    q = ctx.size
    mt = mul_table(ctx)
    coords = point_coords(q)
    pmasks = plane_masks(mt, coords)
    # packed as in GeometryTables.vector_index, which keeps the lex order
    packed = [c0 << 3 * n | c1 << 2 * n | c2 << n | c3
              for c0, c1, c2, c3 in coords]
    index = [0] * q ** 4               # normalized packed vector -> point
    for i, pk in enumerate(packed):
        index[pk] = i
    # later[c]: the indices and the packed vectors, ascending, of the
    # points v with pivot before c and v_c = 0
    later = {c: tuple(zip(*[(i, pk) for i, pk in enumerate(packed)
                            if pk >> (4 - c) * n
                            and not pk >> (3 - c) * n & q - 1]))
             for c in (1, 2, 3)}
    k, end = q + 1, 0
    line_pts = array(POINT_TYPECODE, [0]) * (k * (q * q + 1) * (q * q + q + 1))
    for iu in range(q * q + q + 1):    # pivot 3, 2, 1: pivot 0 is never u
        u0, u1, u2, u3 = u = coords[iu]
        ivs, pvs = later[u.index(1)]
        start, end = end, end + k * len(ivs)
        # column j of these lines: u, v, then v + a*u for a = 1..q-1
        line_pts[start:end:k] = array(POINT_TYPECODE, [iu]) * len(ivs)
        line_pts[start + 1:end:k] = array(POINT_TYPECODE, ivs)
        for j, row in enumerate(mt[1:], 2):
            au = row[u0] << 3 * n | row[u1] << 2 * n | row[u2] << n | row[u3]
            line_pts[start + j:end:k] = array(POINT_TYPECODE,
                                              [index[pv ^ au] for pv in pvs])
    # the meet of the two least planes through each line's first two
    # points, meet_mask inlined over the planes t through both
    line_masks = [pmasks[(t ^ (r := t & t - 1)).bit_length() - 1]
                  & pmasks[(r & -r).bit_length() - 1]
                  for t in map(and_, map(pmasks.__getitem__, line_pts[::k]),
                               map(pmasks.__getitem__, line_pts[1::k]))]

    return GeometryTables(ctx, coords, line_pts, line_masks, pmasks)
