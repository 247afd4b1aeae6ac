"""GF(2) linear algebra over the point set: characteristic vectors, ranks,
the codes C (W(q)-lines) and D (dual grids), the radical-codimension
witness, and T-orbit sums.

Bit vectors are Python ints (bit i = point i); dense bitsets beat any
sparse representation at these sizes (|P| <= 4369 for q <= 16).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyMatrix, IndexOutOfRange, LengthMismatch
from .fibration import SingerContext
from .projspace import GeometryTables, Line
from .symplectic import SymplecticForm, enumerate_dual_grids, isotropic_lines


def char_vector(s, g: GeometryTables) -> int:
    """Characteristic bit vector of a point set."""
    acc = 0
    for p in s:
        if not 0 <= p < g.n_points:
            raise IndexOutOfRange(f"point index {p} out of range")
        acc |= 1 << p
    return acc


class BitMat:
    """Row span over GF(2) with a cached echelon form and rank.

    Appending rows invalidates the cache; the echelon holds one row per
    highest-bit pivot, in descending pivot order, so reduction is a simple
    left-to-right sweep.
    """

    def __init__(self, rows=(), width: int = 0):
        self.width = width
        self.rows: list[int] = []
        self._echelon: list[tuple[int, int]] | None = None
        for r in rows:
            self.append(r)

    def append(self, row: int) -> None:
        if row.bit_length() > self.width:
            raise LengthMismatch(
                f"row of {row.bit_length()} bits in a width-{self.width} matrix")
        self.rows.append(row)
        self._echelon = None

    def _build_echelon(self) -> list[tuple[int, int]]:
        if self._echelon is None:
            # clear each row's top bit until it is a new pivot
            pivots: dict[int, int] = {}
            for r in self.rows:
                while r:
                    top = r.bit_length() - 1
                    val = pivots.get(top)
                    if val is None:
                        pivots[top] = r
                        break
                    r ^= val
            self._echelon = sorted(pivots.items(), reverse=True)
        return self._echelon

    @property
    def rank(self) -> int:
        return len(self._build_echelon())

    def reduce(self, v: int) -> int:
        for piv, val in self._build_echelon():
            if (v >> piv) & 1:
                v ^= val
        return v

    def contains(self, v: int) -> bool:
        if v.bit_length() > self.width:
            raise LengthMismatch("vector wider than the matrix")
        return self.reduce(v) == 0


def span_rank(m: BitMat) -> int:
    return m.rank


def in_span(v: int, m: BitMat) -> bool:
    return m.contains(v)


def orthogonal(a: BitMat, b: BitMat) -> bool:
    """True iff every row of a meets every row of b in an even number of
    points; decided on the two echelon bases, which span the same rows."""
    b_basis = [val for _, val in b._build_echelon()]
    return not any((x & y).bit_count() & 1
                   for _, x in a._build_echelon() for y in b_basis)


def code_C(f: SymplecticForm, g: GeometryTables) -> BitMat:
    """Generators of C: characteristic vectors of all W(q)-lines."""
    return BitMat((g.lines[li].mask for li in isotropic_lines(f, g)),
                  width=g.n_points)


def code_D(f: SymplecticForm, g: GeometryTables) -> BitMat:
    """Generators of D: characteristic vectors of all dual grids."""
    return BitMat((dg.point_mask(g) for dg in enumerate_dual_grids(f, g)),
                  width=g.n_points)


def radical_codim_check(d: BitMat) -> tuple[int, int, int]:
    """(dim D, dim of the pairwise-sum span S, codimension).

    The span of {row0 + rowi} equals the span of all pairwise sums, so a
    codimension of 1 witnesses that the sum of any two dual grids lies in
    the radical while no single dual grid does.

    One elimination gives all three: with a parity bit appended to every
    row, row 0 keeps it as its pivot and every later row is reduced by it
    to row0 + rowi, so the rest of the echelon is a basis of S.  D is S
    plus row 0, and row 0 adds a dimension unless it reduces to zero by
    S, that is unless the lone parity bit lies in the span.  The echelon
    of D follows from the same elimination and is kept for later queries.
    """
    if not d.rows:
        raise EmptyMatrix("code_D matrix has no rows")
    parity = 1 << d.width
    dp = BitMat((r | parity for r in d.rows), width=d.width + 1)
    sums = dp._build_echelon()[1:]
    rest = dp.reduce(parity)           # row 0 reduced by S
    if d._echelon is None:
        extra = [(rest.bit_length() - 1, rest)] if rest else []
        d._echelon = sorted(sums + extra, reverse=True)
    dim_sum = len(sums)
    dim_d = dim_sum + (rest != 0)
    return dim_d, dim_sum, dim_d - dim_sum


@lru_cache(maxsize=8)
def point_orbit_sums(sc: SingerContext) -> tuple[int, ...]:
    """For each point p, the GF(2) sum over k < q^2+1 of t^k(p)."""
    g = sc.geometry
    order = g.q * g.q + 1
    out = []
    t_perm = sc.t_perm
    for p in range(g.n_points):
        acc = 0
        cur = p
        for _ in range(order):
            acc ^= 1 << cur
            cur = t_perm[cur]
        out.append(acc)
    return tuple(out)


def t_orbit_sum(l: Line, sc: SingerContext) -> int:
    """GF(2) sum of the q^2+1 images of the line's characteristic vector
    under powers of the T generator."""
    sums = point_orbit_sums(sc)
    acc = 0
    for p in l.pts:
        acc ^= sums[p]
    return acc
