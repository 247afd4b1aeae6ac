"""GF(2) linear algebra over the point set: characteristic vectors, ranks,
the codes C (W(q)-lines) and D (dual grids), the radical-codimension
witness, their dimensions from the T-module structure, and T-orbit sums.

Bit vectors are Python ints (bit i = point i); dense bitsets beat any
sparse representation at these sizes (|P| <= 4369 for q <= 16).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (EmptyMatrix, IndexOutOfRange, InvariantViolation,
                     LengthMismatch)
from .fibration import Fibration, SingerContext
from .gfield import FieldCtx
from .projspace import (GeometryTables, Line, line_permutation,
                        point_permutation)
from .symplectic import (SymplecticForm, enumerate_dual_grids,
                         isotropic_lines, polar_lines)


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


# -- C and D as modules over R = GF(2)[x]/(x^N - 1), N = q^2 + 1 -----------
#
# Point t^k(b_j), b_j the least point of T-orbit j, is x^k in coordinate j
# of R^{q+1}, so t acts as multiplication by x and a row set that t maps
# onto itself spans the R-module generated by one row per T-orbit.  N is
# odd, so R is the direct sum of the fields GF(2)[x]/(m_c), one per
# cyclotomic coset c of 2 mod N, and the component of the span at c is the
# span of the generators evaluated at zeta^c, zeta a primitive N-th root
# of unity in GF(q^4).  Its GF(2) dimension is |c| times the rank of the
# evaluations (Ling-Sole, IEEE Trans. IT 47, 2001).

def t_coordinates(sc: SingerContext, fib: Fibration
                  ) -> list[tuple[int, int]] | None:
    """Entry p is (j, k) for p = t^k(least point of member j), or None
    unless t_perm is the point permutation of t_gen and each member is one
    cycle of t_perm of length q^2+1 from its least point."""
    g = sc.geometry
    t = sc.t_perm
    try:
        if list(t) != point_permutation(g, sc.t_gen):
            return None
    except InvariantViolation:
        return None
    order = g.q * g.q + 1
    out: list = [None] * g.n_points
    for j, ov in enumerate(fib.members):
        start = cur = ov.pts[0]
        for k in range(order):
            if out[cur] is not None or not ov.mask >> cur & 1:
                return None
            out[cur] = (j, k)
            cur = t[cur]
        if cur != start:
            return None
    return None if None in out else out


def _cyclotomic_cosets(n: int) -> list[tuple[int, int]]:
    """(least member, size) of each orbit of doubling on Z/n."""
    seen = [False] * n
    out = []
    for s in range(n):
        size, x = 0, s
        while not seen[x]:
            seen[x] = True
            size += 1
            x = 2 * x % n
        if size:
            out.append((s, size))
    return out


def _evaluate(row, zs, width: int) -> list[int]:
    """Coordinate j of the generator whose points have the coordinates in
    row, as entry j, evaluated at x = zs[1]; zs[k] is zs[1]^k."""
    vec = [0] * width
    for j, k in row:
        vec[j] ^= zs[k]
    return vec


def _basis(rows, f: FieldCtx) -> list[list[int]]:
    """Echelon rows over f spanning rows, each scaled to 1 at its pivot;
    later rows are zero at every earlier pivot."""
    exp, log, order = f.exp, f.log, f.size - 1
    width = len(rows[0]) if rows else 0
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        for col, prow in basis:
            a = row[col]
            if a:
                la = log[a]
                row = [x ^ exp[la + log[y]] if y else x
                       for x, y in zip(row, prow)]
        for col, a in enumerate(row):
            if a:
                inv = order - log[a]
                basis.append((col, [exp[inv + log[y]] if y else 0
                                    for y in row]))
                break
        if len(basis) == width:
            break
    return [prow for _, prow in basis]


def _dot(u, v, f: FieldCtx) -> int:
    exp, log = f.exp, f.log
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc ^= exp[log[a] + log[b]]
    return acc


def t_module_dims(sc: SingerContext, coords, c_gens, d_gens
                  ) -> tuple[int, int, int, bool]:
    """(dim C, dim D, dim S, D in C-perp) for the codes spanned by the
    T-orbits of the generators, each given by its points, with S the span
    of the pairwise sums of D's rows and coords from t_coordinates.

    S is D' minus one dimension, D' spanned by D's rows with a parity
    coordinate appended; T fixes that coordinate, so it lies in the
    component of c = 0 alone.  D lies in C-perp iff sum_i d_i(x) c_i(1/x)
    is 0 in R for every pair of generators, since its coefficient of x^k
    is the inner product of d with t^k(c); that is, iff the evaluations of
    D at zeta^c are orthogonal to those of C at zeta^-c for each coset.
    """
    q = sc.geometry.q
    order = q * q + 1
    big = sc.ext.big
    step = (big.size - 1) // order
    zeta = [big.exp[step * i] for i in range(order)]
    c_rows = [[coords[p] for p in pts] for pts in c_gens]
    d_rows = [[coords[p] for p in pts] for pts in d_gens]
    dim_c = dim_d = dim_s = 0
    perp = True
    for s, size in _cyclotomic_cosets(order):
        zs = [zeta[s * k % order] for k in range(order)]
        d_eval = [_evaluate(r, zs, q + 1) for r in d_rows]
        d_basis = _basis(d_eval, big)
        rank_d = len(d_basis)
        dim_c += size * len(_basis([_evaluate(r, zs, q + 1)
                                    for r in c_rows], big))
        dim_d += size * rank_d
        if s == 0:
            dim_s += len(_basis([v + [1] for v in d_eval], big)) - 1
        else:
            dim_s += size * rank_d
        if perp:
            zs_inv = zs[:1] + zs[:0:-1]
            c_inv = [_evaluate(r, zs_inv, q + 1) for r in c_rows]
            perp = not any(_dot(u, v, big) for u in d_basis for v in c_inv)
    return dim_c, dim_d, dim_s, perp


def _t_orbit_leaders(tl, polar, lines) -> list[int]:
    """The lines of `lines` whose T-orbit, polars included, holds no
    earlier one; tl is T's line permutation, and it commutes with polar."""
    seen = [False] * len(tl)
    out = []
    for li in lines:
        if not seen[li]:
            out.append(li)
            while not seen[li]:
                seen[li] = seen[polar[li]] = True
                li = tl[li]
    return out


def t_module_counters(form: SymplecticForm, sc: SingerContext,
                      fib: Fibration, c: BitMat, d: BitMat
                      ) -> tuple[int, int, int, bool] | None:
    """t_module_dims of the codes suite's C and D, or None unless three
    guards show that T maps both row sets onto themselves: t_coordinates
    exist, the rows of C and D are in order the isotropic-line masks and
    the dual-grid masks of the form, and T's line permutation commutes
    with the polar map."""
    g = sc.geometry
    coords = t_coordinates(sc, fib)
    if coords is None:
        return None
    polar = polar_lines(form, g)
    lines = g.lines
    iso = [i for i, j in enumerate(polar) if i == j]
    grid = [i for i, j in enumerate(polar) if i < j]
    if (len(c.rows) != len(iso) or len(d.rows) != len(grid)
            or any(r != lines[i].mask for r, i in zip(c.rows, iso))
            or any(r != lines[i].mask | lines[polar[i]].mask
                   for r, i in zip(d.rows, grid))):
        return None
    tl = line_permutation(g, sc.t_perm)
    if [tl[j] for j in polar] != [polar[j] for j in tl]:
        return None
    c_gens = [lines[i].pts for i in _t_orbit_leaders(tl, polar, iso)]
    d_gens = [set(lines[i].pts).union(lines[polar[i]].pts)
              for i in _t_orbit_leaders(tl, polar, grid)]
    return t_module_dims(sc, coords, c_gens, d_gens)


@lru_cache(maxsize=8)
def point_orbit_sums(sc: SingerContext) -> tuple[int, ...]:
    """For each point p, the GF(2) sum over k < q^2+1 of t^k(p).

    A cycle of t_perm of length exactly q^2+1 gives every point on it the
    cycle's mask.  A point on any other cycle keeps its own walk, whose
    sum is a parity, because the walk can meet a point more than once."""
    g = sc.geometry
    order = g.q * g.q + 1
    out: list = [None] * g.n_points
    t_perm = sc.t_perm
    for p in range(g.n_points):
        if out[p] is not None:
            continue
        cycle = [p]
        cur = t_perm[p]
        while cur != p and len(cycle) < order:
            cycle.append(cur)
            cur = t_perm[cur]
        if cur == p and len(cycle) == order:
            acc = 0
            for x in cycle:
                acc |= 1 << x
            for x in cycle:
                out[x] = acc
            continue
        acc = 0
        cur = p
        for _ in range(order):
            acc ^= 1 << cur
            cur = t_perm[cur]
        out[p] = acc
    return tuple(out)


def t_orbit_sum(l: Line, sc: SingerContext) -> int:
    """GF(2) sum of the q^2+1 images of the line's characteristic vector
    under powers of the T generator."""
    sums = point_orbit_sums(sc)
    acc = 0
    for p in l.pts:
        acc ^= sums[p]
    return acc
