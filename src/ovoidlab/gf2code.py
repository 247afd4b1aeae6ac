"""GF(2) linear algebra over the point set: ranks, the codes C (W(q)-lines)
and D (dual grids), the radical-codimension witness, their dimensions from
the T-module structure, and T-orbit sums.

Bit vectors are Python ints (bit i = point i); dense bitsets beat any
sparse representation at these sizes (|P| <= 4369 for q <= 16).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyMatrix, LengthMismatch
from .fibration import Orbits, SingerContext, perm_cycles
from .gfield import FieldCtx, echelon
from .projspace import GeometryTables, Line
from .symplectic import SymplecticForm, enumerate_dual_grids, isotropic_lines


def _bits(v: int):
    """The positions of the set bits of v >= 0, ascending."""
    while v:
        yield (v & -v).bit_length() - 1
        v &= v - 1


class BitMat:
    """Row span over GF(2) with a cached, fully reduced echelon form: each
    pivot is its row's top bit, and every other echelon row is zero there,
    so a dependent sparse row costs at most its weight in XORs (structured
    Gaussian elimination, LaMacchia-Odlyzko, CRYPTO 1990)."""

    def __init__(self, rows=(), width: int = 0):
        self.width = width
        self.rows: list[int] = []
        self._echelon: list[tuple[int, int]] | None = None
        for r in rows:
            self.append(r)

    def append(self, row: int) -> None:
        if row < 0 or row >> self.width:
            raise LengthMismatch(f"row outside 0..2^{self.width} - 1")
        self.rows.append(row)
        self._echelon = None

    def _build_echelon(self) -> list[tuple[int, int]]:
        """(pivot, row) pairs by descending pivot; fills _rows and _pivots."""
        if self._echelon is None:
            rows: dict[int, int] = {}
            pivots = 0
            for r in self.rows:
                for p in _bits(r & pivots):
                    r ^= rows[p]
                if r:
                    top = r.bit_length() - 1
                    for p, val in rows.items():  # rows below top lack it
                        if p > top and val >> top & 1:
                            rows[p] = val ^ r
                    rows[top] = r
                    pivots |= 1 << top
            self._rows, self._pivots = rows, pivots
            self._echelon = sorted(rows.items(), reverse=True)
        return self._echelon

    @property
    def rank(self) -> int:
        return len(self._build_echelon())

    def reduce(self, v: int) -> int:
        if v < 0 or v >> self.width:
            raise LengthMismatch(f"vector outside 0..2^{self.width} - 1")
        self._build_echelon()
        for p in _bits(v & self._pivots):
            v ^= self._rows[p]
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def span_rank(m: BitMat) -> int:
    return m.rank


def in_span(v: int, m: BitMat) -> bool:
    return m.contains(v)


def odd_meetings(d: BitMat, c: BitMat):
    """(i, j) for each row i of d that meets a row of c oddly, j the first
    such row: none iff D lies in C-perp.  Bit j of through[p] says that row
    j of c holds point p, so their XOR over row i's points finds the j."""
    through = [0] * max(c.width, d.width)
    for j, row in enumerate(c.rows):
        for p in _bits(row):
            through[p] |= 1 << j
    for i, row in enumerate(d.rows):
        acc = 0
        for p in _bits(row):
            acc ^= through[p]
        if acc:
            yield i, (acc & -acc).bit_length() - 1


def code_C(f: SymplecticForm, g: GeometryTables) -> BitMat:
    """Generators of C: characteristic vectors of all W(q)-lines."""
    return BitMat((g.line_masks[li] for li in isotropic_lines(f, g)),
                  width=g.n_points)


def code_D(f: SymplecticForm, g: GeometryTables) -> BitMat:
    """Generators of D: characteristic vectors of all dual grids."""
    return BitMat((dg.point_mask(g) for dg in enumerate_dual_grids(f, g)),
                  width=g.n_points)


def radical_codim_check(d: BitMat) -> tuple[int, int, int]:
    """(dim D, dim of the pairwise-sum span S, codimension).

    The span of {row0 + rowi} equals the span of all pairwise sums, so a
    codimension of 1 witnesses that the sum of any two dual grids lies in
    the radical while no single dual grid does.  With a parity bit on
    every row, the span is S plus row 0 with the bit, one dimension more;
    row 0 adds one to S unless the lone parity bit lies in the span.
    """
    if not d.rows:
        raise EmptyMatrix("code_D matrix has no rows")
    parity = 1 << d.width
    dp = BitMat((r | parity for r in d.rows), width=d.width + 1)
    codim = int(dp.reduce(parity) != 0)
    return dp.rank - 1 + codim, dp.rank - 1, codim


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

def t_coordinates(t_points, order: int) -> list[tuple[int, int]] | None:
    """Entry p is (j, k) for p = t^k(least point of cycle j) of the point
    permutation t_points, or None unless each cycle has length order."""
    out: list = [None] * len(t_points)
    for j, cycle in enumerate(perm_cycles(t_points)):
        if len(cycle) != order:
            return None
        for k, p in enumerate(cycle):
            out[p] = (j, k)
    return out


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


def _dot(u, v, f: FieldCtx) -> int:
    exp, log = f.exp, f.log
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc ^= exp[log[a] + log[b]]
    return acc


def t_module_dims(sc: SingerContext, coords, c_points, d_points
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
    c_rows = [[coords[p] for p in pts] for pts in c_points]
    d_rows = [[coords[p] for p in pts] for pts in d_points]
    dim_c = dim_d = dim_s = 0
    perp = True
    for s, size in _cyclotomic_cosets(order):
        zs = [zeta[s * k % order] for k in range(order)]
        d_eval = [_evaluate(r, zs, q + 1) for r in d_rows]
        d_basis = echelon(big, d_eval)
        dim_c += size * len(echelon(big, [_evaluate(r, zs, q + 1)
                                          for r in c_rows]))
        dim_d += size * len(d_basis)
        if s == 0:
            dim_s += len(echelon(big, [v + [1] for v in d_eval])) - 1
        else:
            dim_s += size * len(d_basis)
        if perp:
            zs_inv = zs[:1] + zs[:0:-1]
            c_inv = [_evaluate(r, zs_inv, q + 1) for r in c_rows]
            perp = not any(_dot(u, v, big) for _, u in d_basis for v in c_inv)
    return dim_c, dim_d, dim_s, perp


def t_module_counters(polar, orbits: Orbits, sc: SingerContext
                      ) -> tuple[int, int, int, bool] | None:
    """t_module_dims of a form's C (its isotropic lines, the fixed points
    of its polar map) and D (its dual grids, the 2-cycles), or None unless
    guards show that T maps both row sets onto themselves: the orbits
    kept a T, whose line permutation commutes with the polar map and
    whose point cycles have length q^2+1.  The generators are the orbit
    representatives: one W(q)-line per T-orbit, and the dual grids that
    the main theorem and the sigma sweep read."""
    g = orbits.g
    if orbits.t_points is None:
        return None
    coords = t_coordinates(orbits.t_points, g.q * g.q + 1)
    grids = orbits.grids(polar)
    if coords is None or grids is None:
        return None
    row = g.line_row
    c_points = [row(li) for li, _ in orbits.lines if polar[li] == li]
    d_points = [set(row(m)).union(row(mp)) for m, mp, _ in grids]
    return t_module_dims(sc, coords, c_points, d_points)


@lru_cache(maxsize=8)
def point_orbit_sums(sc: SingerContext) -> tuple[int, ...]:
    """For each point p, the GF(2) sum over k < q^2+1 of t^k(p).

    On a cycle of length L, with laps, rest = divmod(q^2+1, L), the walk
    from p goes laps times round the cycle and then rest points on, so
    its sum is the cycle's mask if laps is odd (nothing if it is even),
    XOR p and the rest - 1 points after it.  Raises InvariantViolation
    when t_perm is not a permutation."""
    g = sc.geometry
    order = g.q * g.q + 1
    out = [0] * g.n_points
    for cycle in perm_cycles(sc.t_perm):
        laps, rest = divmod(order, len(cycle))
        mask = sum(1 << p for p in cycle) if laps & 1 else 0
        ring = cycle + cycle[:rest]
        for i, p in enumerate(cycle):
            acc = mask
            for x in ring[i:i + rest]:
                acc ^= 1 << x
            out[p] = acc
    return tuple(out)


def orbit_sum(pts, sc: SingerContext) -> int:
    """GF(2) sum of the q^2+1 T-images of the point set pts."""
    sums = point_orbit_sums(sc)
    acc = 0
    for p in pts:
        acc ^= sums[p]
    return acc


def t_orbit_sum(l: Line, sc: SingerContext) -> int:
    """orbit_sum of the line's points."""
    return orbit_sum(l.pts, sc)
