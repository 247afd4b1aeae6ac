import random
import tracemalloc
from array import array
from itertools import combinations, product

import pytest

from ovoidlab import ExtFieldCtx, singer_context
from ovoidlab.errors import (DuplicatePoint, InvariantViolation, SamePoint,
                             SizeGuard)
from ovoidlab.gfield import FieldCtx, nullspace
from ovoidlab.projspace import (Plane, build_geometry, mul_table,
                                plane_masks, point_coords, point_permutation)

from kfibration import singer_k
from linecols import lines_by_point, mask_peeling_build, plane_points
from test_regulus_kernel import regulus


def enumerate_subspace_counts(n):
    """Independent oracle: count 1- and 2-dim subspaces of GF(q)^4 by
    direct enumeration of vectors and spans."""
    ctx = FieldCtx(n)
    q = ctx.size
    vecs = [v for v in product(range(q), repeat=4) if any(v)]

    def span2(u, v):
        pts = set()
        for a in range(q):
            for b in range(q):
                w = tuple(ctx.mul(a, x) ^ ctx.mul(b, y) for x, y in zip(u, v))
                if any(w):
                    pts.add(w)
        return frozenset(pts)

    points = set()
    for v in vecs:
        points.add(frozenset(span2(v, (0, 0, 0, 0))))
    lines = set()
    for u, v in combinations(vecs, 2):
        s = span2(u, v)
        if len(s) == q * q - 1:
            lines.add(s)
    return len(points), len(lines)


@pytest.mark.parametrize("n,pts,lns", [(1, 15, 35), (2, 85, 357)])
def test_counts_against_enumeration_oracle(n, pts, lns):
    assert enumerate_subspace_counts(n) == (pts, lns)
    g = build_geometry(n)
    assert (len(g.points), len(g.lines)) == (pts, lns)
    assert len(g.planes) == pts


def test_counts_q8_formulas(geo3):
    q = 8
    assert len(geo3.points) == (q * q + 1) * (q + 1) == 585
    assert len(geo3.lines) == (q * q + 1) * (q * q + q + 1) == 4745
    assert len(geo3.planes) == 585


def test_point_normalization_unique(geo2):
    seen = set()
    for p in geo2.points:
        nz = next(c for c in p.coords if c)
        assert nz == 1
        assert p.coords not in seen
        seen.add(p.coords)


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_steiner_property_every_pair_one_line(fix, request):
    g = request.getfixturevalue(fix)
    n_pts = len(g.points)
    assert len(g.pair_to_line) == n_pts * (n_pts - 1) // 2
    for ln in g.lines:
        assert len(ln.pts) == g.q + 1
        for a, b in combinations(ln.pts, 2):
            assert g.pair_to_line[(a, b)] == ln.index


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_line_index_matches_pair_table(fix, request):
    # line_of, keyed on point masks, has one entry per line and answers
    # every point pair as the pair table does
    g = request.getfixturevalue(fix)
    assert len(g.line_of) == len(g.lines)
    assert all(g.line_of[ln.mask] == ln.index for ln in g.lines)
    pair_to_line = g.pair_to_line
    for a, b in combinations(range(g.n_points), 2):
        assert g.line_through(a, b).index == pair_to_line[(a, b)]


def test_build_keeps_no_per_pair_table():
    # a table with one entry per pair of points (170,820 at q = 8) peaked
    # at 16.8 MiB; the line index and masks peak near 1.2 MiB.  A Line
    # record per line and a lines-through-each-point table kept 2.47 MiB;
    # the two line columns keep 1.07 MiB
    tracemalloc.start()
    try:
        g = build_geometry(3)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
    assert isinstance(g.line_pts, array)
    assert current <= 1.4 * 2 ** 20, f"{current / 2 ** 20:.2f} MiB"


def test_double_count(geo2):
    q = geo2.q
    assert len(geo2.lines) * (q + 1) == len(geo2.points) * (q * q + q + 1)
    for lst in lines_by_point(geo2):
        assert len(lst) == q * q + q + 1


def test_plane_meets_line_in_1_or_all(geo2):
    q = geo2.q
    for pl in geo2.planes[:20]:
        for ln in geo2.lines:
            meet = (pl.mask & ln.mask).bit_count()
            assert meet in (1, q + 1)


def test_line_through(geo1):
    ln = geo1.line_through(0, 1)
    assert 0 in ln.pts and 1 in ln.pts
    assert ln == geo1.line_through(1, 0)
    assert len(ln.pts) == 3
    with pytest.raises(SamePoint):
        geo1.line_through(2, 2)


def test_is_collinear(geo2):
    ln = geo2.lines[0]
    a, b, c = ln.pts[:3]
    assert geo2.is_collinear(a, b, c)
    off = next(p.index for p in geo2.points if not (ln.mask >> p.index) & 1)
    assert not geo2.is_collinear(a, b, off)
    with pytest.raises(DuplicatePoint):
        geo2.is_collinear(a, a, b)


def _three_skew_lines(g):
    l1 = g.lines[0]
    l2 = next(l for l in g.lines if not l.mask & l1.mask)
    l3 = next(l for l in g.lines
              if not l.mask & l1.mask and not l.mask & l2.mask)
    return l1.index, l2.index, l3.index


def test_transversals_count_and_skewness(geo2):
    l1, l2, l3 = _three_skew_lines(geo2)
    trans = sorted(geo2._transversal_lines(l1, l2, l3))
    assert len(trans) == geo2.q + 1
    for a, b in combinations(trans, 2):
        assert not geo2.lines[a].mask & geo2.lines[b].mask


def test_regulus_contains_inputs_and_is_unique(geo2):
    l1, l2, l3 = _three_skew_lines(geo2)
    reg, opp = regulus(geo2, l1, l2, l3)
    assert len(reg) == len(opp) == geo2.q + 1
    assert {l1, l2, l3} <= set(reg)
    # transversals of the transversals of a regulus give it back
    for triple in combinations(reg, 3):
        reg2, _ = regulus(geo2, *triple)
        assert reg2 == reg
    # opposite of the opposite
    reg3, opp3 = regulus(geo2, *opp[:3])
    assert set(reg3) == set(opp)
    assert set(opp3) == set(reg)


def test_size_guard():
    with pytest.raises(SizeGuard):
        build_geometry(0)
    with pytest.raises(SizeGuard):
        build_geometry(5)
    with pytest.raises(SizeGuard):
        build_geometry(9)


def test_deterministic_rebuild(geo1):
    g2 = build_geometry(1)
    assert [p.coords for p in g2.points] == [p.coords for p in geo1.points]
    assert [l.pts for l in g2.lines] == [l.pts for l in geo1.lines]
    assert [pl.normal for pl in g2.planes] == [pl.normal for pl in geo1.planes]


# --- the per-pair field-arithmetic derivations, kept as oracles ------------

def pair_enumeration_lines(ctx, coords):
    """Sorted point tuples of the lines, in order of their least generating
    pair: each unjoined pair (i, j) spans u + c v for every nonzero c."""
    index = {vec: i for i, vec in enumerate(coords)}
    joined = [0] * len(coords)
    line_pts = []
    for i, u in enumerate(coords):
        for j in range(i + 1, len(coords)):
            if joined[i] >> j & 1:
                continue
            pts = [i, j]
            for c in range(1, ctx.size):
                w = tuple(a ^ ctx.mul(c, b) for a, b in zip(u, coords[j]))
                f = next(x for x in w if x)
                pts.append(index[tuple(ctx.mul(ctx.inv(f), x) for x in w)])
            mask = sum(1 << p for p in pts)
            for p in pts:
                joined[p] |= mask
            line_pts.append(tuple(sorted(pts)))
    return line_pts


def plane_scan(ctx, coords):
    """(pts, mask) of each plane: the zero set of its normal's form."""
    mt = [[ctx.mul(a, b) for b in range(ctx.size)] for a in range(ctx.size)]
    planes = []
    for nvec in coords:
        m0, m1, m2, m3 = (mt[c] for c in nvec)
        pts = tuple(idx for idx, (x0, x1, x2, x3) in enumerate(coords)
                    if m0[x0] ^ m1[x1] ^ m2[x2] ^ m3[x3] == 0)
        planes.append((pts, sum(1 << p for p in pts)))
    return planes


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_lines_match_pair_enumeration(fix, request):
    g = request.getfixturevalue(fix)
    coords = [p.coords for p in g.points]
    want = pair_enumeration_lines(g.ctx, coords)
    assert [ln.pts for ln in g.lines] == want
    assert [ln.pts[:2] for ln in g.lines] == [pts[:2] for pts in want]
    assert [ln.mask for ln in g.lines] == [sum(1 << p for p in pts)
                                           for pts in want]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_planes_match_scan(n, request):
    ctx = FieldCtx(n)
    coords = point_coords(ctx.size)
    want = plane_scan(ctx, coords)
    assert plane_masks(mul_table(ctx), coords) == [mask for _, mask in want]
    g = request.getfixturevalue(f"geo{n}")
    assert [(plane_points(pl), pl.mask) for pl in g.planes] == want


def test_plane_points_follow_the_mask(geo2):
    # the points are read off the mask, so a replaced mask cannot leave
    # stale points
    pl = geo2.planes[5]
    pts = plane_points(pl)
    assert pts == tuple(p for p in range(geo2.n_points) if pl.mask >> p & 1)
    moved = pl._replace(mask=pl.mask ^ 1 << pts[0])
    assert plane_points(moved) == pts[1:]
    assert list(Plane._fields) == ["index", "normal", "mask"]


def test_plane_masks_q16_sample():
    # the full scan of PG(3,16) is 19 M steps, too slow for tier-1; a
    # fixed sample of planes is checked by evaluating the form at every point
    ctx = FieldCtx(4)
    coords = point_coords(ctx.size)
    masks = plane_masks(mul_table(ctx), coords)
    mul = ctx.mul
    for i in random.Random(16).sample(range(len(coords)), 12):
        nvec = coords[i]
        want = sum(1 << k for k, x in enumerate(coords)
                   if not mul(nvec[0], x[0]) ^ mul(nvec[1], x[1])
                   ^ mul(nvec[2], x[2]) ^ mul(nvec[3], x[3]))
        assert masks[i] == want, i


def test_build_makes_no_per_pair_multiplications(monkeypatch):
    # the slice table needs q * n products; the per-pair enumeration made
    # 246,804 at q = 8
    calls = []
    real = FieldCtx.mul

    def counted(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul", counted)
    assert len(build_geometry(3).lines) == 4745
    assert len(calls) <= 64


def test_mul_table_matches_the_field():
    for n in range(1, 5):
        ctx = FieldCtx(n)
        assert mul_table(ctx) == [[ctx.mul(a, x) for x in range(ctx.size)]
                                  for a in range(ctx.size)]


def assert_equals_mask_peeling_build(g):
    coords, line_pts, line_masks, pmasks = mask_peeling_build(g.ctx.n)
    assert [p.coords for p in g.points] == coords
    assert [pl.mask for pl in g.planes] == pmasks
    assert g.line_pts == line_pts
    assert g.line_masks == line_masks


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_build_equals_the_mask_peeling_build(fix, request):
    assert_equals_mask_peeling_build(request.getfixturevalue(fix))


def pivot(vec) -> int:
    return next(k for k, x in enumerate(vec) if x)


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_each_line_starts_with_its_echelon_pair(fix, request):
    # u, the least point, has the later pivot c; v has v_c = 0; the
    # points ascend
    g = request.getfixturevalue(fix)
    coords = [p.coords for p in g.points]
    for row in g.line_rows():
        u, v = coords[row[0]], coords[row[1]]
        assert pivot(v) < pivot(u) and v[pivot(u)] == 0, row
        assert list(row) == sorted(set(row)), row


# --- the collineation kernel against per-point arithmetic ----------------

def oracle_point_permutation(g, m) -> list[int]:
    """The former kernel: multiply, normalize and look up every point."""
    mul = g.ctx.mul
    return [g.index_of(tuple(mul(row[0], x[0]) ^ mul(row[1], x[1])
                             ^ mul(row[2], x[2]) ^ mul(row[3], x[3])
                             for row in m))
            for x in (p.coords for p in g.points)]


def random_matrix(q: int, rng) -> tuple:
    return tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_index_matches_normalize(n, request):
    g = request.getfixturevalue(f"geo{n}")
    shifts = (3 * n, 2 * n, n, 0)
    assert g.vector_index[0] == -1
    for vec in product(range(g.q), repeat=4):
        if any(vec):
            packed = sum(c << s for c, s in zip(vec, shifts))
            assert g.vector_index[packed] == g.index_of(vec)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_permutation_matches_oracle(n, request):
    g = request.getfixturevalue(f"geo{n}")
    sc = singer_context(g, ExtFieldCtx.build(n))
    rng = random.Random(100 + n)
    mats = [sc.gen, sc.t_gen, singer_k(sc)[0]]
    while len(mats) < 13:
        m = random_matrix(g.q, rng)
        if not nullspace(g.ctx, m, 4):
            mats.append(m)
    for m in mats:
        perm = point_permutation(g, m)
        assert perm == oracle_point_permutation(g, m)
        assert sorted(perm) == list(range(g.n_points))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_permutation_rejects_singular_matrices(n, request):
    # a singular matrix sends its kernel's points to zero, which the
    # former kernel could not normalize either
    g = request.getfixturevalue(f"geo{n}")
    rng = random.Random(200 + n)
    singular = [((1, 0, 0, 0),) * 4, ((0,) * 4,) * 4]
    while len(singular) < 8:
        m = random_matrix(g.q, rng)
        if nullspace(g.ctx, m, 4):
            singular.append(m)
    for m in singular:
        with pytest.raises(ValueError, match="zero vector"):
            oracle_point_permutation(g, m)
        with pytest.raises(InvariantViolation, match="singular matrix"):
            point_permutation(g, m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_matches_nullspace(n, request):
    # the dual of line m: the points y with x . y = 0 for every x on m,
    # looked up as the meet of the planes indexed by m's generators
    g = request.getfixturevalue(f"geo{n}")

    def dual(li):
        a, b = g.lines[li].pts[:2]
        return g.line_of[g.planes[a].mask & g.planes[b].mask]

    for ln in g.lines:
        u, v = (g.points[x].coords for x in ln.pts[:2])
        a, b = nullspace(g.ctx, [u, v], 4)
        want = g.line_through(g.index_of(a), g.index_of(b)).index
        assert dual(ln.index) == want
        assert dual(want) == ln.index
