"""K-orbit fibrations: the group K fixing every line of a regular spread,
and the fibration its orbit of an ovoid tangent to the spread gives.

A second fibration family for the tests.  A regular spread's line-fixing
collineations form a cyclic group of order q+1; for the common-tangent
spread of a T-orbit fibration it is the Singer subgroup K, and the K-orbit
of a member is the T-orbit fibration again.
"""

from typing import NamedTuple

from ovoidlab.errors import NotAFibration, OvoidlabError
from ovoidlab.fibration import (Fibration, SingerContext, Spread,
                                is_regular_spread, perm_cycles)
from ovoidlab.gfield import mat_pow, nullspace
from ovoidlab.ovoids import Ovoid, is_ovoid, tangent_lines
from ovoidlab.projspace import GeometryTables, point_permutation


class NotRegular(OvoidlabError):
    """The spread is not regular (or its fixing group has the wrong order)."""


class SpreadNotTangent(OvoidlabError):
    """A spread line is not tangent to the given ovoid."""


class Symmetry(NamedTuple):
    """A group for Fibration.group, by its generator matrices: gen
    permutes the members in one cycle and t_gen fixes each; None for
    neither."""
    gen: tuple | None = None
    t_gen: tuple | None = None


def singer_k(sc: SingerContext) -> tuple[tuple, list[int]]:
    """The generator gen^(q^2+1) of the Singer subgroup K of order q+1, as
    a matrix and as a point permutation."""
    g = sc.geometry
    k_gen = mat_pow(g.ctx, sc.gen, g.q * g.q + 1)
    return k_gen, point_permutation(g, k_gen)


def _line_forms(g: GeometryTables, li: int):
    """Two independent linear forms vanishing on the line."""
    ln = g.lines[li]
    u = g.points[ln.pts[0]].coords
    v = g.points[ln.pts[1]].coords
    return nullspace(g.ctx, [u, v], 4)


def k_stabilizer(s: Spread, g: GeometryTables) -> list[tuple]:
    """All projective collineations fixing every spread line setwise.

    Solves the homogeneous conditions "M maps the line's generators into
    the line's span" over the 16 matrix entries; for a regular spread the
    solution algebra is a field of order q^2, giving a cyclic group of
    order q+1 in PGL(4,q).
    """
    ctx = g.ctx
    mul = ctx.mul
    rows = []
    for li in s.lines:
        ln = g.lines[li]
        forms = _line_forms(g, li)
        for gen_pt in ln.pts[:2]:
            u = g.points[gen_pt].coords
            for w in forms:
                # coefficient of M[i][j] in w . (M u) is w_i * u_j
                rows.append(tuple(mul(w[i], u[j])
                                  for i in range(4) for j in range(4)))
    basis = nullspace(ctx, rows, 16)
    if len(basis) != 2:
        raise NotRegular(
            f"line-fixing solution space has dimension {len(basis)}, want 2")

    def to_mat(vec):
        return tuple(tuple(vec[4 * i + j] for j in range(4)) for i in range(4))

    cands = [to_mat(basis[1])]
    for a in range(ctx.size):
        vec = [x ^ mul(a, y) for x, y in zip(basis[0], basis[1])]
        cands.append(to_mat(vec))
    mats = [m for m in cands if not nullspace(ctx, m, 4)]
    if len(mats) != g.q + 1:
        raise NotRegular(f"fixing group has order {len(mats)}, want {g.q + 1}")
    # closure check up to scalars, via the induced point permutations
    perms = {tuple(point_permutation(g, m)) for m in mats}
    if len(perms) != g.q + 1:
        raise NotRegular("solutions are not projectively distinct")
    some = list(perms)
    for p1 in some:
        for p2 in some:
            if tuple(p2[i] for i in p1) not in perms:
                raise NotRegular("fixing set is not closed under composition")
    return mats


def fibrate_ovoid(theta: Ovoid, s: Spread, g: GeometryTables) -> Fibration:
    """K-orbit of theta under the group fixing each spread line."""
    tset = set(tangent_lines(theta, g))
    missing = [li for li in s.lines if li not in tset]
    if missing:
        raise SpreadNotTangent(
            f"{len(missing)} spread lines are not tangent to the ovoid")
    if not is_regular_spread(s, g):
        raise NotRegular("spread fails the regulus-closure check")
    mats = k_stabilizer(s, g)
    images = set()
    for m in mats:
        perm = point_permutation(g, m)
        images.add(tuple(sorted(perm[p] for p in theta.pts)))
    if len(images) != g.q + 1:
        raise NotAFibration(
            f"K-orbit of the ovoid has size {len(images)}, want {g.q + 1}")
    members = [Ovoid.from_points(pts, theta.kind) for pts in sorted(images)]
    members.sort(key=lambda ov: ov.pts[0])
    acc = 0
    for ov in members:
        if acc & ov.mask:
            raise NotAFibration("K-orbit members overlap")
        acc |= ov.mask
    if acc != g.all_one:
        raise NotAFibration("K-orbit members do not cover every point")
    for ov in members:
        if not is_ovoid(ov.pts, g):
            raise NotAFibration("a K-orbit member is not an ovoid")
    return Fibration(tuple(members))


def k_generator(s: Spread, g: GeometryTables) -> tuple:
    """A generator of the cyclic group K of order q+1 that fixes every
    line of the regular spread s: K acts on the points without fixed
    points, so a generator's point cycles have length q+1."""
    return next(m for m in k_stabilizer(s, g)
                if len(perm_cycles(point_permutation(g, m))[0]) == g.q + 1)
