"""Lines through each point, read from the flat `line_pts` column, the
points of a plane, read off its mask, and the tangency table of a
fibration; the tables keep no such lists, so the tests that need one
build it here.  Also the former geometry build, which peeled each line's
points off its mask, as the oracle of the echelon-pair build."""

from array import array
from functools import reduce
from itertools import product
from operator import xor

from ovoidlab.gfield import FieldCtx
from ovoidlab.ovoids import line_meets


def lines_by_point(g) -> list[list[int]]:
    """Entry p lists the indices of the lines through point p, ascending."""
    k = g.q + 1
    out: list[list[int]] = [[] for _ in range(g.n_points)]
    for i, p in enumerate(g.line_pts):
        out[p].append(i // k)
    return out


def plane_points(pl) -> tuple[int, ...]:
    """The q^2+q+1 points of plane pl, ascending, read off its mask."""
    mask = pl.mask
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


def tangency_table(f, g):
    """(profiles, labels): entry i holds tangency_profile and
    tangent_member of line i, read from the members' line_meets vectors.
    The suites read the per-line kernels on one line per orbit instead;
    this whole-table sweep is their oracle.  Equal profiles share one
    tuple."""
    vecs = [line_meets(ov.mask, g) for ov in f.members]
    profiles, labels = [], []
    share = {}.setdefault
    # the masks lead the zip, so every line gets an entry even with no members
    for _, *col in zip(g.line_masks, *vecs):
        tan, sec, ext = col.count(1), col.count(2), col.count(0)
        # a tangent count of -1 flags a meet above 2, as in tangency_profile
        prof = (tan if tan + sec + ext == len(col) else -1, sec, ext)
        profiles.append(share(prof, prof))
        labels.append(col.index(1) if tan == 1 else None)
    return tuple(profiles), tuple(labels)


def _members(mask: int) -> list[int]:
    """The set bits of mask, in ascending order."""
    out = []
    while mask:                        # top bit first: the int shrinks
        k = mask.bit_length() - 1
        out.append(k)
        mask ^= 1 << k
    out.reverse()
    return out


def _plane_masks(ctx: FieldCtx, coords) -> list[int]:
    """Point mask of each plane, bit-sliced from the q*n products a*2^j."""
    n = ctx.n
    slices = [[0] * n for _ in range(4)]
    for idx, vec in enumerate(coords):
        for k, c in enumerate(vec):
            for j in range(n):
                if c >> j & 1:
                    slices[k][j] |= 1 << idx
    images = [[ctx.mul(a, 1 << j) for j in range(n)]
              for a in range(ctx.size)]
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


def mask_peeling_build(n: int):
    """(coords, line_pts, line_masks, plane masks) of PG(3,2^n) as the
    former build made them: the points filtered from all q^4 tuples, and
    the lines found as the first pair (i, j) not yet joined, their points
    peeled off the meet of the two least planes through i and j."""
    ctx = FieldCtx(n)
    coords = [vec for vec in product(range(ctx.size), repeat=4)
              if next((c for c in vec if c), None) == 1]
    pmasks = _plane_masks(ctx, coords)
    npts = len(coords)
    joined = [0] * npts                # bit j of joined[i]: i, j on a line
    line_pts = array("H")
    line_masks = []
    after = (1 << npts) - 1
    for i in range(npts):
        after ^= 1 << i                # the points j > i
        rest = after & ~joined[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            through = pmasks[i] & pmasks[j]
            a = through & -through
            through ^= a
            mask = (pmasks[a.bit_length() - 1]
                    & pmasks[(through & -through).bit_length() - 1])
            pts = _members(mask)
            for p in pts:
                joined[p] |= mask
            rest &= ~mask
            line_pts.extend(pts)
            line_masks.append(mask)
    return coords, line_pts, line_masks, pmasks
