"""Lines through each point, read from the flat `line_pts` column, the
points of a plane, read off its mask, and the tangency table of a
fibration; the tables keep no such lists, so the tests that need one
build it here."""

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
