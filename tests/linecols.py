"""Lines through each point, read from the flat `line_pts` column, and
the points of a plane, read off its mask; the tables keep no such lists,
so the tests that need one build it here."""


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
