"""Lines through each point, read from the flat `line_pts` column; the
tables keep no such list, so the tests that need one build it here."""


def lines_by_point(g) -> list[list[int]]:
    """Entry p lists the indices of the lines through point p, ascending."""
    k = g.q + 1
    out: list[list[int]] = [[] for _ in range(g.n_points)]
    for i, p in enumerate(g.line_pts):
        out[p].append(i // k)
    return out
