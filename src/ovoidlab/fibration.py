"""Singer group machinery: the cyclic generator from GF(q^4) multiplication,
its subgroup T of order q^2+1, the cycles of a permutation, T-orbit
fibrations, the orbits of a verified group on their members and lines,
common-tangent spreads and regularity checks, plus a budgeted search for
regular spreads inside a complex.

Regularity is read through the Klein correspondence, which maps each line
to its Plücker point on the Klein quadric of PG(5,q), skew lines to
non-collinear points.  A spread is regular iff its Plücker points lie in
one solid, whose section of the quadric is then elliptic (Bruck 1969;
Hirschfeld, Finite Projective Spaces of Three Dimensions, 1985, ch. 15
and 17), so the exhaustive check is one rank test.  The search closes its
partial spreads under reguli.  For q > 2 a closed set of pairwise skew
lines has 0, 1, 2, q+1 (a regulus) or q^2+1 lines: two lines and a third
close by one regulus, and a regulus and one more line by the solid their
Plücker points span, which cuts the quadric in q+2 pairwise non-collinear
points and so in an elliptic quadric of q^2+1.  At q = 2 a regulus is any
three skew lines, so every set of skew lines is closed.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache, reduce
from operator import or_, xor
from typing import Callable, NamedTuple

from .errors import (InvariantViolation, NotAFibration, NotALine,
                     NotASpread)
from .gfield import ExtFieldCtx, echelon, mat_pow, mult_matrix, nullspace
from .ovoids import Ovoid, is_ovoid
from .projspace import (GeometryTables, line_permutation, plucker,
                        point_permutation)


class SingerContext:
    """A Singer generator and its subgroup T, as matrices and as point
    permutations; hashed by identity, so caches keyed on it never hash
    the permutations."""

    def __init__(self, geometry: GeometryTables, ext: ExtFieldCtx, gen,
                 t_gen, gen_perm, t_perm):
        self.geometry, self.ext = geometry, ext
        # the Singer generator matrix over GF(q) and its power gen^(q+1)
        # of projective order q^2+1
        self.gen, self.t_gen = gen, t_gen
        self.gen_perm, self.t_perm = gen_perm, t_perm


class Fibration:
    """q+1 pairwise disjoint ovoids covering every point, labeled by
    least contained point index; hashed and compared by identity, so
    tables cached on it never hash the members.

    group, if given, is claimed to preserve the fibration: any object with
    the attributes gen and t_gen, each a 4x4 matrix over GF(q) or None,
    such as the SingerContext.  gen should permute the members in one
    cycle and t_gen fix each member; fibration_orbits checks both before a
    suite reads one line per orbit.
    """

    def __init__(self, members: tuple[Ovoid, ...], group=None):
        self.members, self.group = members, group


class Spread(NamedTuple):
    """Sorted indices of q^2+1 pairwise skew lines; compared by value."""
    lines: tuple[int, ...]


def singer_context(g: GeometryTables, ext: ExtFieldCtx) -> SingerContext:
    q = g.q
    gen = mult_matrix(ext.omega, ext)
    gen_perm = point_permutation(g, gen)
    order = len(perm_cycles(gen_perm)[0])
    if order != (q * q + 1) * (q + 1):
        raise InvariantViolation(
            f"Singer generator has projective order {order}, "
            f"expected {(q * q + 1) * (q + 1)}")
    t_gen = mat_pow(g.ctx, gen, q + 1)
    t_perm = point_permutation(g, t_gen)
    if len(perm_cycles(t_perm)[0]) != q * q + 1:
        raise InvariantViolation("T generator has wrong projective order")
    return SingerContext(g, ext, gen, t_gen, tuple(gen_perm), tuple(t_perm))


def perm_cycles(perm) -> list[list[int]]:
    """The cycles of perm, each walked from its least element, in
    increasing order of those elements.

    Raises InvariantViolation when a walk leaves range(len(perm)) or runs
    into an earlier walk instead of closing on its own start, which
    happens exactly when perm is not a permutation of range(len(perm)).
    """
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            cur = perm[cur]
            if not 0 <= cur < len(perm):
                raise InvariantViolation(
                    f"the walk from {start} leaves the range at {cur}")
        if cur != start:
            raise InvariantViolation(
                f"the walk from {start} runs into {cur} without closing")
        out.append(cycle)
    return out


@lru_cache(maxsize=2)
def t_orbit_fibration(sc: SingerContext) -> Fibration:
    """The point T-orbits, each an elliptic ovoid, as a fibration whose
    group is the Singer group; built once per Singer context.

    The Singer generator, once fibration_orbits has checked that it
    permutes the orbits in one cycle, maps the lines meeting member 0 in
    at most two points onto those of every other member, so member 0's
    ovoid check proves them all."""
    g = sc.geometry
    q = g.q
    try:
        orbits = perm_cycles(sc.t_perm)
    except InvariantViolation as exc:
        raise NotAFibration(f"t_perm is not a permutation: {exc}") from exc
    if len(orbits) != q + 1 or any(len(o) != q * q + 1 for o in orbits):
        raise NotAFibration("T-orbits do not split as q+1 sets of q^2+1")
    # perm_cycles lists the orbits by least point, the member label order
    fib = Fibration(tuple(Ovoid.from_points(o, "orbit") for o in orbits),
                    group=sc)
    for i, _ in fibration_orbits(fib, g).members:
        if not is_ovoid(fib.members[i].pts, g):
            raise NotAFibration("a T-orbit failed the ovoid check")
    return fib


def commute(a, b) -> bool:
    """True iff the permutations a and b of one range commute, checked
    entry by entry until the first that differs."""
    return not any(a[x] != b[y] for x, y in zip(b, a))


def orbit_leaders(perm, partner, items) -> list[int]:
    """The entries of `items` whose orbit under perm, partners included,
    holds no earlier one; partner is an involution that commutes with
    perm, such as a polar map."""
    seen = [False] * len(perm)
    out = []
    for x in items:
        if not seen[x]:
            out.append(x)
            while not seen[x]:
                seen[x] = seen[partner[x]] = True
                x = perm[x]
    return out


def _images(f: Fibration, g: GeometryTables, m) -> tuple | None:
    """(point permutation, member image masks) of the collineation with
    matrix m, the permutation recomputed from m; None if m is singular."""
    try:
        perm = point_permutation(g, m)
    except InvariantViolation:
        return None
    return perm, [sum(1 << perm[p] for p in ov.pts) for ov in f.members]


def _cycles_members(f: Fibration, g: GeometryTables, gen) -> bool:
    """True iff gen maps the q+1 members onto members in one cycle."""
    images = _images(f, g, gen)
    if images is None or len(images[1]) != g.q + 1:
        return False
    index = {ov.mask: i for i, ov in enumerate(f.members)}
    moved = [index.get(mask) for mask in images[1]]
    if None in moved:
        return False
    try:
        return len(perm_cycles(moved)) == 1
    except InvariantViolation:         # two members onto one
        return False


class Orbits:
    """One representative per orbit of a group of collineations that
    preserves a fibration, each with the size of its orbit.

    members holds (member, orbit size) for the group's orbits on the
    members; lines holds (line, orbit size) for the orbits on the lines of
    T, the subgroup fixing every member, and t_points and t_lines are T's
    point and line permutations.  Each representative is the least entry
    of its orbit.  Under the trivial group every member and every line is
    its own representative, of size 1, t_points is None and t_lines is
    the identity.

    gen and t_gen generate the group.  gen is kept only if it maps the
    members onto themselves in one cycle of length q+1, and t_gen only if
    it maps each member onto itself and every cycle of its line
    permutation has length q^2+1; each point permutation is recomputed
    from its matrix.
    """

    def __init__(self, f: Fibration, g: GeometryTables, gen=None,
                 t_gen=None):
        self.f, self.g, self._t_gen = f, g, t_gen
        self._grids = None, None        # the last polar map and its grids
        n = len(f.members)
        if gen is not None and _cycles_members(f, g, gen):
            self.members = [(0, n)]
        else:
            self.members = [(i, 1) for i in range(n)]

    @cached_property
    def _line_orbits(self) -> tuple:
        """(t_points, t_lines, lines), found when a suite first reads the
        lines."""
        g, t_gen = self.g, self._t_gen
        images = None if t_gen is None else _images(self.f, g, t_gen)
        if images and images[1] == [ov.mask for ov in self.f.members]:
            perm = images[0]
            tl = line_permutation(g, perm)
            try:
                cycles = perm_cycles(tl)
            except InvariantViolation:
                cycles = []
            if cycles and all(len(c) == g.q * g.q + 1 for c in cycles):
                return perm, tl, [(c[0], len(c)) for c in cycles]
        n = len(g.line_masks)
        return None, range(n), [(i, 1) for i in range(n)]

    @property
    def t_points(self) -> list[int] | None:
        return self._line_orbits[0]

    @property
    def t_lines(self):
        return self._line_orbits[1]

    @property
    def lines(self) -> list[tuple[int, int]]:
        return self._line_orbits[2]

    @property
    def reduced(self) -> bool:
        """True unless this is the trivial group."""
        return (len(self.members) < len(self.f.members)
                or len(self.lines) < len(self.t_lines))

    def orbit(self, li: int) -> list[int]:
        """The lines of li's orbit, from li."""
        out, nxt = [li], self.t_lines[li]
        while nxt != li:
            out.append(nxt)
            nxt = self.t_lines[nxt]
        return out

    def grids(self, polar) -> list[tuple[int, int, int]] | None:
        """(m, m^perp, orbit size) for one dual grid per orbit of T on the
        2-cycles m < m^perp of the polar map, m the least line of its
        grid's orbit; None unless T commutes with the polar map.

        T's orbits on lines have odd length, so a line's polar, unless it
        is the line itself, lies in another orbit: a grid's orbit is two
        line orbits, and their least line lies on the lesser side; with T
        dropped every 2-cycle is its own orbit.  The last polar map's list
        is kept, so the suites that read one map in turn walk it once."""
        if self._grids[0] is not polar:
            tl, out = self.t_lines, None
            if self.t_points is None:
                out = [(m, mp, 1) for m, mp in enumerate(polar) if m < mp]
            elif commute(tl, polar):
                size = dict(self.lines)
                out = [(m, polar[m], size[m]) for m in orbit_leaders(
                    tl, polar, (i for i, j in enumerate(polar) if i < j))]
            self._grids = polar, out
        return self._grids[1]


@lru_cache(maxsize=2)
def fibration_orbits(f: Fibration, g: GeometryTables) -> Orbits:
    """The orbits of f.group on f's members and lines, each generator
    kept only if its checks pass; those of the trivial group if f has no
    group.  Built once per fibration."""
    group = f.group
    if group is None:
        return trivial_orbits(f, g)
    return Orbits(f, g, group.gen, group.t_gen)


def trivial_orbits(f: Fibration, g: GeometryTables) -> Orbits:
    """Every member and every line of f, each its own orbit: the full
    sweep."""
    return Orbits(f, g)


def tangency_profile(line_mask: int, f: Fibration) -> tuple[int, int, int]:
    """(tangent, secant, external) counts of one line over the members."""
    tan = sec = ext = 0
    corrupt = False
    for ov in f.members:
        meet = (line_mask & ov.mask).bit_count()
        if meet == 1:
            tan += 1
        elif meet == 2:
            sec += 1
        elif meet == 0:
            ext += 1
        else:
            corrupt = True  # impossible for genuine ovoids
    # a tangent count of -1 flags corruption, whatever members follow
    return (-1 if corrupt else tan), sec, ext


def tangent_member(line_mask: int, f: Fibration) -> int | None:
    """Label of the unique member tangent to the line, None if not unique."""
    found = None
    for i, ov in enumerate(f.members):
        if (line_mask & ov.mask).bit_count() == 1:
            if found is not None:
                return None
            found = i
    return found


class LineTangency(NamedTuple):
    """profile(li) and label(li): tangency_profile and tangent_member of
    line li over the members, each computed once, when first read."""
    profile: Callable[[int], tuple[int, int, int]]
    label: Callable[[int], int | None]


@lru_cache(maxsize=2)
def line_tangency(f: Fibration, g: GeometryTables) -> LineTangency:
    """f's table, built once per fibration and geometry; it reads no
    group, so a reduced run and the full sweep after it share it."""
    return LineTangency(cache(lambda i: tangency_profile(g.line_masks[i], f)),
                        cache(lambda i: tangent_member(g.line_masks[i], f)))


def common_tangents(f: Fibration, g: GeometryTables, orbits: Orbits
                    ) -> list[int]:
    """Sorted indices of the lines tangent to every member, read on one
    line per orbit of `orbits`."""
    every, profile = (len(f.members), 0, 0), line_tangency(f, g).profile
    return sorted(li for rep, _ in orbits.lines if profile(rep) == every
                  for li in orbits.orbit(rep))


def common_tangent_spread(f: Fibration, g: GeometryTables,
                          orbits: Orbits | None = None) -> Spread:
    """Lines tangent to every member, read on `orbits` (by default the
    fibration's group); must be q^2+1 pairwise skew lines."""
    q = g.q
    out = common_tangents(f, g, orbits or fibration_orbits(f, g))
    if len(out) != q * q + 1:
        raise NotAFibration(
            f"common tangent set has {len(out)} lines, expected {q * q + 1}")
    # q^2+1 distinct lines cover every point exactly when they are skew
    if not _is_spread(out, g):
        raise NotAFibration("common tangent lines are not pairwise skew")
    return Spread(tuple(out))


def _is_spread(lines, g: GeometryTables) -> bool:
    if len(set(lines)) != g.q * g.q + 1 or not all(
            type(li) is int and 0 <= li < len(g.line_masks) for li in lines):
        return False
    acc = 0
    for li in lines:
        m = g.line_masks[li]
        if acc & m:
            return False
        acc |= m
    return acc == g.all_one


def is_regular_spread(s: Spread, g: GeometryTables, *,
                      sample: int | None = None, seed: int = 0) -> bool:
    """True iff the regulus of every line triple stays inside the spread.

    That holds iff the Plücker points of the lines lie in one solid of
    PG(5,q), so the exhaustive check is one rank test.  sample=N instead
    checks the reguli of N random triples.  Raises NotASpread unless s is
    q^2+1 pairwise skew lines of g.
    """
    if not _is_spread(s.lines, g):
        raise NotASpread("input is not a spread")
    lines = s.lines
    if sample is None:
        return len(echelon(g.ctx, (plucker(g, li) for li in lines),
                           stop=5)) <= 4
    import random
    rng = random.Random(seed)
    inside = set(lines)
    for _ in range(sample):
        a, b, c = sorted(rng.sample(range(len(lines)), 3))
        if not inside.issuperset(g._regulus_lines(lines[a], lines[b],
                                                  lines[c])):
            return False
    return True


def find_regular_spread_in_complex(tl, g: GeometryTables, *,
                                   budget: int = 10 ** 6,
                                   progress=None):
    """Best-effort backtracking search for a regular spread inside the
    line set tl (JSON-friendly result; NotFound is not a disproof).

    Extends partial spreads by the line through the least uncovered point,
    closing each under reguli; returns (spread_lines | None, nodes), with
    nodes <= budget.  Raises NotALine naming the first entry of tl that is
    not an int line index of g (a bool is not one).
    """
    masks = g.line_masks
    nl = len(masks)
    tl = list(tl)
    bad = [li for li in tl if type(li) is not int or not 0 <= li < nl]
    if bad:
        raise NotALine(f"line index {bad[0]!r} is not an int in "
                       f"0..{nl - 1}")
    tlset = set(tl)
    q, mul = g.q, g.ctx.mul
    target = q * q + 1
    lines_by_point: list[list[int]] = [[] for _ in range(g.n_points)]
    for li in sorted(tlset):
        for p in g.line_row(li):
            lines_by_point[p].append(li)
    nodes = 0

    def least_point(covered: int) -> int:
        uncovered = g.all_one & ~covered
        return (uncovered & -uncovered).bit_length() - 1

    def closure(chosen: list[int], covered: int, new: int):
        """(lines, points covered) of the least regulus-closed set holding
        chosen, itself closed and covering `covered`, and new, a line
        skew to it; None when one of its lines is outside tl.  For q > 2
        a closed set of pairwise skew lines has 0, 1, 2, q+1 (a regulus)
        or q^2+1 lines; at q = 2 a regulus is any three skew lines, so
        every set is closed."""
        n = len(chosen)
        if n < 2 or q == 2:
            return [*chosen, new], covered | masks[new]
        if n == 2:
            reg = g._regulus_lines(chosen[0], chosen[1], new)
            if not tlset.issuperset(reg):
                return None
            return reg, reduce(or_, map(masks.__getitem__, reg))
        if n != q + 1:
            raise InvariantViolation(
                f"a regulus-closed partial spread has {n} lines")
        # the Plücker points of three regulus lines and new span a solid,
        # cut out by the linear complexes eqs; its section of the Klein
        # quadric holds q+2 pairwise non-collinear points, so it is
        # elliptic, and its q^2+1 lines, one through each point, are the
        # ones the reguli force
        eqs = nullspace(g.ctx, [plucker(g, li)
                                for li in (*chosen[:3], new)], 6)
        grown = list(chosen)
        while covered != g.all_one:
            p = least_point(covered)
            li = next((li for li in lines_by_point[p]
                       if not masks[li] & covered and not any(
                           reduce(xor, map(mul, plucker(g, li), e))
                           for e in eqs)), None)
            if li is None:
                return None
            grown.append(li)
            covered |= masks[li]
        return grown, covered

    def search(chosen: list[int], covered: int):
        nonlocal nodes
        if len(chosen) == target:
            # closure keeps the chosen lines pairwise disjoint
            sp = Spread(tuple(sorted(chosen)))
            if is_regular_spread(sp, g):
                return sp.lines
            return None
        if nodes >= budget:
            return None
        for li in lines_by_point[least_point(covered)]:
            if masks[li] & covered:
                continue
            nodes += 1
            if nodes >= budget:
                return None
            if progress and nodes % 100000 == 0:
                progress(nodes)
            grown = closure(chosen, covered, li)
            if grown is None:
                continue
            res = search(*grown)
            if res is not None or nodes >= budget:
                return res             # found, or the budget is spent
        return None

    result = search([], 0)
    return result, nodes
