"""Singer group machinery: the cyclic generator from GF(q^4) multiplication,
its subgroup T of order q^2+1, the cycles of a permutation, T-orbit
fibrations, the orbits of a verified group on their members and lines,
common-tangent spreads and regularity checks, plus a budgeted search for
regular spreads inside a complex."""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (InvariantViolation, NotAFibration, NotALine,
                     NotASpread)
from .gfield import ExtFieldCtx, mat_pow, mult_matrix
from .ovoids import Ovoid, is_ovoid
from .projspace import GeometryTables, line_permutation, point_permutation


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
        line orbits, and their least line lies on the lesser side.  The
        last polar map's list is kept, so the suites that read one map in
        turn walk it once."""
        if self._grids[0] is not polar:
            tl, out = self.t_lines, None
            if commute(tl, polar):
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


def common_tangents(f: Fibration, g: GeometryTables, orbits: Orbits
                    ) -> list[int]:
    """Sorted indices of the lines tangent to every member, read on one
    line per orbit of `orbits`."""
    every, masks = (len(f.members), 0, 0), g.line_masks
    return sorted(li for rep, _ in orbits.lines
                  if tangency_profile(masks[rep], f) == every
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
    if (len(set(lines)) != g.q * g.q + 1 or min(lines) < 0
            or max(lines) >= len(g.line_masks)):
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

    sample=N checks N random triples instead of all of them.  Three skew
    lines lie in exactly one regulus, so once a regulus is found inside the
    spread all its triples are marked done and skipped: the exhaustive
    check walks the line pairs and computes q(q^2+1) reguli instead of one
    per triple.
    """
    return _reguli_inside(s, g, range(len(s.lines)), sample, seed)


def regular_through(s: Spread, lines, g: GeometryTables) -> bool:
    """True iff the regulus through each line of `lines` and any two
    later lines of the spread stays inside it; a KeyError names a line of
    `lines` outside the spread.

    With every spread line this is is_regular_spread.  When a group maps
    the spread onto itself transitively, the least spread line alone
    suffices: the group carries every regulus of the spread onto one
    through that line.
    """
    pos = {li: i for i, li in enumerate(s.lines)}
    return _reguli_inside(s, g, sorted(pos[li] for li in lines))


def _reguli_inside(s: Spread, g: GeometryTables, starts,
                   sample: int | None = None, seed: int = 0) -> bool:
    """The walk of is_regular_spread over the triples a < b < c of spread
    positions with a in starts, or over `sample` random triples."""
    if not _is_spread(s.lines, g):
        raise NotASpread("input is not a spread")
    lines = s.lines
    k = len(lines)
    pos = {li: i for i, li in enumerate(lines)}
    # done[a * k + b] has bit c set once triple (a, b, c) lies in a regulus
    # already proved to be inside the spread
    done = [0] * (k * k)
    if sample is None:
        triples = _pair_walk(k, done, starts)
    else:
        import random
        rng = random.Random(seed)
        triples = (tuple(sorted(rng.sample(range(k), 3)))
                   for _ in range(sample))
    for a, b, c in triples:
        if done[a * k + b] >> c & 1:
            continue
        reg = []
        for li in g._regulus_lines(lines[a], lines[b], lines[c]):
            i = pos.get(li)
            if i is None:
                return False
            reg.append(i)
        reg.sort()
        mask = sum(1 << i for i in reg)
        for j, x in enumerate(reg):
            for y in reg[j + 1:]:
                done[x * k + y] |= mask
    return True


def _pair_walk(k: int, done: list[int], starts):
    """The triples a < b < c < k with a in starts, pair by pair, skipping
    each c whose bit is set in done[a * k + b]; done is read again after
    every yield."""
    full = (1 << k) - 1
    for a in starts:
        for b in range(a + 1, k):
            ab = a * k + b
            todo = (full >> b + 1 << b + 1) & ~done[ab]
            while todo:
                yield a, b, (todo & -todo).bit_length() - 1
                todo &= ~done[ab]


def find_regular_spread_in_complex(tl, g: GeometryTables, *,
                                   budget: int = 10 ** 6,
                                   progress=None):
    """Best-effort backtracking search for a regular spread inside the
    line set tl (JSON-friendly result; NotFound is not a disproof).

    Extends partial spreads by the line through the least uncovered point,
    propagating regulus closure; returns (spread_lines | None, nodes),
    with nodes <= budget.  Raises NotALine naming the first entry of tl
    that is not a line index of g.
    """
    masks = g.line_masks
    nl = len(masks)
    tl = list(tl)
    bad = [li for li in tl if li not in range(nl)]
    if bad:
        raise NotALine(f"line index {bad[0]!r} is outside 0..{nl - 1}")
    tlset = set(tl)
    q = g.q
    target = q * q + 1
    lines_by_point: dict[int, list[int]] = {}
    for li in sorted(tlset):
        for p in g.line_row(li):
            lines_by_point.setdefault(p, []).append(li)
    nodes = 0
    # regulus id, in the order found -> its lines; line -> the mask of the
    # ids of the reguli through it
    reg_lines: list[list[int]] = []
    reg_of = [0] * nl

    def closure(chosen: list[int], covered: int, new: int):
        """Add new plus all regulus-forced lines; None on conflict."""
        chosen = list(chosen)
        at = {li: i for i, li in enumerate(chosen)}
        seen = set(chosen)
        seen.add(new)
        queue = [new]
        # fresh per closure, since a failed sibling may have walked a
        # regulus it never added: the ids walked, and regulus id -> the
        # mask of its lines' positions in chosen, exact for each id held
        walked: set[int] = set()
        held: dict[int, int] = {}

        def force(rid: int) -> bool:
            """Queue the unseen lines of regulus rid; False when one is
            outside tl or meets a chosen line."""
            walked.add(rid)
            for t in reg_lines[rid]:
                if t not in tlset:
                    return False
                if t not in seen:
                    if covered & masks[t]:
                        return False
                    seen.add(t)
                    queue.append(t)
            return True

        while queue:
            li = queue.pop()
            m = masks[li]
            if covered & m or li not in tlset:
                return None, None
            covered |= m
            n = at[li] = len(chosen)
            chosen.append(li)
            if n >= target:
                return None, None
            x = rli = reg_of[li]
            while x:
                rid = x.bit_length() - 1
                x ^= 1 << rid
                if rid in held:
                    held[rid] |= 1 << n
            # the reguli through la = chosen[a], li and a chosen line
            # between them: the known ones through la and li that hold
            # such a line, then the kernel for each line none of them holds;
            # chosen[:n] is closed, so no later la needs a regulus found here
            for a, la in enumerate(chosen[:n - 1]):
                todo = (1 << n) - (2 << a)
                known = rli & reg_of[la]
                while todo:
                    if known:
                        rid = known.bit_length() - 1
                        known ^= 1 << rid
                    else:
                        rid = len(reg_lines)
                        lb = chosen[(todo & -todo).bit_length() - 1]
                        reg_lines.append(g._regulus_lines(la, lb, li))
                        for t in reg_lines[rid]:
                            reg_of[t] |= 1 << rid
                    hit = held.get(rid)
                    if hit is None:
                        hit = held[rid] = sum(1 << at[t]
                                              for t in reg_lines[rid]
                                              if t in at)
                    if hit & todo:
                        todo &= ~hit
                        if rid not in walked and not force(rid):
                            return None, None
        return chosen, covered

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
        uncovered = g.all_one & ~covered
        p = (uncovered & -uncovered).bit_length() - 1
        for li in lines_by_point.get(p, ()):
            if masks[li] & covered:
                continue
            nodes += 1
            if nodes >= budget:
                return None
            if progress and nodes % 100000 == 0:
                progress(nodes)
            ext_chosen, ext_covered = closure(chosen, covered, li)
            if ext_chosen is None:
                continue
            res = search(ext_chosen, ext_covered)
            if res is not None or nodes >= budget:
                return res             # found, or the budget is spent
        return None

    result = search([], 0)
    return result, nodes
