"""Differential tests for the regulus kernel, the Klein regularity test
and the spread search.

`oracle_is_regular_spread` is the original triple sweep: it recomputes the
regulus of every line triple with its own per-point transversal search
(`oracle_transversals`) and shares no code with
`GeometryTables._regulus_lines`.  `walk_is_regular_spread` is the
regularity check that walked the line pairs and computed each regulus of
the spread once with the kernel, before the Plücker rank test replaced it.
The rank test `is_regular_spread` and the spread search must agree with
them.  `oracle_search` is the spread search with a closure that
recomputes every triple until nothing is new; `listscan_search` is the
search with the closure it had before reguli were numbered: a known
regulus is found by scanning the reguli met through a line pair, and a
regulus's lines by scanning the list; `regid_search` is the search with
the closure that numbered the reguli, before a regulus plus one line was
closed through the solid their Plücker points span.
"""

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from ovoidlab import (ExtFieldCtx, common_tangent_spread, singer_context,
                      t_orbit_fibration)
from ovoidlab import fibration
from ovoidlab.errors import NotALine, NotASpread
from ovoidlab.fibration import (Spread, find_regular_spread_in_complex,
                                is_regular_spread)
from ovoidlab.ovoids import elliptic_quadric, tangent_lines, tits_ovoid

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json")
    .read_text())["search-spread"]


def oracle_transversals(g, l1, l2, l3):
    """The unique transversal through each point of l1 meeting l2 and l3."""
    pair_to_line = g.pair_to_line
    masks, pts2 = g.line_masks, g.lines[l2].pts
    out = []
    for p in g.lines[l1].pts:
        for x in pts2:
            li = pair_to_line[(p, x) if p < x else (x, p)]
            if masks[li] & masks[l3]:
                out.append(li)
                break
    return out


def oracle_regulus(g, l1, l2, l3):
    """The regulus: transversals of three of the lines' transversals."""
    return oracle_transversals(g, *oracle_transversals(g, l1, l2, l3)[:3])


def regulus(g, l1, l2, l3):
    """(R, R_opp), each sorted: the regulus through three pairwise skew
    lines and its opposite, their transversals, read from the kernels."""
    opp = sorted(g._transversal_lines(l1, l2, l3))
    return tuple(sorted(g._transversal_lines(*opp[:3]))), tuple(opp)


def oracle_is_regular_spread(s, g, *, sample=None, seed=0):
    """Check the regulus of every (or of `sample` random) line triples."""
    members = set(s.lines)
    lines = s.lines
    k = len(lines)
    if sample is None:
        triples = ((a, b, c) for a in range(k) for b in range(a + 1, k)
                   for c in range(b + 1, k))
    else:
        rng = random.Random(seed)
        triples = (tuple(sorted(rng.sample(range(k), 3)))
                   for _ in range(sample))
    for a, b, c in triples:
        if not set(oracle_regulus(g, lines[a], lines[b], lines[c])) \
                <= members:
            return False
    return True


def oracle_search(tl, g, budget):
    """The spread search of find_regular_spread_in_complex with a plain
    closure: every triple of the grown line set, until nothing is new."""
    tlset = set(tl)
    glines = list(g.lines)             # each Line record built once
    target = g.q * g.q + 1
    by_point = {}
    for li in sorted(tlset):
        for p in glines[li].pts:
            by_point.setdefault(p, []).append(li)
    memo = {}
    nodes = 0

    def closure(chosen, new):
        grown = chosen | {new}
        while True:
            if not grown <= tlset or len(grown) > target:
                return None
            covered = 0
            for li in grown:
                if covered & glines[li].mask:
                    return None
                covered |= glines[li].mask
            more = set()
            for t in combinations(sorted(grown), 3):
                if t not in memo:
                    memo[t] = set(oracle_regulus(g, *t))
                more |= memo[t]
            if more <= grown:
                return grown
            grown |= more

    def search(chosen):
        nonlocal nodes
        if len(chosen) == target:
            sp = Spread(tuple(sorted(chosen)))
            return sp.lines if oracle_is_regular_spread(sp, g) else None
        if nodes >= budget:
            return None
        covered = 0
        for li in chosen:
            covered |= glines[li].mask
        uncovered = g.all_one & ~covered
        p = (uncovered & -uncovered).bit_length() - 1
        for li in by_point.get(p, ()):
            if glines[li].mask & covered:
                continue
            nodes += 1
            if nodes >= budget:
                return None
            grown = closure(chosen, li)
            if grown is None:
                continue
            res = search(grown)
            if res is not None or nodes >= budget:
                return res
        return None

    return search(set()), nodes


def listscan_search(tl, g, budget):
    """find_regular_spread_in_complex with its earlier closure: each
    regulus is a frozenset listed under every pair of its lines, a known
    one is found by scanning that list for the third line, and a closure
    skips the later lines of a regulus found through (la, li) by set
    membership.  It computes every regulus with g._regulus_lines and ends
    in fibration.is_regular_spread, as the search does."""
    tlset = set(tl)
    target = g.q * g.q + 1
    masks = g.line_masks
    nl = len(masks)
    lines_by_point = {}
    for li in sorted(tlset):
        for p in g.line_row(li):
            lines_by_point.setdefault(p, []).append(li)
    nodes = 0
    reguli = {}

    def regulus_of(x, y, z):
        for r in reguli.get(x * nl + y if x < y else y * nl + x, ()):
            if z in r:
                return r
        r = frozenset(g._regulus_lines(x, y, z))
        members = sorted(r)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                reguli.setdefault(u * nl + v, []).append(r)
        return r

    def closure(chosen, covered, new):
        chosen = list(chosen)
        seen = set(chosen)
        seen.add(new)
        queue = [new]
        walked = set()

        def force(r):
            for t in r:
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
            chosen.append(li)
            if len(chosen) > target:
                return None, None
            for a in range(len(chosen) - 1):
                la = chosen[a]
                found = set()
                for b in range(a + 1, len(chosen) - 1):
                    lb = chosen[b]
                    if lb in found:
                        continue
                    r = regulus_of(la, lb, li)
                    found |= r
                    if r not in walked:
                        walked.add(r)
                        if not force(r):
                            return None, None
        return chosen, covered

    def search(chosen, covered):
        nonlocal nodes
        if len(chosen) == target:
            sp = Spread(tuple(sorted(chosen)))
            return sp.lines if fibration.is_regular_spread(sp, g) else None
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
            ext_chosen, ext_covered = closure(chosen, covered, li)
            if ext_chosen is None:
                continue
            res = search(ext_chosen, ext_covered)
            if res is not None or nodes >= budget:
                return res
        return None

    return search([], 0), nodes


def walk_is_regular_spread(s, g):
    """True iff the regulus of every line triple stays inside the spread.

    Three skew lines lie in exactly one regulus, so once a regulus is
    found inside the spread all its triples are marked done and skipped:
    the walk computes q(q^2+1) reguli, not one per triple.
    """
    lines = s.lines
    k = len(lines)
    pos = {li: i for i, li in enumerate(lines)}
    # done[a * k + b] has bit c set once triple (a, b, c) lies in a regulus
    # already proved to be inside the spread
    done = [0] * (k * k)
    for a, b, c in pair_walk(k, done, range(k)):
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


def pair_walk(k, done, starts):
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


def regid_search(tl, g, budget):
    """find_regular_spread_in_complex with the closure that numbered the
    reguli as it computed them and kept per line the bitmask of the ids of
    the reguli through it, so the known reguli through a line pair were
    one AND of two masks.  It ends in fibration.is_regular_spread, as the
    search does."""
    masks = g.line_masks
    nl = len(masks)
    tlset = set(tl)
    q = g.q
    target = q * q + 1
    lines_by_point = {}
    for li in sorted(tlset):
        for p in g.line_row(li):
            lines_by_point.setdefault(p, []).append(li)
    nodes = 0
    # regulus id, in the order found -> its lines; line -> the mask of the
    # ids of the reguli through it
    reg_lines = []
    reg_of = [0] * nl

    def closure(chosen, covered, new):
        """Add new plus all regulus-forced lines; None on conflict."""
        chosen = list(chosen)
        at = {li: i for i, li in enumerate(chosen)}
        seen = set(chosen)
        seen.add(new)
        queue = [new]
        # fresh per closure, since a failed sibling may have walked a
        # regulus it never added: the ids walked, and regulus id -> the
        # mask of its lines' positions in chosen, exact for each id held
        walked = set()
        held = {}

        def force(rid):
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

    def search(chosen, covered):
        nonlocal nodes
        if len(chosen) == target:
            sp = Spread(tuple(sorted(chosen)))
            return sp.lines if fibration.is_regular_spread(sp, g) else None
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
            ext_chosen, ext_covered = closure(chosen, covered, li)
            if ext_chosen is None:
                continue
            res = search(ext_chosen, ext_covered)
            if res is not None or nodes >= budget:
                return res
        return None

    return search([], 0), nodes


@pytest.fixture(scope="module")
def spread1(geo1):
    fib = t_orbit_fibration(singer_context(geo1, ExtFieldCtx.build(1)))
    return common_tangent_spread(fib, geo1)


def _spreads(request, q_fixture):
    geo, spread = {"q2": ("geo1", "spread1"), "q4": ("geo2", "spread2"),
                   "q8": ("geo3", "spread3")}[q_fixture]
    return request.getfixturevalue(geo), request.getfixturevalue(spread)


def _reversed(spread, g, start=0):
    """Replace the regulus through three spread lines by its opposite: a
    spread that is not regular once q > 2."""
    reg, opp = regulus(g, *spread.lines[start:start + 3])
    return Spread(tuple(sorted((set(spread.lines) - set(reg)) | set(opp))))


@pytest.mark.parametrize("q", ["q2", "q4", "q8"])
def test_singer_spread_verdict_matches_oracle(request, q):
    g, spread = _spreads(request, q)
    assert is_regular_spread(spread, g) is True
    assert walk_is_regular_spread(spread, g) is True
    assert oracle_is_regular_spread(spread, g) is True


# starts 0 and 7, then six more drawn with a fixed seed; a start below 15
# names three of the 17 spread lines at q = 4
REVERSED_STARTS = [0, 7] + random.Random(9).sample(
    [s for s in range(15) if s not in (0, 7)], 6)


@pytest.mark.parametrize("q", ["q4", "q8"])
@pytest.mark.parametrize("start", REVERSED_STARTS)
def test_reversed_spread_verdict_matches_oracle(request, q, start):
    g, spread = _spreads(request, q)
    mutated = _reversed(spread, g, start)
    assert mutated.lines != spread.lines
    assert is_regular_spread(mutated, g) is False
    assert walk_is_regular_spread(mutated, g) is False
    assert oracle_is_regular_spread(mutated, g) is False


@pytest.mark.parametrize("q", ["q4", "q8"])
@pytest.mark.parametrize("sample", [None, 50])
def test_klein_check_rejects_a_non_spread(request, q, sample):
    # one spread line swapped for another line: q^2+1 lines, not skew
    g, spread = _spreads(request, q)
    swap = next(li for li in range(len(g.line_masks))
                if li not in spread.lines)
    with pytest.raises(NotASpread):
        is_regular_spread(Spread(spread.lines[1:] + (swap,)), g,
                          sample=sample)


@pytest.mark.parametrize("q,reverse", [("q2", False), ("q4", False),
                                       ("q8", False), ("q4", True),
                                       ("q8", True)])
def test_exhaustive_check_calls_no_regulus_kernel(request, q, reverse,
                                                  monkeypatch):
    g, spread = _spreads(request, q)
    if reverse:
        spread = _reversed(spread, g)

    def no_kernel(self, *lines):
        raise AssertionError("the rank test computed a regulus")

    monkeypatch.setattr(type(g), "_regulus_lines", no_kernel)
    assert is_regular_spread(spread, g) is not reverse


@pytest.mark.parametrize("q", ["q4", "q8"])
@pytest.mark.parametrize("reverse", [False, True])
def test_sampled_verdict_matches_oracle(request, q, reverse):
    g, spread = _spreads(request, q)
    if reverse:
        spread = _reversed(spread, g)
    for seed in (0, 1, 2):
        assert (is_regular_spread(spread, g, sample=200, seed=seed)
                == oracle_is_regular_spread(spread, g, sample=200, seed=seed))


def test_sampled_triples_use_the_kernel(spread3, geo3, monkeypatch):
    calls = []
    kernel = type(geo3)._regulus_lines

    def counting(self, *lines):
        calls.append(lines)
        return kernel(self, *lines)

    monkeypatch.setattr(type(geo3), "_regulus_lines", counting)
    assert is_regular_spread(spread3, geo3, sample=200, seed=0)
    assert 0 < len(calls) <= 200


def test_exhaustive_check_computes_each_regulus_once(spread3, geo3,
                                                     monkeypatch):
    # the pair walk oracle
    calls = []
    kernel = type(geo3)._regulus_lines

    def counting(self, *lines):
        out = kernel(self, *lines)
        calls.append(frozenset(out))
        return out

    monkeypatch.setattr(type(geo3), "_regulus_lines", counting)
    assert walk_is_regular_spread(spread3, geo3)
    q = geo3.q
    # a regular spread has exactly q(q^2+1) reguli
    assert len(calls) == len(set(calls)) == q * (q * q + 1)


def test_pair_walk_yields_one_triple_per_regulus(spread3, geo3,
                                                 monkeypatch):
    # the walk reads done again after each triple, so it never offers a
    # triple of a regulus already found: q(q^2+1) triples, where the
    # triple sweep offered all C(q^2+1, 3)
    offered = []
    walk = pair_walk

    def counting(k, done, starts):
        for t in walk(k, done, starts):
            offered.append(t)
            yield t

    monkeypatch.setitem(globals(), "pair_walk", counting)
    assert walk_is_regular_spread(spread3, geo3)
    q = geo3.q
    assert len(offered) == len(set(offered)) == q * (q * q + 1)


@pytest.mark.parametrize("fix", ["geo1", "geo2", "geo3"])
def test_kernel_matches_brute_force(request, fix):
    # the opposite regulus is every line meeting all three; the regulus is
    # every line meeting all of those
    g = request.getfixturevalue(fix)
    rng = random.Random(0)
    lines = list(g.lines)              # each Line record built once
    q = g.q

    def meeting_all(idx):
        return sorted(ln.index for ln in lines
                      if all(ln.mask & lines[i].mask for i in idx))

    checked = 0
    while checked < 20:
        l1, l2, l3 = rng.sample(range(len(lines)), 3)
        a, b, c = lines[l1].mask, lines[l2].mask, lines[l3].mask
        if a & b or a & c or b & c:
            continue
        opp = meeting_all((l1, l2, l3))
        reg = meeting_all(opp)
        assert len(opp) == len(reg) == q + 1 and {l1, l2, l3} <= set(reg)
        assert sorted(g._transversal_lines(l1, l2, l3)) == opp
        assert sorted(g._regulus_lines(l1, l2, l3)) == reg
        assert regulus(g, l1, l2, l3) == (tuple(reg), tuple(opp))
        checked += 1


@pytest.mark.parametrize("key", ["2-elliptic", "3-tits"])
def test_search_result_pinned(request, key):
    n, kind = key.split("-")
    g = request.getfixturevalue(f"geo{n}")
    theta = tits_ovoid(g) if kind == "tits" else elliptic_quadric(g)
    sp, nodes = find_regular_spread_in_complex(tangent_lines(theta, g), g,
                                               budget=1000)
    want = EXPECTED[key]
    assert want["found"] and nodes == want["nodes"] == 4
    assert list(sp) == want["spread"]


def _search_input(request, key):
    n, kind = key.split("-")
    g = request.getfixturevalue(f"geo{n}")
    theta = tits_ovoid(g) if kind == "tits" else elliptic_quadric(g)
    return g, tangent_lines(theta, g)


@pytest.mark.parametrize("key", ["2-elliptic", "3-tits"])
def test_search_computes_each_regulus_once(request, key, monkeypatch):
    # the regulus-id closure oracle
    g, tl = _search_input(request, key)
    calls, checks = [], []
    kernel = type(g)._regulus_lines
    check = fibration.is_regular_spread

    def counting(self, *lines):
        out = kernel(self, *lines)
        calls.append(frozenset(out))
        return out

    def checking(*args, **kwargs):
        checks.append(len(calls))
        return check(*args, **kwargs)

    monkeypatch.setattr(type(g), "_regulus_lines", counting)
    monkeypatch.setattr(fibration, "is_regular_spread", checking)
    sp, _ = regid_search(tl, g, 1000)
    assert sp is not None and len(checks) == 1
    search = calls[:checks[0]]
    q = g.q
    assert len(search) == len(set(search))
    assert len(calls) <= 2 * q * (q * q + 1)


@pytest.mark.parametrize("key", ["2-elliptic", "3-tits"])
def test_closure_looks_up_and_walks_each_regulus_once(request, key,
                                                      monkeypatch):
    # in the regulus-id closure oracle, a closure finds the known reguli
    # through (chosen[a], new) in the per-line masks of regulus ids and calls the kernel only for a later
    # line that none of them holds: the search computes each regulus
    # once, at most q-1 per line pair of the spread, where one per triple
    # made C(q^2+1, 3); and each closure walks the lines of a regulus at
    # most once
    g, tl = _search_input(request, key)
    computed = []                   # the reguli the kernel returned
    walks = []                      # per closure, the reguli walked
    kernel = type(g)._regulus_lines

    def counting(self, *lines):
        out = kernel(self, *lines)
        computed.append(frozenset(out))
        return out

    def hook(frame, event, arg):
        if event != "call":
            return
        name = frame.f_code.co_name
        if name == "closure":
            walks.append([])
        elif name == "force":
            walks[-1].append(frame.f_locals["rid"])

    monkeypatch.setattr(type(g), "_regulus_lines", counting)
    monkeypatch.setattr(fibration, "is_regular_spread", lambda *a: True)
    sys.setprofile(hook)
    try:
        sp, _ = regid_search(tl, g, 1000)
    finally:
        sys.setprofile(None)
    k = g.q * g.q + 1
    assert sp is not None
    assert 0 < len(computed) <= (g.q - 1) * k * (k - 1) // 2
    assert len(computed) == len(set(computed))
    assert walks and all(len(w) == len(set(w)) for w in walks)
    # regulus ids number the computed reguli
    assert {rid for w in walks for rid in w} <= set(range(len(computed)))


@pytest.mark.parametrize("drop", [6, 12, 20])
@pytest.mark.parametrize("seed", range(4))
def test_search_matches_oracle_on_pruned_complexes(quadric2, geo2, drop,
                                                   seed):
    # dropping tangent lines makes closures fail, so sibling branches
    # walk reguli that the branch taken later never added; with 20 lines
    # dropped, some searches find no spread
    tl = tangent_lines(quadric2, geo2)
    rng = random.Random(seed)
    pruned = sorted(set(tl) - set(rng.sample(tl, drop)))
    got = find_regular_spread_in_complex(pruned, geo2, budget=300)
    assert got == oracle_search(pruned, geo2, 300)


@pytest.mark.parametrize("budget", [1, 3, 4, 5, 6, 1000])
@pytest.mark.parametrize("drop", [0, 2, 5])
def test_search_matches_oracle_at_q2(geo1, budget, drop):
    # at q = 2 a regulus is any three skew lines, so every set of skew
    # lines is closed and the search adds one line per node: 5 nodes for
    # the 5 lines of a spread, where a regulus plus one line closed by
    # the solid would take 4
    tl = tangent_lines(elliptic_quadric(geo1), geo1)
    pruned = sorted(set(tl) - set(random.Random(drop).sample(tl, drop)))
    got = find_regular_spread_in_complex(pruned, geo1, budget=budget)
    assert got == oracle_search(pruned, geo1, budget)
    assert got == listscan_search(pruned, geo1, budget)
    if drop == 0:
        assert got[1] == min(budget, 5)


@pytest.mark.parametrize("seed", range(4))
def test_search_stops_at_its_budget(geo3, seed):
    # without most closures' lines the search runs out of budget several
    # levels deep; no ancestor may count a node after that
    tl = tangent_lines(tits_ovoid(geo3), geo3)
    pruned = sorted(set(tl) - set(random.Random(seed).sample(tl, 60)))
    sp, nodes = find_regular_spread_in_complex(pruned, geo3, budget=300)
    assert sp is None and nodes == 300


@pytest.fixture(scope="module")
def complexes3(geo3, quadric3, tits3):
    return {"tits": tangent_lines(tits3, geo3),
            "elliptic": tangent_lines(quadric3, geo3)}


@pytest.mark.parametrize("kind", ["tits", "elliptic"])
@pytest.mark.parametrize("drop", [30, 60, 120])
@pytest.mark.parametrize("seed", range(4))
def test_search_matches_listscan_on_pruned_complexes_q8(geo3, complexes3,
                                                        kind, drop, seed):
    # with 30 lines dropped every search here finds a spread, with 60 two
    # of eight do, and with 120 none does.  Both ovoids have the lines of
    # the same W(q) as their tangents, so the kind seeds its own draws.
    tl = complexes3[kind]
    rng = random.Random(f"{kind}-{seed}")
    pruned = sorted(set(tl) - set(rng.sample(tl, drop)))
    got = find_regular_spread_in_complex(pruned, geo3, budget=300)
    assert got == listscan_search(pruned, geo3, 300)


@pytest.mark.parametrize("budget", [1, 2, 3, 1000])
def test_search_matches_listscan_at_small_budgets_q8(geo3, complexes3,
                                                     budget):
    # the search-spread benchmark's input; the elliptic quadric's is equal
    tl = complexes3["tits"]
    assert tl == complexes3["elliptic"]
    got = find_regular_spread_in_complex(tl, geo3, budget=budget)
    assert got == listscan_search(tl, geo3, budget)
    assert got[1] == min(budget, 4)


@pytest.mark.parametrize("extra", [[-1], ["nl"], [10 ** 6], ["nl", -1]])
def test_search_rejects_indices_that_are_not_lines(quadric2, geo2, extra):
    # -1 would read a mask from the end of the table, and an index past
    # the end would read an empty row: both used to return the result for
    # the complex without them
    nl = len(geo2.line_masks)
    extra = [nl if x == "nl" else x for x in extra]
    tl = tangent_lines(quadric2, geo2) + extra
    with pytest.raises(NotALine, match=rf"line index {extra[0]} "):
        find_regular_spread_in_complex(tl, geo2, budget=300)


@pytest.mark.parametrize("extra", [3.0, True])
def test_search_rejects_entries_that_are_not_ints(quadric2, geo2, extra):
    # 3.0 == 3 and True == 1 both pass a range membership test; 3.0 then
    # failed in a slice and True was read as line 1
    tl = tangent_lines(quadric2, geo2) + [extra]
    with pytest.raises(NotALine, match=rf"line index {extra!r} "):
        find_regular_spread_in_complex(tl, geo2, budget=300)


@pytest.mark.parametrize("kind", ["tits", "elliptic"])
@pytest.mark.parametrize("drop", [0, 30, 60])
@pytest.mark.parametrize("budget", [4, 300])
def test_search_calls_the_kernel_at_most_once_per_node(geo3, complexes3,
                                                       kind, drop, budget,
                                                       monkeypatch):
    # only a closure of two chosen lines and a new one computes a regulus:
    # a regulus and one more line close through their Plücker solid, and
    # the final check is a rank test
    tl = complexes3[kind]
    rng = random.Random(f"{kind}-{drop}")
    pruned = sorted(set(tl) - set(rng.sample(tl, drop)))
    calls = []
    kernel = type(geo3)._regulus_lines

    def counting(self, *lines):
        calls.append(lines)
        return kernel(self, *lines)

    monkeypatch.setattr(type(geo3), "_regulus_lines", counting)
    _, nodes = find_regular_spread_in_complex(pruned, geo3, budget=budget)
    assert 0 < len(calls) <= nodes


def test_search_reads_a_one_shot_iterable_once(quadric2, geo2):
    tl = tangent_lines(quadric2, geo2)
    assert (find_regular_spread_in_complex(iter(tl), geo2, budget=300)
            == find_regular_spread_in_complex(tl, geo2, budget=300))
