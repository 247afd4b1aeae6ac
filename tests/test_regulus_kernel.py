"""Differential tests for the regulus kernel.

`oracle_is_regular_spread` is the original triple sweep: it recomputes the
regulus of every line triple with its own inline transversal search and
shares no code with `GeometryTables._regulus_lines`.  The fast
`is_regular_spread` and the memoized spread search must agree with it.
"""

import json
import random
from pathlib import Path

import pytest

from ovoidlab import (ExtFieldCtx, common_tangent_spread, singer_context,
                      t_orbit_fibration)
from ovoidlab.fibration import (Spread, find_regular_spread_in_complex,
                                is_regular_spread)
from ovoidlab.ovoids import elliptic_quadric, tangent_lines, tits_ovoid

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json")
    .read_text())["search-spread"]


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
    pair_to_line = g.pair_to_line
    glines = g.lines
    for a, b, c in triples:
        l1, l2, l3 = glines[lines[a]], glines[lines[b]], glines[lines[c]]
        # opposite regulus: the unique transversal through each point of l1
        opp = []
        for p in l1.pts:
            for x in l2.pts:
                li = pair_to_line[(p, x) if p < x else (x, p)]
                if glines[li].mask & l3.mask:
                    opp.append(li)
                    break
        # the regulus itself: transversals of three opposite lines
        o1, o2, o3 = glines[opp[0]], glines[opp[1]], glines[opp[2]]
        for p in o1.pts:
            for x in o2.pts:
                li = pair_to_line[(p, x) if p < x else (x, p)]
                if glines[li].mask & o3.mask:
                    if li not in members:
                        return False
                    break
    return True


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
    reg, opp = g.regulus(*spread.lines[start:start + 3])
    return Spread(tuple(sorted((set(spread.lines) - set(reg)) | set(opp))))


@pytest.mark.parametrize("q", ["q2", "q4", "q8"])
def test_singer_spread_verdict_matches_oracle(request, q):
    g, spread = _spreads(request, q)
    assert is_regular_spread(spread, g) is True
    assert oracle_is_regular_spread(spread, g) is True


@pytest.mark.parametrize("q", ["q4", "q8"])
@pytest.mark.parametrize("start", [0, 7])
def test_reversed_spread_verdict_matches_oracle(request, q, start):
    g, spread = _spreads(request, q)
    mutated = _reversed(spread, g, start)
    assert mutated.lines != spread.lines
    assert is_regular_spread(mutated, g) is False
    assert oracle_is_regular_spread(mutated, g) is False


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
    calls = []
    kernel = type(geo3)._regulus_lines

    def counting(self, *lines):
        out = kernel(self, *lines)
        calls.append(frozenset(out))
        return out

    monkeypatch.setattr(type(geo3), "_regulus_lines", counting)
    assert is_regular_spread(spread3, geo3)
    q = geo3.q
    # a regular spread has exactly q(q^2+1) reguli
    assert len(calls) == len(set(calls)) == q * (q * q + 1)


def test_kernel_matches_brute_force(geo2):
    # the opposite regulus is every line meeting all three; the regulus is
    # every line meeting all of those
    rng = random.Random(0)
    lines = geo2.lines
    q = geo2.q

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
        assert sorted(geo2._transversal_lines(l1, l2, l3)) == opp
        assert sorted(geo2._regulus_lines(l1, l2, l3)) == reg
        assert geo2.regulus(l1, l2, l3) == (tuple(reg), tuple(opp))
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
