"""Seeded corruptions of the Singer input at q = 4 and q = 8, against the
full sweep (differential testing: McKeeman, "Differential testing for
software", Digital Technical Journal 10, 1998).  Whatever the input, the
five suites must report what they report with verify.fibration_orbits
forced to trivial_orbits, and no exception but an OvoidlabError may
escape.  The reference runs on a fresh tangency table, so a table shared
by a reduced run and the full sweep that follows it is shown to carry no
state into the full report."""

import random

import pytest

from ovoidlab import fibration
from ovoidlab.errors import OvoidlabError
from ovoidlab.fibration import Fibration, t_orbit_fibration
from ovoidlab.ovoids import Ovoid
from ovoidlab.projspace import point_permutation
from ovoidlab.verify import (verify_lemma5, verify_main_theorem,
                             verify_proposition1,
                             verify_radical_and_corollary3, verify_segre)

from test_failure_branches import as_pinned, replaced, swapped_t
from test_metamorphic import collineation, mapped_ovoid
from test_orbits import full_sweep

MOVES = ("points_swapped", "gen_entry", "t_gen_entry", "t_perm_transposed",
         "member_mapped")


def corrupt(sc, seed: int) -> tuple:
    """(Singer context, members) after the move MOVES[seed % 5] on sc and
    its T-orbit members, drawn from random.Random(seed):
    - points_swapped: a point of one member and a point of another change
      places, in the members and in the cycles of t_perm alike;
    - gen_entry, t_gen_entry: one entry of the matrix takes another value;
    - t_perm_transposed: two entries of t_perm change places;
    - member_mapped: one member is replaced by its image under a seeded
      collineation.
    The moves on a matrix or on t_perm keep the genuine members."""
    rng, g = random.Random(seed), sc.geometry
    members = t_orbit_fibration(sc).members
    move = MOVES[seed % len(MOVES)]
    if move == "points_swapped":
        i, j = rng.sample(range(len(members)), 2)
        a, b = rng.choice(members[i].pts), rng.choice(members[j].pts)
        tau = {a: b, b: a}
        swap = lambda p: tau.get(p, p)          # noqa: E731
        sc = replaced(sc, t_perm=tuple(swap(sc.t_perm[swap(x)])
                                       for x in range(g.n_points)))
        members = tuple(Ovoid.from_points(map(swap, ov.pts), ov.kind)
                        for ov in members)
    elif move in ("gen_entry", "t_gen_entry"):
        name = move.removesuffix("_entry")
        m = [list(row) for row in getattr(sc, name)]
        r, c = rng.randrange(4), rng.randrange(4)
        m[r][c] = rng.choice([x for x in range(g.q) if x != m[r][c]])
        sc = replaced(sc, **{name: tuple(map(tuple, m))})
    elif move == "t_perm_transposed":
        sc = swapped_t(sc, *rng.sample(range(g.n_points), 2))
    else:
        i = rng.randrange(len(members))
        perm = point_permutation(g, collineation(g, seed)[0])
        members = (members[:i] + (mapped_ovoid(members[i], perm),)
                   + members[i + 1:])
    return sc, members


def outcomes(sc, members, form) -> dict:
    """Each suite's report without elapsed_ms, or the OvoidlabError it
    raised, on the members under the Singer context's group."""
    g = sc.geometry
    f = Fibration(members, group=sc)
    suites = {"prop1": lambda: verify_proposition1(f, g),
              "lemma5": lambda: verify_lemma5(sc),
              "main": lambda: verify_main_theorem(f, g),
              "codes": lambda: verify_radical_and_corollary3(form, sc),
              "segre": lambda: verify_segre(members[0], g)}
    out = {}
    for name, run in suites.items():
        try:
            out[name] = as_pinned(run())
        except OvoidlabError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


# four rounds of the five moves at q = 4, about 10 ms a case, and one at
# q = 8, about 0.2 s a case
CASES = [(2, seed) for seed in range(20)] + [(3, seed) for seed in range(5)]


@pytest.mark.parametrize("n, seed", CASES)
def test_corrupted_reports_equal_the_full_sweep(n, seed, request,
                                                monkeypatch):
    sc, members = corrupt(request.getfixturevalue(f"sc{n}"), seed)
    form = request.getfixturevalue(f"form{n}")
    got = outcomes(sc, members, form)
    fibration.line_tangency.cache_clear()
    with monkeypatch.context() as patch:
        full_sweep(patch)
        want = outcomes(sc, members, form)
    assert got == want


def test_each_move_changes_the_input(sc2):
    genuine = t_orbit_fibration(sc2).members
    for seed, move in enumerate(MOVES):
        sc, members = corrupt(sc2, seed)
        changed = {name for name in ("gen", "t_gen", "t_perm")
                   if getattr(sc, name) != getattr(sc2, name)}
        if members != genuine:
            changed.add("members")
        assert changed == {
            "points_swapped": {"t_perm", "members"},
            "gen_entry": {"gen"}, "t_gen_entry": {"t_gen"},
            "t_perm_transposed": {"t_perm"},
            "member_mapped": {"members"}}[move], move
