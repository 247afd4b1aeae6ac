"""The fibration suites on one member and one line per orbit of a verified
group (fibration_orbits) against the full sweep, the trivial group: every
counter is equal, each guard declines a group that breaks it alone, and a
report that fails under the group is the full sweep's, byte for byte."""

import json

import pytest

from ovoidlab import (ExtFieldCtx, fibration, gf2code, singer_context,
                      symplectic, verify)
from ovoidlab.fibration import (Fibration, Orbits, Spread, fibration_orbits,
                                find_regular_spread_in_complex,
                                t_orbit_fibration, trivial_orbits)
from ovoidlab.gfield import mat_identity, mat_mul
from ovoidlab.ovoids import tangent_lines
from ovoidlab.projspace import line_permutation, point_permutation
from ovoidlab.cli import main
from ovoidlab.symplectic import member_polarity, polar_lines
from ovoidlab.verify import (verify_lemma5, verify_main_theorem,
                             verify_proposition1,
                             verify_radical_and_corollary3)

from kfibration import Symmetry, fibrate_ovoid, k_generator, singer_k
from test_failure_branches import (MAIN_REPORTS, REPORTS, as_pinned,
                                   assert_pinned, corrupted, replaced,
                                   swapped_form)
from test_metamorphic import collineation


def reports(f, sc, g) -> dict:
    """The four fibration suites' reports without elapsed_ms."""
    form = member_polarity(t_orbit_fibration(sc), 0, g)
    out = {"prop1": verify_proposition1(f, g),
           "lemma5": verify_lemma5(sc),
           "main": verify_main_theorem(f, g),
           "codes": verify_radical_and_corollary3(form, sc)}
    return {name: as_pinned(rep) for name, rep in out.items()}


def full_sweep(patch) -> None:
    """Every suite runs under the trivial group."""
    patch.setattr(verify, "fibration_orbits", trivial_orbits)


def no_full_sweep(patch) -> None:
    """A suite that falls back to the full sweep raises."""
    def entered(f, g):
        raise AssertionError("the full sweep was entered")

    patch.setattr(verify, "trivial_orbits", entered)


def singer(n, request):
    if n == 1:
        return singer_context(request.getfixturevalue("geo1"),
                              ExtFieldCtx.build(1))
    return request.getfixturevalue(f"sc{n}")


def differential(sc, monkeypatch) -> tuple[dict, dict]:
    """(reduced, full) reports of the four suites on sc's fibration."""
    g = sc.geometry
    fib = t_orbit_fibration(sc)
    with monkeypatch.context() as patch:
        full_sweep(patch)
        full = reports(fib, sc, g)
    with monkeypatch.context() as patch:
        if g.q > 2:           # at q = 2 the codes suite fails, and falls back
            no_full_sweep(patch)
        reduced = reports(fib, sc, g)
    return reduced, full


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_reports_equal_the_full_sweep(n, request, monkeypatch):
    sc = singer(n, request)
    g = sc.geometry
    q = g.q
    orbits = fibration_orbits(t_orbit_fibration(sc), g)
    assert orbits.members == [(0, q + 1)]
    assert len(orbits.lines) == q * q + q + 1
    assert {size for _, size in orbits.lines} == {q * q + 1}
    reduced, full = differential(sc, monkeypatch)
    assert reduced == full
    assert all(doc["pass"] for name, doc in full.items()
               if (name, q) != ("codes", 2))
    assert full["main"]["counters"]["dual_grids_checked"] == (
        (q + 1) * q * q * (q * q + 1) // 2)
    if q == 2:
        assert not full["codes"]["pass"]
        assert full["codes"]["failures"] == [{
            "witness": "dim D = 5 is not strictly below dim C-perp = 5",
            "indices": []}]


@pytest.mark.parametrize("name", list(REPORTS))
def test_prop1_pinned_reports_with_the_singer_group(name, fib2, geo2, sc2):
    # the corrupted members keep the genuine Singer group: a guard declines
    # it, or the report under it fails and the full sweep reports
    f = Fibration(corrupted(name, fib2, geo2).members, group=sc2)
    assert_pinned(as_pinned(verify_proposition1(f, geo2)), REPORTS[name])


@pytest.mark.parametrize("key", list(MAIN_REPORTS))
def test_main_pinned_reports_with_the_singer_group(key, fib2, geo2, sc2):
    name, theta0 = key.split("/")
    f = Fibration(corrupted(name, fib2, geo2).members, group=sc2)
    rep = verify_main_theorem(f, geo2,
                              theta0=None if theta0 == "all" else int(theta0))
    assert_pinned(as_pinned(rep), MAIN_REPORTS[key])


def test_a_failing_representative_falls_back(fib2, geo2, sc2):
    # last_dropped: T still fixes the four members left, so the suites run
    # under T first, and their failing reports are discarded
    f = Fibration(corrupted("last_dropped", fib2, geo2).members, group=sc2)
    orbits = fibration_orbits(f, geo2)
    assert orbits.reduced and orbits.members == [(i, 1) for i in range(4)]
    for suite in (verify_proposition1, verify_main_theorem):
        with pytest.MonkeyPatch.context() as patch:
            no_full_sweep(patch)
            with pytest.raises(AssertionError, match="full sweep"):
                suite(f, geo2)


def spy_on_the_group(patch, t_gen) -> list[str]:
    """The names "fibration_orbits" and "t_gen", once per call that reads
    the group's orbits or computes T's point permutation, in every module
    that binds those functions, and "trivial" once per full sweep."""
    events = []
    t_gen = tuple(map(tuple, t_gen))

    def spied_perm(real):
        def point_permutation(g, m):
            if tuple(map(tuple, m)) == t_gen:
                events.append("t_gen")
            return real(g, m)
        return point_permutation

    for mod in (fibration, gf2code, symplectic, verify):
        if hasattr(mod, "fibration_orbits"):
            patch.setattr(mod, "fibration_orbits",
                          lambda f, g, _r=mod.fibration_orbits:
                          events.append("fibration_orbits") or _r(f, g))
        if hasattr(mod, "point_permutation"):
            patch.setattr(mod, "point_permutation",
                          spied_perm(mod.point_permutation))
    real = verify.trivial_orbits
    patch.setattr(verify, "trivial_orbits",
                  lambda f, g: events.append("trivial") or real(f, g))
    return events


def test_the_full_sweep_reads_no_group(sc2, form2, monkeypatch):
    # every statement is forced false, so each suite fails under the
    # Singer group and runs again under the trivial group; from then on
    # it reads neither the group's orbits nor T, and the codes suite
    # eliminates C and D
    g = sc2.geometry
    fib = t_orbit_fibration(sc2)
    monkeypatch.setattr(verify, "orbit_sum", lambda pts, sc: 0)
    monkeypatch.setattr(verify, "regular_through", lambda s, lines, g: False)
    monkeypatch.setattr(verify, "tangent_member", lambda mask, f: None)
    built = []
    for name in ("code_C", "code_D"):
        monkeypatch.setattr(verify, name, lambda f, g, _n=name,
                            _r=getattr(verify, name):
                            built.append(_n) or _r(f, g))
    events = spy_on_the_group(monkeypatch, sc2.t_gen)
    for suite in (lambda: verify_proposition1(fib, g),
                  lambda: verify_lemma5(sc2),
                  lambda: verify_main_theorem(fib, g),
                  lambda: verify_radical_and_corollary3(form2, sc2)):
        events.clear()
        assert not suite().passed
        assert events.count("trivial") == 1
        assert events[events.index("trivial") + 1:] == []
    assert sorted(built) == ["code_C", "code_D"]


def test_a_passing_verify_computes_t_points_twice(sc3, capsys,
                                                  monkeypatch):
    # singer_context checks T's order, and the orbits verify T once
    events = spy_on_the_group(monkeypatch, sc3.t_gen)
    assert main(["verify", "--n", "3", "--suite", "all", "--no-cache"]) == 0
    assert events.count("t_gen") == 2 and "trivial" not in events


def test_k_group_cycles_the_suzuki_tits_members(tits3, geo3, monkeypatch):
    # the Suzuki-Tits fibration has no T: its line-fixing group K permutes
    # the members in one cycle and fixes none, so only the member half of
    # the reduction applies, and member 0's polarity alone is solved
    lines, _ = find_regular_spread_in_complex(tangent_lines(tits3, geo3),
                                              geo3)
    spread = Spread(tuple(lines))
    members = fibrate_ovoid(tits3, spread, geo3).members
    f = Fibration(members, group=Symmetry(gen=k_generator(spread, geo3)))
    orbits = fibration_orbits(f, geo3)
    assert orbits.members == [(0, 9)]
    assert orbits.lines == [(i, 1) for i in range(len(geo3.lines))]
    solved = []
    real = verify.member_polarity
    with monkeypatch.context() as patch:
        no_full_sweep(patch)
        patch.setattr(verify, "member_polarity",
                      lambda f, i, g: solved.append(i) or real(f, i, g))
        reduced = [verify_proposition1(f, geo3), verify_main_theorem(f, geo3)]
    assert solved == [0]
    full = [verify_proposition1(Fibration(members), geo3),
            verify_main_theorem(Fibration(members), geo3)]
    assert [as_pinned(r) for r in reduced] == [as_pinned(r) for r in full]
    assert [r.counters for r in reduced] == [
        {"spread": 65, "lines_checked": 4680, "expected_profile": [1, 4, 4],
         "failures_total": 0},
        {"theta0_choices": 9, "dual_grids_checked": 18720,
         "failures_total": 0}]


def test_t_orbit_fibration_checks_one_member_per_orbit(sc2, monkeypatch):
    # sigma carries member 0's ovoid check to every member; a generator
    # that fails its guard leaves every member to be checked
    checked = []
    real = fibration.is_ovoid
    monkeypatch.setattr(fibration, "is_ovoid",
                        lambda pts, g: checked.append(pts) or real(pts, g))
    genuine = t_orbit_fibration(replaced(sc2))
    assert len(checked) == 1 and checked[0] == genuine.members[0].pts
    checked.clear()
    fixed = t_orbit_fibration(replaced(sc2, gen=sc2.t_gen))
    assert checked == [ov.pts for ov in fixed.members]
    assert fixed.members == genuine.members


SINGULAR = tuple((1, 0, 0, 0) for _ in range(4))


def conjugate(m, sc, seed=3):
    """M m M^-1 for a seeded collineation M."""
    g = sc.geometry
    c, c_inv = collineation(g, seed)
    return mat_mul(g.ctx, c, mat_mul(g.ctx, m, c_inv))


# each breaks one guard alone: (which generator, its matrix from sc)
BROKEN = {
    # gen fixes every member: the members are mapped onto members, but in
    # q+1 cycles, not one
    "gen_fixes_each_member": ("gen", lambda sc: sc.t_gen),
    "gen_is_the_identity": ("gen", lambda sc: mat_identity()),
    # a collineation that maps the members onto no member
    "gen_moves_the_members_off": ("gen", lambda sc: conjugate(sc.gen, sc)),
    "gen_is_singular": ("gen", lambda sc: SINGULAR),
    # M T M^-1 acts on the lines in cycles of length q^2+1, but it does
    # not fix the members
    "t_gen_conjugated": ("t_gen", lambda sc: conjugate(sc.t_gen, sc)),
    "t_gen_cycles_the_members": ("t_gen", lambda sc: sc.gen),
    "t_gen_is_k": ("t_gen", lambda sc: singer_k(sc)[0]),
    # the identity fixes every member, but its line cycles have length 1
    "t_gen_is_the_identity": ("t_gen", lambda sc: mat_identity()),
    "t_gen_is_singular": ("t_gen", lambda sc: SINGULAR),
}


@pytest.mark.parametrize("case", list(BROKEN))
def test_each_guard_declines_alone(case, fib2, geo2, sc2):
    which, matrix = BROKEN[case]
    group = Symmetry(gen=sc2.gen, t_gen=sc2.t_gen)
    genuine = Orbits(fib2, geo2, *group)
    assert genuine.members == [(0, 5)] and len(genuine.lines) == 21
    orbits = Orbits(fib2, geo2, **{**group._asdict(), which: matrix(sc2)})
    trivial = trivial_orbits(fib2, geo2)
    assert genuine.t_points == list(sc2.t_perm)
    assert trivial.t_points is None
    if which == "gen":
        assert orbits.members == trivial.members
        assert orbits.lines == genuine.lines
        assert orbits.t_points == genuine.t_points
    else:
        assert orbits.members == genuine.members
        assert orbits.lines == trivial.lines
        assert orbits.t_lines == range(len(geo2.lines))
        assert orbits.t_points is None


def test_guards_read_the_matrices_not_the_stored_permutations(sc2, geo2):
    # t_perm that walks member j with t^(j+1): the same cycles, so the same
    # members and orbit sums, but no collineation; the guards recompute
    # T's permutations from t_gen, and the suites stay on the group
    t = sc2.t_perm
    perm = list(t)
    fib = t_orbit_fibration(sc2)
    for j, ov in enumerate(fib.members):
        for p in ov.pts:
            x = p
            for _ in range(j + 1):
                x = t[x]
            perm[p] = x
    sc = replaced(sc2, t_perm=tuple(perm))
    f = t_orbit_fibration(sc)
    assert f.members == fib.members
    orbits = fibration_orbits(f, geo2)
    t_points = point_permutation(geo2, sc2.t_gen)
    assert orbits.t_points == t_points != list(sc.t_perm)
    assert orbits.t_lines == line_permutation(geo2, t_points)
    with pytest.MonkeyPatch.context() as patch:
        no_full_sweep(patch)
        for rep in (verify_proposition1(f, geo2), verify_lemma5(sc),
                    verify_main_theorem(f, geo2)):
            assert rep.passed


def test_commuting_guard_declines_another_form(sc2, geo2, monkeypatch):
    # the form of a conjugated member is not preserved by T: the codes
    # suite's sweep runs on every grid, and its report is the full one
    form = swapped_form(member_polarity(t_orbit_fibration(sc2), 0, geo2))
    got = as_pinned(verify_radical_and_corollary3(form, sc2))
    with monkeypatch.context() as patch:
        full_sweep(patch)
        want = as_pinned(verify_radical_and_corollary3(form, sc2))
    assert json.dumps(got) == json.dumps(want)
    assert not got["pass"]


def count_walks(monkeypatch) -> list:
    """The partner map of every dual-grid walk from now on."""
    walks = []
    real = fibration.orbit_leaders

    def spy(perm, partner, items):
        walks.append(partner)
        return real(perm, partner, items)

    monkeypatch.setattr(fibration, "orbit_leaders", spy)
    return walks


def test_a_passing_verify_walks_one_polar_map_once(capsys, monkeypatch):
    # the main theorem, the T-module and the sigma sweep read member 0's
    # dual grids: one walk
    walks = count_walks(monkeypatch)
    assert main(["verify", "--n", "3", "--suite", "all", "--no-cache"]) == 0
    assert len(walks) == 1
    for suite in ("main", "codes"):
        walks.clear()
        assert main(["verify", "--n", "2", "--suite", suite,
                     "--no-cache"]) == 0
        assert len(walks) == 1, suite


@pytest.mark.parametrize("group", ["singer", "trivial"])
def test_grids_walk_each_polar_map_once(group, fib2, geo2, monkeypatch):
    orbits = (Orbits(fib2, geo2, fib2.group.gen, fib2.group.t_gen)
              if group == "singer" else trivial_orbits(fib2, geo2))
    polars = [polar_lines(member_polarity(fib2, i, geo2), geo2)
              for i in range(len(fib2.members))]
    walks = count_walks(monkeypatch)
    for polar in polars:
        # T fixes every member, so it commutes with every member's map
        first = orbits.grids(polar)
        assert first is not None and orbits.grids(polar) is first
    assert walks == polars
    assert len(orbits.grids(polars[0])) == (
        len(geo2.lines) - len(geo2.points)) // 2 // orbits.lines[0][1]
    assert walks == polars + polars[:1]
