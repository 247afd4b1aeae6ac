"""Failure branches of the suites, the common-tangent spread and the
Segre polarity that genuine inputs never reach, with the suite reports on
corrupted q = 4 inputs pinned in tests/data."""

import json
from pathlib import Path

import pytest

import kfibration
from kfibration import NotRegular, k_stabilizer
from linecols import plane_points
from ovoidlab import fibration, symplectic, verify
from ovoidlab.errors import NoPolarity, NotAFibration
from ovoidlab.fibration import (Fibration, SingerContext,
                                common_tangent_spread)
from ovoidlab.gf2code import BitMat
from ovoidlab.ovoids import Ovoid
from ovoidlab.symplectic import SymplecticForm, polarity_from_ovoid
from ovoidlab.verify import (verify_lemma5, verify_main_theorem,
                             verify_proposition1,
                             verify_radical_and_corollary3, verify_segre)

from test_regulus_kernel import regulus

DATA = Path(__file__).parent / "data"


def pinned(name: str) -> dict:
    return json.loads((DATA / name).read_text())


REPORTS = pinned("prop1_q4_reports.json")
MAIN_REPORTS = pinned("main_q4_reports.json")
SINGER_REPORTS = pinned("lemma5_codes_q4_reports.json")


def as_pinned(report) -> dict:
    out = report.to_dict()
    out.pop("elapsed_ms")
    return out


def assert_pinned(got: dict, want: dict) -> None:
    assert json.dumps(got, indent=1) == json.dumps(want, indent=1)


def swap_points(ov: Ovoid, off_point: int) -> Ovoid:
    pts = (off_point,) + ov.pts[1:]
    return Ovoid(pts, ov.kind, ov.mask ^ (1 << ov.pts[0]) ^ (1 << off_point))


def corrupted(name: str, f: Fibration, g) -> Fibration:
    m = f.members
    if name == "swapped_point":
        return Fibration((swap_points(m[0], m[1].pts[0]),
                          swap_points(m[1], m[0].pts[0])) + m[2:])
    if name == "last_dropped":
        return Fibration(m[:-1])
    if name == "last_is_member0":
        return Fibration(m[:-1] + (m[0],))
    if name == "no_members":
        return Fibration(())
    if name == "member0_only":
        return Fibration(m[:1])
    if name == "theta0_is_plane0":
        return Fibration((Ovoid.from_points(plane_points(g.planes[0])),) + m[1:])
    raise AssertionError(name)


@pytest.mark.parametrize("name", list(REPORTS))
def test_prop1_report_is_pinned(name, fib2, geo2):
    assert_pinned(as_pinned(verify_proposition1(corrupted(name, fib2, geo2),
                                                geo2)), REPORTS[name])


def main_report(key: str, f: Fibration, g) -> dict:
    """key is "<corruption>/<theta0>", theta0 "all" for None."""
    name, theta0 = key.split("/")
    return as_pinned(verify_main_theorem(
        corrupted(name, f, g), g,
        theta0=None if theta0 == "all" else int(theta0)))


@pytest.mark.parametrize("key", list(MAIN_REPORTS))
def test_main_report_is_pinned(key, fib2, geo2):
    assert_pinned(main_report(key, fib2, geo2), MAIN_REPORTS[key])


@pytest.mark.parametrize("theta0", [-1, 5])
def test_main_theorem_fails_on_theta0_out_of_range(theta0, fib2, geo2):
    rep = verify_main_theorem(fib2, geo2, theta0=theta0)
    assert not rep.passed
    assert rep.counters["theta0_choices"] == 0
    assert rep.failures == [{
        "witness": f"theta_0 = {theta0} is not a member index "
                   "(the fibration has 5 members)",
        "indices": [theta0]}]


def replaced(sc: SingerContext, **changes) -> SingerContext:
    """A copy of the Singer context with the named fields replaced."""
    return SingerContext(**{**vars(sc), **changes})


def swapped_t(sc, a: int, b: int):
    perm = list(sc.t_perm)
    perm[a], perm[b] = perm[b], perm[a]
    return replaced(sc, t_perm=tuple(perm))


def swapped_form(form):
    """The form conjugated by the coordinate swap x0 <-> x2."""
    swap = (2, 1, 0, 3)
    return form._replace(gram=tuple(
        tuple(form.gram[swap[i]][swap[j]] for j in range(4))
        for i in range(4)))


def singer_report(key: str, sc, form, monkeypatch) -> dict:
    """key is "<lemma5|codes>/<corruption>"; the last two corruptions
    replace C by the swapped form's code and flip bit 0 of D's row 0.
    The T-module path builds neither code, so those two also make it
    decline, which sends the suite to the elimination of C and D."""
    suite, case = key.split("/")
    if case in ("C_of_swapped_form", "D_row0_bit0_flipped"):
        monkeypatch.setattr(verify, "t_module_counters", lambda *a: None)
    if case == "t_perm_0_1":
        sc = swapped_t(sc, 0, 1)
    elif case == "t_perm_5_6":
        sc = swapped_t(sc, 5, 6)
    elif case == "C_of_swapped_form":
        real_c = verify.code_C
        monkeypatch.setattr(verify, "code_C",
                            lambda f, g: real_c(swapped_form(form), g))
    elif case == "D_row0_bit0_flipped":
        real_d = verify.code_D

        def flipped(f, g):
            d = real_d(f, g)
            return BitMat([d.rows[0] ^ 1] + d.rows[1:], width=d.width)

        monkeypatch.setattr(verify, "code_D", flipped)
    else:
        raise AssertionError(case)
    if suite == "lemma5":
        return as_pinned(verify_lemma5(sc))
    return as_pinned(verify_radical_and_corollary3(form, sc))


@pytest.mark.parametrize("key", list(SINGER_REPORTS))
def test_lemma5_and_codes_report_is_pinned(key, sc2, form2, monkeypatch):
    assert_pinned(singer_report(key, sc2, form2, monkeypatch),
                  SINGER_REPORTS[key])


# the rank-2 form x0 y1 + x1 y0: it has no polar map
DEGENERATE = SymplecticForm(gram=((0, 1, 0, 0), (1, 0, 0, 0),
                                  (0, 0, 0, 0), (0, 0, 0, 0)))


def not_a_permutation(sc: SingerContext, entry=None) -> SingerContext:
    """sc with point 1 sent where point 0 goes, or to `entry`."""
    perm = list(sc.t_perm)
    perm[1] = perm[0] if entry is None else entry
    return replaced(sc, t_perm=tuple(perm))


# each entry: (sc, geometry, form of member 0) -> report;
# an empty fibration and plane 0 as member 0 are pinned in full for Prop 1
# and the main theorem above (no_members, theta0_is_plane0)
MALFORMED = {
    "codes/degenerate_form":
        lambda sc, g, form: verify_radical_and_corollary3(DEGENERATE, sc),
    "codes/t_perm_not_a_permutation":
        lambda sc, g, form: verify_radical_and_corollary3(
            form, not_a_permutation(sc)),
    "codes/t_perm_out_of_range":
        lambda sc, g, form: verify_radical_and_corollary3(
            form, not_a_permutation(sc, g.n_points)),
    "lemma5/t_perm_not_a_permutation":
        lambda sc, g, form: verify_lemma5(not_a_permutation(sc)),
    "lemma5/t_perm_truncated":
        lambda sc, g, form: verify_lemma5(
            replaced(sc, t_perm=sc.t_perm[:-1])),
    "segre/plane0": lambda sc, g, form: verify_segre(
        Ovoid.from_points(plane_points(g.planes[0])), g),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_gives_a_failing_report(case, sc2, geo2, form2):
    report = MALFORMED[case](sc2, geo2, form2)
    assert not report.passed and report.failures
    assert report.counters["failures_total"] >= len(report.failures)
    json.dumps(report.to_dict())


def swapped_line_set(spread, g) -> list[int]:
    """q^2+1 lines, one of them meeting another spread line."""
    swap = next(ln.index for ln in g.lines if ln.index not in spread.lines)
    return sorted(spread.lines[1:] + (swap,))


def regulus_reversed(spread, g) -> list[int]:
    """A genuine spread that is not regular (q > 3)."""
    reg, opp = regulus(g, *spread.lines[:3])
    return sorted((set(spread.lines) - set(reg)) | set(opp))


@pytest.mark.parametrize("lines, witness, other", [
    (swapped_line_set, "common tangent lines do not form a spread",
     "common tangent spread fails regulus closure"),
    (regulus_reversed, "common tangent spread fails regulus closure",
     "common tangent lines do not form a spread"),
])
def test_prop1_spread_witnesses(lines, witness, other, fib2, geo2, spread2,
                                monkeypatch):
    common = lines(spread2, geo2)
    assert len(common) == geo2.q ** 2 + 1
    monkeypatch.setattr(verify, "common_tangents", lambda f, g, o: common)
    r = verify_proposition1(fib2, geo2)
    witnesses = [x["witness"] for x in r.failures]
    assert not r.passed
    assert witness in witnesses and other not in witnesses


def test_common_tangent_spread_rejects_meeting_lines(fib2, geo2, spread2,
                                                     monkeypatch):
    common = swapped_line_set(spread2, geo2)
    monkeypatch.setattr(fibration, "common_tangents",
                        lambda f, g, o: common)
    with pytest.raises(NotAFibration, match="not pairwise skew"):
        common_tangent_spread(fib2, geo2)


def test_polarity_rejects_degenerate_solution(quadric2, geo2, monkeypatch):
    # the tangent system is forced to return the rank-2 form x1 y2 + x2 y1
    monkeypatch.setattr(symplectic, "tangent_nullspace",
                        lambda g, tangents: [(1, 0, 0, 0, 0, 0)])
    with pytest.raises(NoPolarity, match="degenerate"):
        polarity_from_ovoid(quadric2, geo2)


def test_k_stabilizer_drops_singular_candidates(spread2, geo2, monkeypatch):
    # the line-fixing space is forced to <I, E_00>: of its q+1 projective
    # points, E_00 and I + E_00 are singular, leaving q-1 collineations
    real = kfibration.nullspace
    ident = tuple(int(i == j) for i in range(4) for j in range(4))
    e00 = (1,) + (0,) * 15

    def singular_line_fixers(ctx, rows, ncols):
        if ncols == 16:
            return [ident, e00]
        return real(ctx, rows, ncols)

    monkeypatch.setattr(kfibration, "nullspace", singular_line_fixers)
    with pytest.raises(NotRegular, match="order 3, want 5"):
        k_stabilizer(spread2, geo2)
